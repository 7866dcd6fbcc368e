"""TranspileResult report tests."""

import pytest

from repro import FuzzConfig, HeteroGen, HeteroGenConfig, SearchConfig
from repro.cli import result_to_dict

SRC = """
int kernel(int a[4]) {
    long double x = a[0];
    long double y = x * 1.0;
    return (int)y;
}
"""


@pytest.fixture(scope="module")
def result():
    config = HeteroGenConfig(
        fuzz=FuzzConfig(max_execs=150, plateau_execs=80),
        search=SearchConfig(max_iterations=40),
    )
    return HeteroGen(config).transpile(SRC, kernel_name="kernel",
                                       subject_name="report-test")


class TestReport:
    def test_summary_lists_all_fields(self, result):
        summary = result.summary()
        for field in ("subject", "HLS compatible", "behavior kept",
                      "speedup", "origin LOC", "delta LOC", "repair time",
                      "tests generated"):
            assert field in summary

    def test_source_diff_marks_changes(self, result):
        diff = result.source_diff()
        assert diff.startswith("---")
        assert "-    long double x = a[0];" in diff
        assert any(line.startswith("+") for line in diff.splitlines())

    def test_delta_loc_consistent_with_diff(self, result):
        added_lines = [
            line for line in result.source_diff().splitlines()
            if line.startswith("+") and not line.startswith("+++")
            and line[1:].strip()
        ]
        assert result.delta_loc == len(added_lines)

    def test_applied_edits_nonempty(self, result):
        assert result.applied_edits
        assert all(isinstance(e, str) for e in result.applied_edits)

    def test_json_round_trip(self, result):
        import json

        payload = result_to_dict(result)
        encoded = json.dumps(payload)
        decoded = json.loads(encoded)
        assert decoded["subject"] == "report-test"
        assert decoded["hls_compatible"] is True
        assert decoded["final_source"]

    def test_runtime_fields_positive(self, result):
        assert result.origin_runtime_ms > 0
        assert result.converted_runtime_ms > 0
        assert result.speedup == pytest.approx(
            result.origin_runtime_ms / result.converted_runtime_ms
        )
