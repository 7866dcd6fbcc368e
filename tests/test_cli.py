"""CLI tests (argument parsing + each subcommand end to end)."""

import json

import pytest

from repro.cli import _parse_host_args, build_parser, main, result_to_dict

KERNEL = """
float smooth(float samples[8], float out[8]) {
    long double acc = 0.0;
    for (int i = 0; i < 8; i++) {
        long double x = samples[i];
        acc = acc + x;
        out[i] = (float)acc;
    }
    return (float)acc;
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(KERNEL)
    return str(path)


class TestParsing:
    def test_host_args(self):
        assert _parse_host_args("") == []
        assert _parse_host_args("1,2,3") == [1, 2, 3]
        assert _parse_host_args("1, 2.5, 0x10") == [1, 2.5, 16]

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_transpile_requires_kernel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transpile", "f.c"])


class TestCheck:
    def test_broken_kernel_exits_nonzero(self, kernel_file, capsys):
        code = main(["check", kernel_file, "--top", "smooth"])
        assert code == 1
        out = capsys.readouterr().out
        assert "long double" in out

    def test_json_output(self, kernel_file, capsys):
        main(["check", kernel_file, "--top", "smooth", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["type"] == "Unsupported Data Types"

    def test_clean_kernel_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.c"
        path.write_text("int kernel(int a[4]) { return a[0]; }")
        assert main(["check", str(path), "--top", "kernel"]) == 0
        assert "synthesizable" in capsys.readouterr().out


class TestFuzz:
    def test_fuzz_reports_coverage(self, kernel_file, capsys):
        code = main([
            "fuzz", kernel_file, "--kernel", "smooth", "--fuzz-execs", "200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "branch_coverage" in out

    def test_fuzz_json_includes_corpus(self, kernel_file, capsys):
        main([
            "fuzz", kernel_file, "--kernel", "smooth",
            "--fuzz-execs", "200", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["corpus"]
        assert payload["executions"] > 0


class TestTranspile:
    def test_end_to_end(self, kernel_file, capsys):
        code = main([
            "transpile", kernel_file, "--kernel", "smooth",
            "--fuzz-execs", "200", "--max-iterations", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "HLS compatible   : yes" in out
        assert "fpga_float<8,71>" in out

    def test_diff_mode(self, kernel_file, capsys):
        main([
            "transpile", kernel_file, "--kernel", "smooth",
            "--fuzz-execs", "200", "--max-iterations", "50", "--diff",
        ])
        out = capsys.readouterr().out
        assert "---" in out and "+++" in out
        assert "-    long double acc = 0.0;" in out

    def test_json_payload_complete(self, kernel_file, capsys):
        main([
            "transpile", kernel_file, "--kernel", "smooth",
            "--fuzz-execs", "200", "--max-iterations", "50", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["hls_compatible"] is True
        assert payload["behavior_preserved"] is True
        assert payload["applied_edits"]
        assert "final_source" in payload


class TestSubjects:
    def test_list_subjects(self, capsys):
        assert main(["subjects"]) == 0
        out = capsys.readouterr().out
        assert "P1" in out and "P10" in out

    def test_list_subjects_json(self, capsys):
        main(["subjects", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 10


class TestStudy:
    def test_study_render(self, capsys):
        assert main(["study", "--posts", "100"]) == 0
        out = capsys.readouterr().out
        assert "Unsupported Data Types" in out

    def test_study_json(self, capsys):
        main(["study", "--posts", "100", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 100
        assert payload["accuracy"] > 0.9


class TestRefusals:
    """A pipeline verb handed bad input refuses with one line on stderr,
    ``repro <verb>: <error>``, and exit status 1 — never a traceback."""

    def _refused(self, capsys, argv, verb, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"repro {verb}: ")
        assert message in captured.err

    def test_transpile_refuses_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("int k(int a) { return a +; }\n")
        self._refused(capsys, ["transpile", str(path), "--kernel", "k"],
                      "transpile", "unexpected token ';'")

    def test_check_refuses_a_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nofile.c")
        self._refused(capsys, ["check", missing, "--top", "k"],
                      "check", "No such file")

    def test_fuzz_refuses_an_unknown_kernel(self, kernel_file, capsys):
        self._refused(capsys, ["fuzz", kernel_file, "--kernel", "nope"],
                      "fuzz", "no kernel function named 'nope'")

    def test_transpile_refuses_host_args_that_are_no_numbers(
            self, kernel_file, capsys):
        self._refused(capsys, ["transpile", kernel_file, "--kernel", "smooth",
                               "--host", "main", "--host-args", "1,abc"],
                      "transpile", "--host-args item 'abc' is not a number")

    def test_fuzz_refuses_host_args_that_are_no_numbers(
            self, kernel_file, capsys):
        self._refused(capsys, ["fuzz", kernel_file, "--kernel", "smooth",
                               "--host", "main", "--host-args", "abc"],
                      "fuzz", "--host-args item 'abc' is not a number")

    def test_transpile_refuses_a_store_that_is_no_database(
            self, kernel_file, tmp_path, capsys):
        store = tmp_path / "notdb.sqlite"
        store.write_text("not a database " * 100)
        self._refused(capsys, ["transpile", kernel_file, "--kernel",
                               "smooth", "--store", str(store),
                               "--fuzz-execs", "20"],
                      "transpile", "file is not a database")
