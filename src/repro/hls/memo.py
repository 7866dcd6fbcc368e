"""The memo tables of :mod:`repro.memo`, under their HLS-package import path."""

from ..memo import (  # noqa: F401
    DEFAULT_MAX_ENTRIES,
    AnalysisCache,
    analysis_cache_stats,
    clear_analysis_caches,
)
