"""Shared fixtures."""

import pytest

from qtrap import oracle, spectral


@pytest.fixture
def cold_memo():
    """Empty basis-data memos on entry and again on exit, so a test sees its
    own builds and leaves none (built under patched tolerances, say) behind."""
    builders = (spectral._zero_table, spectral._bessel_grid, spectral._moment_tables,
                oracle._zero_table)
    for builder in builders:
        builder.cache_clear()
    yield
    for builder in builders:
        builder.cache_clear()
