import functools

import pytest

from ccdrobust import criteria, design, linalg


@pytest.fixture
def invert_calls(monkeypatch):
    """Counts the matrices linalg.invert factorizes, one per matrix of each
    stack it is given; the count is calls[0]."""
    calls = [0]
    real = linalg.invert

    def counting(M):
        calls[0] += len(M) if M.ndim == 3 else 1
        return real(M)

    monkeypatch.setattr(linalg, "invert", counting)
    return calls


@pytest.fixture
def grid_cache(monkeypatch):
    """An empty G-grid domain cache for the test; the process's own cache is
    restored after it."""
    monkeypatch.setattr(criteria, "_grid_cache", {})
    return criteria._grid_cache


@pytest.fixture
def ccd_templates(monkeypatch):
    """An empty cache, for the test, of the alpha = 1 designs gen_ccd scales
    (design._unit_ccd).  Returns the fresh _unit_ccd, whose cache_info
    counts the designs built; the process's own cache is restored after the
    test."""
    fresh = functools.lru_cache(maxsize=design._TEMPLATES)(design._unit_ccd.__wrapped__)
    monkeypatch.setattr(design, "_unit_ccd", fresh)
    return fresh
