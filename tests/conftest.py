import pytest

from ccdrobust import linalg


@pytest.fixture
def invert_calls(monkeypatch):
    """Counts linalg.invert calls; the count is calls[0]."""
    calls = [0]
    real = linalg.invert

    def counting(M):
        calls[0] += 1
        return real(M)

    monkeypatch.setattr(linalg, "invert", counting)
    return calls
