import os
from pathlib import Path

import pytest
from mpmath import mpc

# Persistent table cache beside the repo so repeated runs skip the expensive
# contour extraction.  Its committed entries are what keeps the suite warm;
# test_zeta.py::test_committed_cache_is_live checks that each still loads.
os.environ.setdefault(
    "ZETALINE_CACHE_DIR", str(Path(__file__).resolve().parent.parent / ".zetaline_cache")
)


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty table cache, with the in-process table cache cleared."""
    from zetaline import zeta

    monkeypatch.setenv("ZETALINE_CACHE_DIR", str(tmp_path))
    zeta._stieltjes_cached.cache_clear()
    yield tmp_path
    zeta._stieltjes_cached.cache_clear()


@pytest.fixture
def noise_zeta(monkeypatch):
    """zeta on every contour replaced by values no node count can converge."""
    from zetaline import zeta

    noise = iter(range(1, 10**6))
    monkeypatch.setattr(zeta, "_zeta_em_raw", lambda s, wp: mpc(next(noise) % 7))
