import os
from pathlib import Path

import pytest

# Persistent table cache beside the repo so repeated runs skip the Stieltjes
# computations.  Its committed entries are what keeps the suite warm;
# test_zeta.py::test_committed_cache_is_live checks that each still loads,
# and ::test_committed_cache_is_a_cold_computation that each is what a cold
# run writes.
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
