import os
import tempfile

import pytest

# A throwaway table cache for each pytest run, removed at exit, so that the
# suite never writes into the repository or ~/.cache.  A table builds in well
# under a second, so every run starts cold; entries are exact, so a test that
# reloads one sees the cold table.
_RUN_CACHE = tempfile.TemporaryDirectory(prefix="zetaline-cache-")
os.environ["ZETALINE_CACHE_DIR"] = _RUN_CACHE.name


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty table cache, with the in-process table cache cleared."""
    from zetaline import zeta

    monkeypatch.setenv("ZETALINE_CACHE_DIR", str(tmp_path))
    zeta._stieltjes_cached.cache_clear()
    yield tmp_path
    zeta._stieltjes_cached.cache_clear()
