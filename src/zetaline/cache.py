"""On-disk cache for the expensive coefficient tables.

Values are serialized as decimal strings with 25 digits beyond ``digits``,
so a cache hit agrees with a cold computation to 10^-(digits+24) relative,
far below any printed digit.  Writes are
atomic (temp file + rename).  The key, ``stieltjes_k{K}_d{D}``, does not
carry the schema version; each entry records its schema version and digits.
An entry is validated on load, not trusted: a mismatch of either, or a
malformed entry, is reported as stale and recomputed.  A directory that
cannot be read or written never fails a computation: a load from it misses
and a store to it is skipped, each with a one-line stderr notice.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from mpmath import mpf, workdps

SCHEMA_VERSION = 1
ENV_VAR = "ZETALINE_CACHE_DIR"


def cache_dir() -> Path:
    """$ZETALINE_CACHE_DIR, else ~/.cache/zetaline; made on the first store."""
    root = os.environ.get(ENV_VAR)
    return Path(root) if root else Path.home() / ".cache" / "zetaline"


def _path(key: str) -> Path:
    return cache_dir() / f"{key}.json"


def report_stale(key: str) -> None:
    """One-line stderr notice that the entry ``key`` is ignored and recomputed."""
    sys.stderr.write(f"zetaline cache: stale entry {key}, recomputing\n")


def load_values(key: str, digits: int) -> list | None:
    """Return the cached mpf list for ``key``, or None on miss.

    An entry that does not parse, lacks a field, holds values that are not a
    list of numbers, or records another schema or digits counts as stale:
    it is ignored (the caller recomputes) and a one-line notice goes to
    stderr.
    """
    path = _path(key)
    try:
        if not path.exists():
            return None
        payload = json.loads(path.read_text())
        values = payload["values"]
        if (payload["schema_version"] == SCHEMA_VERSION and payload["digits"] == digits
                and isinstance(values, list)):
            with workdps(digits + 35):
                return [mpf(v) for v in values]
    except (OSError, ValueError, TypeError, KeyError):
        pass
    report_stale(key)
    return None


def store_values(key: str, digits: int, values) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "digits": digits,
        "values": [],
    }
    # guard digits keep a reloaded value from ever flipping a displayed digit
    with workdps(digits + 35):
        from mpmath import nstr

        payload["values"] = [nstr(mpf(v), digits + 25) for v in values]
    path = _path(key)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError as e:
        sys.stderr.write(f"zetaline cache: cannot store {key} in {path.parent} ({e.strerror})\n")
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
