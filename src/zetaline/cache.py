"""On-disk cache for the expensive coefficient tables.

Each mpf is stored exactly, as its signed mantissa in a hex string and an
integer exponent, so a cache hit is the cold computation bit for bit.  Hex
keeps the mantissa a plain string whatever mpmath's integer backend is, and
has no limit on its length.  Writes are atomic (temp file + rename).  The
key, ``stieltjes_k{K}_d{D}``, does not carry the schema version; each entry
records its schema version and digits.  An entry is validated on load, not
trusted: a mismatch of either, or a malformed entry, is reported as stale and
recomputed.  A directory that
cannot be read or written never fails a computation: a load from it misses
and a store to it is skipped, each with a one-line stderr notice.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from operator import index
from pathlib import Path

from mpmath import mp
from mpmath.libmp import from_man_exp

SCHEMA_VERSION = 2
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
    list of [hex mantissa, integer exponent] pairs, or records another schema
    or digits counts as stale: it is ignored (the caller recomputes) and a
    one-line notice goes to stderr.
    """
    path = _path(key)
    try:
        if not path.exists():
            return None
        payload = json.loads(path.read_text())
        values = payload["values"]
        if (payload["schema_version"] == SCHEMA_VERSION and payload["digits"] == digits
                and isinstance(values, list)):
            return [mp.make_mpf(from_man_exp(int(man, 16), index(exp))) for man, exp in values]
    except (OSError, ValueError, TypeError, KeyError):
        pass
    report_stale(key)
    return None


def store_values(key: str, digits: int, values) -> None:
    """Store the mpf list ``values`` under ``key``, each as [hex mantissa, exponent].

    A store that fails is skipped with a one-line stderr notice.
    """
    path = _path(key)
    tmp = None
    try:
        # mpf.man_exp drops the sign, so read it off the raw (sign, man, exp, bc);
        # int() turns a gmpy mantissa into a plain one
        exact = [[format(-int(man) if sign else int(man), "x"), int(exp)]
                 for sign, man, exp, _ in (v._mpf_ for v in values)]
        payload = {"schema_version": SCHEMA_VERSION, "digits": digits, "values": exact}
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except (OSError, ValueError, TypeError) as e:
        reason = e.strerror if isinstance(e, OSError) else e
        sys.stderr.write(f"zetaline cache: cannot store {key} in {path.parent} ({reason})\n")
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
