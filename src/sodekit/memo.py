"""One process-wide memo for the engine's pure functions.

Each looks its result up with `get` by a structural key (a tuple whose first
entry names the function) and stores what it computed with `put`.  Stored
values are immutable or copied on the way out.  At most `MAX_ENTRIES` are
kept, the oldest dropped first.  Reads take no lock (a dict lookup is
atomic); writes do, so threads can share the memo.
"""

from __future__ import annotations

import threading

MAX_ENTRIES = 1 << 16

_table: dict = {}
_lock = threading.Lock()

get = _table.get  # the value stored under a key, or None


def put(key, value):
    """Store value under key unless another thread stored one first, and
    return what is stored."""
    with _lock:
        value = _table.setdefault(key, value)
        if len(_table) > MAX_ENTRIES:
            del _table[next(iter(_table))]
    return value


def clear():
    with _lock:
        _table.clear()
