"""One process-wide memo for the engine: results and interned nodes.

A pure function looks its result up with `get` under a key tuple whose first
entry names the function, and stores what it computed with `put`.  An
expression node is stored under its intern key, a small integer type tag
and the node's children (see `expressions.Expr`), so equal trees built apart
are one object.  Stored values are immutable or copied on the way out.  At
most `MAX_ENTRIES` are kept, the oldest dropped first; a dropped node stays
equal to a rebuilt one.  Reads take no lock (a dict lookup is atomic);
writes do, and `put` returns what is stored, so threads sharing the memo
agree on one result and one node per key.
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
