"""Resource limits, private to each thread and asyncio task.

Every potentially explosive computation reads one field of `current()`
and raises GuardExceeded past it; `limits(**changes)` replaces fields
for one `with` block in the calling context only.
"""

import dataclasses
from contextlib import contextmanager
from contextvars import ContextVar


@dataclasses.dataclass(frozen=True)
class Limits:
    produced_vectors: int = 10**6   # vectors per produced set
    dense_ground: int = 24          # ground-set size for denseness checks
    sidon_vectors: int = 128        # vectors for the Sidon pair-sum scan
    matchings: int = 10**5          # perfect matchings per hypergraph family
    table_variables: int = 20       # truth-table arity
    field_order: int = 1 << 16      # elements per finite field


_current = ContextVar("troplab_limits", default=Limits())


def current() -> Limits:
    """The limits in force in the calling context."""
    return _current.get()


@contextmanager
def limits(**changes):
    """Replace some limits for a block; an unknown name raises TypeError."""
    token = _current.set(dataclasses.replace(_current.get(), **changes))
    try:
        yield _current.get()
    finally:
        _current.reset(token)
