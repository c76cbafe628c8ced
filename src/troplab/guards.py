"""Resource-guard registry.

Every potentially explosive computation checks one of these caps and
raises GuardExceeded past it.  The CLI exposes them as --max-* flags;
library callers can pass explicit per-call limits where the operation
accepts one (produced sets) or adjust the registry.
"""

PRODUCED_VECTORS = 10**6   # vectors per produced set
DENSE_GROUND = 24          # ground-set size for denseness checks
SIDON_VECTORS = 128        # vectors for the Sidon pair-sum scan
MATCHINGS = 10**5          # perfect matchings per hypergraph family
TABLE_VARIABLES = 20       # truth-table arity
FIELD_ORDER = 1 << 16      # elements per finite field


def set_guard(name: str, value: int):
    globals()[name] = value
