"""Fan-in-2 circuit IR over the five semiring views.

One DAG type carries all semantics: a node list in topological order
(inputs hold a variable index or a nonnegative rational constant, gates
are Add/Mul over two earlier nodes), a designated output, and a semiring
tag in {minplus, maxplus, boolean, arithmetic, minkowski}.  The tag only
selects how Add/Mul are *read*: min/+ or max/+, or/and, +/*, or
union/Minkowski-sum on vector sets.  The set of exponent vectors a
circuit produces is tag-independent and is the object most analyses
work on.

Produced sets are computed on packed ints (Kronecker substitution): a
vector v becomes the sum of v[i] << (w * i), where 2**w exceeds the
formal degree of every node, so no digit ever carries.  A union gate
is then a set union and a sum gate a set of int additions; vectors are
unpacked into tuples only when a produced set is returned.

produced_set keeps a gate's set only until the last gate that reads it
has run, so its memory follows the sets still to be read, not the whole
DP table; produced_node_sets keeps every node's set.  The
produced_vectors guard bounds each gate's set, not the total of the
sets alive at once.

produced_set caches the output's set on the circuit, next to the final
set size of every Add/Mul gate in node order.  A cache hit runs the
guard again on those sizes, so a later, lower produced_vectors limit
raises at the same gate with the same message as a fresh computation:
a gate's set only grows while it is built, so the first gate whose
final size is over the cap is the gate that raises.  A computation
that raises caches nothing.  Two threads may fill the cache of one
circuit at the same time; as with the cached evaluation program, both
compute the same value on an immutable circuit, so the race is benign.
The same holds for the support masks and the mask index a VectorSet
fills on first use: each is built whole and then stored, so a thread
reads either none or a complete one.

Size conventions follow the usual one for monotone circuits: the size
of a circuit is its number of Add/Mul gates; input nodes are free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress

from . import guards
from .errors import DegenerateCircuit, GuardExceeded, UsageError
from .rationals import clear_denominators, format_rational, parse_rational

MINPLUS = "minplus"
MAXPLUS = "maxplus"
BOOLEAN = "boolean"
ARITHMETIC = "arithmetic"
MINKOWSKI = "minkowski"

SEMIRINGS = (MINPLUS, MAXPLUS, BOOLEAN, ARITHMETIC, MINKOWSKI)
TROPICAL = (MINPLUS, MAXPLUS)

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Var:
    index: int  # 1-based variable index


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Add:
    left: str
    right: str


@dataclass(frozen=True)
class Mul:
    left: str
    right: str


class VectorSet:
    """Deduplicated finite set of equal-length nonnegative integer vectors.

    `masks` maps each vector to its support bitmask (see support), in
    sorted vector order.  It is filled on first use, and iteration,
    sorted_vectors() and supports() read it, so a set is sorted and its
    supports are computed once however often it is used.  The mask
    index, also filled on first use, maps each support bitmask to its
    vectors in sorted order: with_support(mask) is one lookup, so a
    support-matching (tight) filter does not scan the set.  Equality
    and hashing read only n and the vectors.
    """

    __slots__ = ("n", "vectors", "_masks", "_index")

    def __init__(self, n: int, vectors):
        vecs = set()
        for v in map(tuple, vectors):
            try:
                ints = tuple(map(int, v))
            except (TypeError, ValueError, OverflowError):  # None, nan, inf
                ints = None
            if ints != v:
                raise UsageError(f"vector {v} has a non-integer entry")
            if len(ints) != n:
                raise UsageError(f"vector {ints} has arity {len(ints)}, expected {n}")
            if any(c < 0 for c in ints):
                raise UsageError(f"vector {ints} has a negative entry")
            vecs.add(ints)
        self.n = n
        self.vectors = frozenset(vecs)
        self._masks = None
        self._index = None

    @classmethod
    def _of_checked(cls, n: int, vectors: frozenset) -> "VectorSet":
        """Wrap distinct tuples of n nonnegative ints without re-checking them."""
        vs = object.__new__(cls)
        vs.n = n
        vs.vectors = vectors
        vs._masks = None
        vs._index = None
        return vs

    @property
    def masks(self) -> dict:
        if self._masks is None:
            bits = _bit_table(self.n)
            self._masks = {v: sum(compress(bits, v)) for v in sorted(self.vectors)}
        return self._masks

    def with_support(self, mask: int) -> tuple:
        """The vectors whose support bitmask is mask, in sorted order."""
        if self._index is None:
            index = {}
            for v, m in self.masks.items():
                index.setdefault(m, []).append(v)
            self._index = {m: tuple(vs) for m, vs in index.items()}
        return self._index.get(mask, ())

    def sorted_vectors(self):
        return list(self.masks)

    def supports(self):
        """The set of support bitmasks of the vectors (see support)."""
        return set(self.masks.values())

    def is_zero_one(self) -> bool:
        return all(c <= 1 for v in self.vectors for c in v)

    def __iter__(self):
        return iter(self.masks)

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, v):
        return tuple(v) in self.vectors

    def __eq__(self, other):
        return (
            isinstance(other, VectorSet)
            and self.n == other.n
            and self.vectors == other.vectors
        )

    def __hash__(self):
        return hash((self.n, self.vectors))

    def __repr__(self):
        return f"VectorSet(n={self.n}, {self.sorted_vectors()})"


@lru_cache(maxsize=64)
def _bit_table(n: int) -> tuple:
    """The support bit of each of n coordinates: bit i for coordinate i."""
    return tuple(1 << i for i in range(n))


def support(v) -> int:
    """supp(v) as a bitmask: bit i is set iff v[i] != 0.

    Bit i stands for coordinate i, which is ground element i+1, so these
    masks use the same encoding as SetFamily.masks.  VectorSet.masks
    computes the same sum with one bit table for the whole set.
    """
    return sum(compress(_bit_table(len(v)), v))


class Circuit:
    """Immutable circuit; construction is permissive, operations validate."""

    __slots__ = ("semiring", "n", "nodes", "output", "_by_id", "_violations",
                 "_program", "_produced")

    def __init__(self, semiring: str, n: int, nodes, output: str):
        self.semiring = semiring
        self.n = n
        self.nodes = tuple((str(nid), node) for nid, node in nodes)
        self.output = str(output)
        self._by_id = dict(self.nodes)
        self._violations = None
        self._program = None
        self._produced = None

    def node(self, nid: str):
        return self._by_id[nid]

    @property
    def gate_count(self) -> int:
        return sum(1 for _, node in self.nodes if isinstance(node, (Add, Mul)))

    @property
    def is_constant_free(self) -> bool:
        return not any(isinstance(node, Const) for _, node in self.nodes)

    def violations(self):
        if self._violations is None:
            self._violations = validate(self)
        return self._violations

    def require_valid(self):
        problems = self.violations()
        if problems:
            raise UsageError("invalid circuit: " + "; ".join(problems))

    def with_semiring(self, semiring: str) -> "Circuit":
        return Circuit(semiring, self.n, self.nodes, self.output)

    def __repr__(self):
        return f"Circuit({self.semiring}, vars={self.n}, gates={self.gate_count})"


def validate(c: Circuit):
    """Return the list of structural violations (empty iff well formed)."""
    problems = []
    if c.semiring not in SEMIRINGS:
        problems.append(f"unknown semiring tag {c.semiring!r}")
    if c.n < 0:
        problems.append(f"negative variable count {c.n}")
    seen = set()
    for nid, node in c.nodes:
        if not _ID_RE.match(nid):
            problems.append(f"bad node id {nid!r}")
        if nid in seen:
            problems.append(f"duplicate node id {nid}")
        seen.add(nid)
        if isinstance(node, Var):
            if not 1 <= node.index <= c.n:
                problems.append(f"variable index {node.index} out of range at {nid}")
        elif isinstance(node, Const):
            if node.value < 0:
                problems.append(f"negative constant at {nid}")
            if c.semiring == BOOLEAN and node.value not in (0, 1):
                problems.append("constant outside {0,1}" + f" at {nid}")
        elif isinstance(node, (Add, Mul)):
            for child in (node.left, node.right):
                if child not in seen:
                    problems.append(f"unknown node {child}")
        else:
            problems.append(f"unknown node kind {type(node).__name__} at {nid}")
    if c.output not in seen:
        problems.append(f"unknown output node {c.output}")
    return problems


# ---------------------------------------------------------------------------
# Evaluation


def _check_weights(c: Circuit, x):
    if len(x) != c.n:
        raise UsageError(f"weighting has arity {len(x)}, circuit expects {c.n}")
    if c.semiring == BOOLEAN:
        if any(v not in (0, 1) for v in x):
            raise UsageError("boolean evaluation needs 0/1 weights")
    elif any(getattr(v, "numerator", v) < 0 for v in x):
        # a rational's sign is its numerator's; floats compare as they are
        raise UsageError("negative weight")


_OP_LEAF, _OP_ADD, _OP_MUL = range(3)


def _program(c: Circuit):
    """Positional form of the node list, cached on the circuit.

    Returns (ops, output position, constants).  Each op is (kind, a, b):
    a gate reads the values at positions a and b, and a leaf reads
    entry a of the weights followed by the constants, so variable i is
    entry i - 1 and the j-th constant node (from 0) is entry n + j.
    """
    if c._program is None:
        pos = {}
        prog = []
        consts = []
        for i, (nid, node) in enumerate(c.nodes):
            pos[nid] = i
            if isinstance(node, Var):
                prog.append((_OP_LEAF, node.index - 1, 0))
            elif isinstance(node, Const):
                prog.append((_OP_LEAF, c.n + len(consts), 0))
                consts.append(node.value)
            elif isinstance(node, Add):
                prog.append((_OP_ADD, pos[node.left], pos[node.right]))
            else:
                prog.append((_OP_MUL, pos[node.left], pos[node.right]))
        c._program = (prog, pos[c.output], tuple(consts))
    return c._program


def evaluate(c: Circuit, x):
    """Value of the circuit's polynomial at the weighting x.

    Returns a Fraction for the tropical and arithmetic views and an int
    in {0,1} for the boolean view.  Tropical evaluation clears the
    denominators of the weights and the constants together and runs on
    ints: min, max and + commute with scaling by one positive number,
    so dividing the int result by that scale is exact.
    """
    c.require_valid()
    if c.semiring == MINKOWSKI:
        raise UsageError("minkowski circuits are evaluated via produced_set")
    _check_weights(c, x)
    prog, out, consts = _program(c)
    values = [0] * len(prog)

    if c.semiring == BOOLEAN:
        leaves = [*map(int, x), *map(int, consts)]
        for i, (op, a, b) in enumerate(prog):
            if op == _OP_LEAF:
                values[i] = leaves[a]
            elif op == _OP_ADD:
                values[i] = values[a] | values[b]
            else:
                values[i] = values[a] & values[b]
        return values[out]

    if c.semiring == ARITHMETIC:
        leaves = [*map(Fraction, x), *consts]
        for i, (op, a, b) in enumerate(prog):
            if op == _OP_LEAF:
                values[i] = leaves[a]
            elif op == _OP_ADD:
                values[i] = values[a] + values[b]
            else:
                values[i] = values[a] * values[b]
        return values[out]

    leaves, scale = clear_denominators([*x, *consts])
    use_min = c.semiring == MINPLUS
    for i, (op, a, b) in enumerate(prog):
        if op == _OP_LEAF:
            values[i] = leaves[a]
        elif op == _OP_ADD:
            va, vb = values[a], values[b]
            if use_min:
                values[i] = va if va <= vb else vb
            else:
                values[i] = va if va >= vb else vb
        else:
            values[i] = values[a] + values[b]
    return Fraction(values[out], scale)


# ---------------------------------------------------------------------------
# Produced sets


def _check_cap(size, cap, gate):
    if size > cap:
        raise GuardExceeded(f"produced set exceeds {cap} vectors at gate {gate}")


def _packed_node_sets(c: Circuit, keep):
    """Digit width, the packed sets of the nodes in keep, and gate sizes.

    A vector v is packed into the int sum of v[i] << (width * i).  No
    entry at a node exceeds the node's formal degree, and 2**width
    exceeds the largest degree of any node, reachable from the output or
    not, so digits never carry: a union gate is a set union and a sum
    gate adds ints.

    Every node is computed and guarded in node order.  A node's set is
    dropped once the last gate that reads it has run, or at once if no
    gate reads it, unless the node is in keep; so the sets alive at any
    time are those still to be read and those kept.  The sizes are
    (node id, final set size) of every Add/Mul gate in node order.
    """
    c.require_valid()
    cap = guards.current().produced_vectors
    width = max(_node_degrees(c).values()).bit_length()
    last_reader = {}
    for nid, node in c.nodes:
        last_reader[nid] = nid  # a node no gate reads is its own last reader
        if isinstance(node, (Add, Mul)):
            last_reader[node.left] = last_reader[node.right] = nid
    drop = {}
    for nid, reader in last_reader.items():
        if nid not in keep:
            drop.setdefault(reader, []).append(nid)
    sets = {}
    sizes = []
    for nid, node in c.nodes:
        if isinstance(node, Var):
            sets[nid] = {1 << width * (node.index - 1)}
        elif isinstance(node, Const):
            sets[nid] = {0}
        elif isinstance(node, Add):
            out = sets[nid] = sets[node.left] | sets[node.right]
            _check_cap(len(out), cap, nid)
            sizes.append((nid, len(out)))
        else:
            left, right = sets[node.left], sets[node.right]
            if len(left) > len(right):
                left, right = right, left
            out = sets[nid] = set()
            for u in left:
                out.update(map(u.__add__, right))
                _check_cap(len(out), cap, nid)
            sizes.append((nid, len(out)))
        for dead in drop.get(nid, ()):
            del sets[dead]
    return width, sets, tuple(sizes)


def _unpack(packed, n: int, width: int):
    """The vectors of a set of packed ints."""
    mask = (1 << width) - 1
    shifts = range(0, n * width, width)
    return [tuple(p >> s & mask for s in shifts) for p in packed]


def produced_node_sets(c: Circuit):
    """Set of produced vectors at every node, keyed by node id."""
    width, sets, _ = _packed_node_sets(c, c._by_id)
    return {nid: frozenset(_unpack(packed, c.n, width))
            for nid, packed in sets.items()}


def produced_set(c: Circuit) -> VectorSet:
    """Vectors produced at the output node (tag-independent).

    Cached on the circuit with every gate's final set size; a cache hit
    checks those sizes against the limit in force (see the module
    docstring).
    """
    cached = c._produced
    if cached is None:
        width, sets, sizes = _packed_node_sets(c, (c.output,))
        out = VectorSet._of_checked(c.n, frozenset(_unpack(sets[c.output], c.n, width)))
        cached = c._produced = (out, sizes)
    else:
        cap = guards.current().produced_vectors
        for nid, size in cached[1]:
            _check_cap(size, cap, nid)
    return cached[0]


# ---------------------------------------------------------------------------
# Conversions


def convert(c: Circuit, target: str) -> Circuit:
    """Retag the circuit; same DAG, same produced set, same gate count."""
    c.require_valid()
    if target not in SEMIRINGS:
        raise UsageError(f"unknown semiring tag {target!r}")
    if target == BOOLEAN:
        for nid, node in c.nodes:
            if isinstance(node, Const) and node.value not in (0, 1):
                raise UsageError(
                    f"constant {format_rational(node.value)} at {nid} "
                    "not representable in the boolean view"
                )
    return c.with_semiring(target)


def strip_constants(c: Circuit) -> Circuit:
    """Constant-free core of a tropical circuit.

    Constants are first replaced by 0, then zeros are eliminated with
    u+0 -> u, max(u,0) -> u, min(u,0) -> 0.  Raises DegenerateCircuit if
    the output itself collapses to the constant 0 (such a circuit
    cannot approximate any problem with nonempty feasible solutions).
    """
    c.require_valid()
    if c.semiring not in TROPICAL:
        raise UsageError("strip_constants applies to minplus/maxplus circuits")
    if c.is_constant_free:
        return c

    ZERO = object()
    mapped = {}
    for nid, node in c.nodes:
        if isinstance(node, Var):
            mapped[nid] = nid
        elif isinstance(node, Const):
            mapped[nid] = ZERO
        elif isinstance(node, Mul):
            left, right = mapped[node.left], mapped[node.right]
            if left is ZERO and right is ZERO:
                mapped[nid] = ZERO
            elif left is ZERO:
                mapped[nid] = right
            elif right is ZERO:
                mapped[nid] = left
            else:
                mapped[nid] = nid
        else:  # Add: min or max with 0
            left, right = mapped[node.left], mapped[node.right]
            if c.semiring == MINPLUS:
                if left is ZERO or right is ZERO:
                    mapped[nid] = ZERO
                else:
                    mapped[nid] = nid
            else:
                if left is ZERO and right is ZERO:
                    mapped[nid] = ZERO
                elif left is ZERO:
                    mapped[nid] = right
                elif right is ZERO:
                    mapped[nid] = left
                else:
                    mapped[nid] = nid

    if mapped[c.output] is ZERO:
        raise DegenerateCircuit("circuit collapses to the constant 0")

    # Rebuild surviving nodes; a node survives when some output-reachable
    # node maps onto it.
    surviving = {}
    for nid, node in c.nodes:
        if mapped[nid] is not nid:
            continue
        if isinstance(node, (Add, Mul)):
            kind = type(node)
            surviving[nid] = kind(mapped[node.left], mapped[node.right])
        else:
            surviving[nid] = node

    root = mapped[c.output]
    needed = set()
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid in needed:
            continue
        needed.add(nid)
        node = surviving[nid]
        if isinstance(node, (Add, Mul)):
            stack.extend((node.left, node.right))

    nodes = [(nid, surviving[nid]) for nid, _ in c.nodes if nid in needed]
    return Circuit(c.semiring, c.n, nodes, root)


def _node_degrees(c: Circuit) -> dict:
    """Formal degree of every node: inputs 1, Add = max of children, Mul = sum."""
    deg = {}
    for nid, node in c.nodes:
        if isinstance(node, (Var, Const)):
            deg[nid] = 1
        elif isinstance(node, Add):
            deg[nid] = max(deg[node.left], deg[node.right])
        else:
            deg[nid] = deg[node.left] + deg[node.right]
    return deg


def syntactic_degree(c: Circuit) -> int:
    """Formal degree of the output: inputs 1, Add = max of children, Mul = sum."""
    c.require_valid()
    return _node_degrees(c)[c.output]


# ---------------------------------------------------------------------------
# Text format


def serialize_circuit(c: Circuit) -> str:
    lines = [f"circuit {c.semiring} vars={c.n}"]
    for nid, node in c.nodes:
        if isinstance(node, Var):
            lines.append(f"{nid} = var {node.index}")
        elif isinstance(node, Const):
            lines.append(f"{nid} = const {format_rational(node.value)}")
        elif isinstance(node, Add):
            lines.append(f"{nid} = add {node.left} {node.right}")
        else:
            lines.append(f"{nid} = mul {node.left} {node.right}")
    lines.append(f"output {c.output}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str, require_valid: bool = True) -> Circuit:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise UsageError("empty circuit file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "circuit" or not head[2].startswith("vars="):
        raise UsageError(f"bad circuit header {lines[0]!r}")
    semiring = head[1]
    if semiring not in SEMIRINGS:
        raise UsageError(f"unknown semiring tag {semiring!r}")
    try:
        n = int(head[2][5:])
    except ValueError as exc:
        raise UsageError(f"bad variable count in {lines[0]!r}") from exc
    if not lines[-1].startswith("output"):
        raise UsageError("missing output line")
    out_parts = lines[-1].split()
    if len(out_parts) != 2:
        raise UsageError(f"bad output line {lines[-1]!r}")
    output = out_parts[1]

    nodes = []
    for line in lines[1:-1]:
        try:
            nid, rhs = (part.strip() for part in line.split("=", 1))
        except ValueError as exc:
            raise UsageError(f"bad node line {line!r}") from exc
        parts = rhs.split()
        if parts[0] == "var" and len(parts) == 2:
            nodes.append((nid, Var(int(parts[1]))))
        elif parts[0] == "const" and len(parts) == 2:
            nodes.append((nid, Const(parse_rational(parts[1]))))
        elif parts[0] == "add" and len(parts) == 3:
            nodes.append((nid, Add(parts[1], parts[2])))
        elif parts[0] == "mul" and len(parts) == 3:
            nodes.append((nid, Mul(parts[1], parts[2])))
        else:
            raise UsageError(f"bad node line {line!r}")
    circuit = Circuit(semiring, n, nodes, output)
    if require_valid:
        circuit.require_valid()
    return circuit
