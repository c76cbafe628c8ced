"""Circuit IR: validation, evaluation, produced sets, conversions."""

import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (
    random_monotone_boolean_circuit,
    random_tropical_circuit,
    tropical_value_oracle,
)
from troplab import circuits, guards
from troplab.builders import bellman_ford_circuit
from troplab.circuits import (
    ARITHMETIC,
    BOOLEAN,
    MAXPLUS,
    MINKOWSKI,
    MINPLUS,
    Add,
    Circuit,
    Const,
    Mul,
    Var,
    VectorSet,
    convert,
    evaluate,
    parse_circuit,
    produced_node_sets,
    produced_set,
    serialize_circuit,
    strip_constants,
    syntactic_degree,
    validate,
)
from troplab.errors import DegenerateCircuit, GuardExceeded, UsageError


def _c(semiring, n, nodes, out):
    return Circuit(semiring, n, nodes, out)


def min_x12_x3():
    return _c(MINPLUS, 3, [
        ("v1", Var(1)), ("v2", Var(2)), ("v3", Var(3)),
        ("g1", Mul("v1", "v2")), ("g2", Add("g1", "v3")),
    ], "g2")


def test_validate_well_formed():
    assert validate(min_x12_x3()) == []


def test_validate_unknown_node():
    bad = _c(MINPLUS, 1, [("v1", Var(1)), ("g1", Add("v1", "g7"))], "g1")
    assert any("unknown node g7" in v for v in validate(bad))


def test_validate_boolean_constant_range():
    bad = _c(BOOLEAN, 1, [("v1", Var(1)), ("k", Const(Fraction(3)))], "v1")
    assert any("constant outside {0,1}" in v for v in validate(bad))


def test_vector_set_rejects_non_integer_entries():
    for bad in ([(Fraction(3, 2), 0), (2.7, 1)], [(1, 0), (2.7, 1)],
                [(float("nan"), 0)], [(float("inf"), 0)], [(None, 0)]):
        with pytest.raises(UsageError, match="non-integer entry"):
            VectorSet(2, bad)
    vs = VectorSet(2, [(Fraction(2), 0), (2, 0), (0, Fraction(6, 2))])
    assert vs.sorted_vectors() == [(0, 3), (2, 0)]
    assert all(type(c) is int for v in vs for c in v)


def test_vector_set_masks_are_sorted_and_ignored_by_equality(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        raw = {tuple(rng.randint(0, 2) for _ in range(n))
               for _ in range(rng.randint(0, 12))}
        want = sorted(raw)
        want_masks = [sum(1 << i for i, c in enumerate(v) if c) for v in want]
        cold = VectorSet(n, raw)
        assert cold._masks is None
        for vs in (VectorSet(n, list(raw)), VectorSet._of_checked(n, frozenset(raw))):
            assert list(vs.masks) == want
            assert list(vs.masks.values()) == want_masks
            assert vs.sorted_vectors() == want and list(vs) == want
            assert vs.supports() == set(want_masks)
            vs.sorted_vectors().clear()  # a fresh list: the cache is untouched
            assert list(vs) == want
            assert vs == cold and hash(vs) == hash(cold)
        assert cold._masks is None


def test_vector_set_mask_index(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        raw = {tuple(rng.randint(0, 2) for _ in range(n))
               for _ in range(rng.randint(0, 12))}
        cold = VectorSet(n, raw)
        for vs in (VectorSet(n, list(raw)), VectorSet._of_checked(n, frozenset(raw))):
            assert vs._index is None
            vs.with_support(0)
            index = vs._index
            # every vector once, under its own mask, in sorted order
            listed = [v for vecs in index.values() for v in vecs]
            assert sorted(listed) == sorted(raw) and len(listed) == len(raw)
            for mask, vecs in index.items():
                assert list(vecs) == sorted(vecs)
                assert all(vs.masks[v] == mask for v in vecs)
                assert vs.with_support(mask) is vecs
            assert set(index) == vs.supports()
            absent = next(m for m in range(1 << n + 1) if m not in index)
            assert vs.with_support(absent) == ()
            assert vs == cold and hash(vs) == hash(cold)
        assert cold._index is None and cold._masks is None


def test_threads_filling_one_vector_set_see_the_same_masks():
    # more threads than cores, switching often, all filling the masks and
    # the mask index of one fresh set at once: each must read every
    # vector in sorted order
    want = sorted({(i % 5, i % 7, i % 3) for i in range(300)})
    full = tuple(v for v in want if all(v))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            vs = VectorSet(3, want)
            start = threading.Barrier(6, timeout=10)
            got = [None] * 6

            def read(i):
                start.wait()
                got[i] = (vs.with_support(0b111), vs.sorted_vectors(), list(vs),
                          vs.supports())

            threads = [threading.Thread(target=read, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == [(full, want, want, vs.supports())] * 6
    finally:
        sys.setswitchinterval(interval)


def test_evaluate_examples():
    c = min_x12_x3()
    assert evaluate(c, [1, 2, 10]) == 3
    # one-variable circuit min(x1, x1+x1): produced {(1),(2)}, value x1
    c2 = _c(MINPLUS, 1, [("v1", Var(1)), ("g1", Mul("v1", "v1")),
                         ("g2", Add("v1", "g1"))], "g2")
    assert produced_set(c2).sorted_vectors() == [(1,), (2,)]
    assert evaluate(c2, [5]) == 5
    assert evaluate(convert(c2, BOOLEAN), [1]) == 1


def test_evaluate_guards():
    c = min_x12_x3()
    with pytest.raises(UsageError):
        evaluate(c, [1, 2])
    with pytest.raises(UsageError):
        evaluate(c, [1, -1, 2])
    with pytest.raises(UsageError):
        evaluate(convert(c, MINKOWSKI), [1, 2, 3])


def test_evaluate_rational_weights_exact():
    c = min_x12_x3()
    x = [Fraction(1, 3), Fraction(1, 6), Fraction(2, 5)]
    assert evaluate(c, x) == min(x[0] + x[1], x[2])


def _fraction_value(c: Circuit, x) -> Fraction:
    """A tropical circuit's value, node by node in Fraction arithmetic."""
    opt = min if c.semiring == MINPLUS else max
    values = {}
    for nid, node in c.nodes:
        if isinstance(node, Var):
            values[nid] = Fraction(x[node.index - 1])
        elif isinstance(node, Const):
            values[nid] = node.value
        elif isinstance(node, Add):
            values[nid] = opt(values[node.left], values[node.right])
        else:
            values[nid] = values[node.left] + values[node.right]
    return values[c.output]


def test_evaluate_tropical_constants_match_fraction_reference():
    """Weights and constants are scaled together: int, Fraction and float
    weights against a node-by-node Fraction evaluation."""
    rng = random.Random(1212)
    draws = (
        lambda: rng.randint(0, 12),
        lambda: Fraction(rng.randint(0, 30), rng.randint(1, 7)),
        lambda: rng.randint(0, 40) / 10,  # 0.1 and the like convert exactly, over 2**k
    )
    for _ in range(80):
        c, _ = random_tropical_circuit(rng)
        assert not c.is_constant_free
        for draw in draws:
            for _ in range(5):
                x = [draw() for _ in range(c.n)]
                got = evaluate(c, x)
                assert type(got) is Fraction and got == _fraction_value(c, x)


def test_produced_set_examples():
    single = _c(MINPLUS, 3, [("v2", Var(2))], "v2")
    assert produced_set(single).sorted_vectors() == [(0, 1, 0)]
    c = _c(MAXPLUS, 2, [("v1", Var(1)), ("v2", Var(2)),
                        ("a", Add("v1", "v2")), ("m", Mul("v1", "a"))], "m")
    assert produced_set(c).sorted_vectors() == [(1, 1), (2, 0)]
    sel = _c(MAXPLUS, 2, [("v1", Var(1)), ("v2", Var(2)), ("a", Add("v1", "v2"))], "a")
    assert produced_set(sel).sorted_vectors() == [(0, 1), (1, 0)]


def test_produced_set_guard_names_gate():
    # (x1 + x2)^(2^k) style doubling blows up the sumset: sizes 3, 5, 9,
    # ..., 65 at m0..m5, then 129 at the sum gate m6
    nodes = [("v1", Var(1)), ("v2", Var(2)), ("u", Add("v1", "v2"))]
    prev = "u"
    for i in range(12):
        nodes.append((f"m{i}", Mul(prev, prev)))
        prev = f"m{i}"
    c = _c(MINKOWSKI, 2, nodes, prev)
    with guards.limits(produced_vectors=100), pytest.raises(GuardExceeded) as err:
        produced_set(c)
    assert str(err.value) == "produced set exceeds 100 vectors at gate m6"
    # a chain of unions passes 3 vectors at the union gate a2
    unions = _c(MINKOWSKI, 4, [("v1", Var(1)), ("v2", Var(2)), ("v3", Var(3)),
                               ("v4", Var(4)), ("a1", Add("v1", "v2")),
                               ("a2", Add("a1", "v3")), ("a3", Add("a2", "v4"))], "a3")
    with guards.limits(produced_vectors=2), pytest.raises(GuardExceeded) as err:
        produced_node_sets(unions)
    assert str(err.value) == "produced set exceeds 2 vectors at gate a2"


def _reference_node_sets(c: Circuit):
    """Produced sets on tuples, one vector sum at a time, as a reference."""
    cap = guards.current().produced_vectors
    sets = {}
    for nid, node in c.nodes:
        if isinstance(node, Var):
            sets[nid] = {tuple(int(i == node.index - 1) for i in range(c.n))}
        elif isinstance(node, Const):
            sets[nid] = {(0,) * c.n}
        else:
            if isinstance(node, Add):
                out = sets[node.left] | sets[node.right]
            else:
                out = {tuple(ui + vi for ui, vi in zip(u, v))
                       for u in sets[node.left] for v in sets[node.right]}
            if len(out) > cap:
                raise GuardExceeded(f"produced set exceeds {cap} vectors at gate {nid}")
            sets[nid] = out
    return sets


def _assert_matches_reference(c: Circuit):
    """Every result equals the tuple reference, which keeps every node's set
    to the end: the produced sets, the gate sizes cached with the output's
    set, and the packed sets returned, which are those of the nodes kept."""
    want = _reference_node_sets(c)
    assert produced_node_sets(c) == want
    assert produced_set(c) == VectorSet(c.n, want[c.output])
    assert c._produced[1] == tuple(
        (nid, len(want[nid])) for nid, node in c.nodes if isinstance(node, (Add, Mul)))
    for keep in ({c.output}, {nid for nid, _ in c.nodes[::2]}, set()):
        assert set(circuits._packed_node_sets(c, keep)[1]) == keep


def test_produced_sets_match_tuple_reference(rng):
    for _ in range(60):
        _assert_matches_reference(random_tropical_circuit(rng)[0])
    for _ in range(40):
        _assert_matches_reference(random_monotone_boolean_circuit(rng, n=rng.randint(1, 6)))


def test_produced_set_guard_matches_tuple_reference():
    rng = random.Random(606)
    hits = 0
    for _ in range(80):
        c, _ = random_tropical_circuit(rng, max_produced=200)
        with guards.limits(produced_vectors=rng.choice((1, 2, 4, 8))):
            try:
                _reference_node_sets(c)
            except GuardExceeded as want:
                hits += 1
                with pytest.raises(GuardExceeded, match=f"^{re.escape(str(want))}$"):
                    produced_set(c)
            else:
                _assert_matches_reference(c)
    assert hits > 10


def test_cached_produced_set_keeps_the_guard():
    """Under a lower cap, a circuit whose set is cached raises exactly as a
    fresh circuit and the tuple reference do, at the same gate."""
    rng = random.Random(707)
    hits = 0
    for _ in range(40):
        c, _ = random_tropical_circuit(rng, max_produced=200)
        full = produced_set(c)  # fills the cache under the default limits
        for cap in range(1, 9):
            with guards.limits(produced_vectors=cap):
                try:
                    _reference_node_sets(c)
                except GuardExceeded as want:
                    hits += 1
                    fresh = Circuit(c.semiring, c.n, c.nodes, c.output)
                    for circuit in (fresh, c):
                        with pytest.raises(GuardExceeded, match=f"^{re.escape(str(want))}$"):
                            produced_set(circuit)
                else:
                    assert produced_set(c) is full
    assert hits > 40


def test_failed_produced_set_caches_nothing():
    # (x1 + x2)^8 by squaring: 2, 3, 5 and 9 vectors at u, m0, m1 and m2
    nodes = [("v1", Var(1)), ("v2", Var(2)), ("u", Add("v1", "v2"))]
    for i, prev in enumerate(("u", "m0", "m1")):
        nodes.append((f"m{i}", Mul(prev, prev)))
    c = _c(MINKOWSKI, 2, nodes, "m2")
    with guards.limits(produced_vectors=4), pytest.raises(GuardExceeded) as err:
        produced_set(c)
    assert str(err.value) == "produced set exceeds 4 vectors at gate m1"
    assert c._produced is None
    with guards.limits(produced_vectors=9):
        assert produced_set(c) == VectorSet(2, _reference_node_sets(c)["m2"])
    with guards.limits(produced_vectors=8), pytest.raises(GuardExceeded) as err:
        produced_set(c)
    assert str(err.value) == "produced set exceeds 8 vectors at gate m2"
    assert len(produced_set(c)) == 9


def _assert_guard_matches_reference(c: Circuit, caps):
    hits = 0
    for cap in caps:
        with guards.limits(produced_vectors=cap):
            try:
                _reference_node_sets(c)
            except GuardExceeded as want:
                hits += 1
                fresh = Circuit(c.semiring, c.n, c.nodes, c.output)
                with pytest.raises(GuardExceeded, match=f"^{re.escape(str(want))}$"):
                    produced_set(fresh)
                assert fresh._produced is None
                with pytest.raises(GuardExceeded, match=f"^{re.escape(str(want))}$"):
                    produced_node_sets(fresh)
            else:
                _assert_matches_reference(c)
    return hits


def test_dropped_sets_keep_every_result_and_guard():
    """Sets dropped after their last reader change no result, size or guard."""
    v = [("v1", Var(1)), ("v2", Var(2)), ("v3", Var(3))]
    # the output m is read by a later gate, g, which nothing reads
    read_output = _c(MINKOWSKI, 3, [*v, ("a", Add("v1", "v2")), ("m", Mul("a", "v3")),
                                    ("g", Mul("m", "a"))], "m")
    # a gate reading one node twice: Add(u, u) and Mul(u, u)
    same_twice = _c(MINKOWSKI, 3, [*v, ("u", Add("v1", "v2")), ("s", Add("u", "u")),
                                   ("p", Mul("u", "u")), ("q", Mul("s", "p")),
                                   ("r", Mul("q", "v3"))], "r")
    # one hub read by many gates, the last of them at the end
    hub = [*v, ("h", Add("v1", "v2"))]
    prev = "h"
    for i, x in enumerate(("v1", "v2", "v3", "h", "v3", "h")):
        hub += [(f"m{i}", Mul("h", x)), (f"a{i}", Add(prev, f"m{i}"))]
        prev = f"a{i}"
    many_readers = _c(MINKOWSKI, 3, [*hub, ("out", Mul(prev, "h"))], "out")
    # a doubling chain no path from the output reaches: 2, 3, 5, 9, 17 and
    # 33 vectors at u, d0..d4, each read once and never by the output
    far = [*v, ("o", Mul("v1", "v3")), ("u", Add("v1", "v2"))]
    prev = "u"
    for i in range(5):
        far.append((f"d{i}", Mul(prev, prev)))
        prev = f"d{i}"
    unreachable = _c(MINKOWSKI, 3, [*far, ("out", Add("o", "v2"))], "out")
    for c in (read_output, same_twice, many_readers, unreachable):
        _assert_matches_reference(c)
    assert _assert_guard_matches_reference(unreachable, range(1, 34)) == 32
    with guards.limits(produced_vectors=16), pytest.raises(GuardExceeded) as err:
        produced_set(unreachable)
    assert str(err.value) == "produced set exceeds 16 vectors at gate d3"
    assert sum(_assert_guard_matches_reference(c, range(1, 12))
               for c in (read_output, same_twice, many_readers)) > 10


def test_produced_set_peak_memory_follows_live_sets():
    """A set is dropped after its last reader, so the boolean Bellman-Ford
    DP on K7 (2,476 output vectors) peaks at about 0.9 MiB of traced
    memory; keeping every gate's set to the end peaks at about 6.1 MiB."""
    c = bellman_ford_circuit(7, 1, 2)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert len(produced_set(c)) == 2476
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 3 * 2**20


def test_packed_width_edge_cases():
    # (x1 + x2)^3: degree 3 = 2**2 - 1, so entries fill a whole 2-bit digit
    cube = _c(MINKOWSKI, 3, [("v1", Var(1)), ("v2", Var(2)), ("v3", Var(3)),
                             ("u", Add("v1", "v2")), ("u2", Mul("u", "u")),
                             ("u3", Mul("u2", "u"))], "u3")
    assert circuits._packed_node_sets(cube, {"u3"})[0] == 2
    assert produced_set(cube).sorted_vectors() == [
        (0, 3, 0), (1, 2, 0), (2, 1, 0), (3, 0, 0)]
    _assert_matches_reference(cube)
    # an unreachable x2^8 sets the width, above the output's degree 2
    nodes = [("v1", Var(1)), ("v2", Var(2)), ("p0", Mul("v2", "v2"))]
    for i in range(1, 3):
        nodes.append((f"p{i}", Mul(f"p{i - 1}", f"p{i - 1}")))
    nodes.append(("out", Mul("v1", "v2")))
    far = _c(MINKOWSKI, 2, nodes, "out")
    assert syntactic_degree(far) == 2
    assert produced_node_sets(far)["p2"] == {(0, 8)}
    assert produced_set(far).sorted_vectors() == [(1, 1)]
    _assert_matches_reference(far)
    # constants produce the zero vector and add nothing to a sum
    consts = _c(MINPLUS, 2, [("v1", Var(1)), ("k", Const(Fraction(5, 2))),
                             ("v2", Var(2)), ("m", Mul("v1", "k")),
                             ("a", Add("m", "k")), ("s", Mul("a", "v2"))], "s")
    assert produced_set(consts).sorted_vectors() == [(0, 1), (1, 1)]
    _assert_matches_reference(consts)
    only = _c(MINPLUS, 3, [("k", Const(Fraction(0)))], "k")
    assert produced_set(only).sorted_vectors() == [(0, 0, 0)]


def test_convert_preserves_produced_set_and_size():
    c = min_x12_x3()
    for target in (MAXPLUS, BOOLEAN, ARITHMETIC, MINKOWSKI):
        converted = convert(c, target)
        assert converted.gate_count == c.gate_count
        assert produced_set(converted) == produced_set(c)
    # min-plus min(x1+x2, x3) -> boolean (x1 and x2) or x3
    b = convert(c, BOOLEAN)
    assert evaluate(b, [1, 1, 0]) == 1
    assert evaluate(b, [1, 0, 0]) == 0
    assert evaluate(b, [0, 0, 1]) == 1


def test_convert_rejects_bad_boolean_constant():
    c = _c(MINPLUS, 1, [("v1", Var(1)), ("k", Const(Fraction(3))),
                        ("g", Add("v1", "k"))], "g")
    with pytest.raises(UsageError):
        convert(c, BOOLEAN)


def test_strip_constants_examples():
    c = _c(MINPLUS, 2, [("v1", Var(1)), ("k", Const(Fraction(3))), ("v2", Var(2)),
                        ("g1", Mul("v1", "k")), ("g2", Add("g1", "v2"))], "g2")
    s = strip_constants(c)
    assert s.is_constant_free
    assert evaluate(s, [4, 9]) == 4  # min(x1, x2)
    assert s.gate_count <= c.gate_count

    c2 = _c(MAXPLUS, 2, [("v1", Var(1)), ("k", Const(Fraction(5))), ("v2", Var(2)),
                         ("g1", Add("v1", "k")), ("g2", Mul("g1", "v2"))], "g2")
    s2 = strip_constants(c2)
    assert evaluate(s2, [2, 3]) == 5  # x1 + x2
    assert s2.gate_count == 1


def test_strip_constants_degenerate():
    c = _c(MINPLUS, 1, [("v1", Var(1)), ("k", Const(Fraction(7))),
                        ("g", Add("v1", "k"))], "g")
    with pytest.raises(DegenerateCircuit):
        strip_constants(c)


def test_strip_identity_on_constant_free():
    c = min_x12_x3()
    assert strip_constants(c) is c


def test_strip_never_grows_random(rng):
    for _ in range(60):
        c, _ = random_tropical_circuit(rng)
        try:
            s = strip_constants(c)
        except DegenerateCircuit:
            continue
        assert s.gate_count <= c.gate_count
        assert s.is_constant_free
        # idempotent
        assert strip_constants(s) is s


def test_syntactic_degree():
    sq = _c(BOOLEAN, 1, [("v1", Var(1)), ("g", Mul("v1", "v1"))], "g")
    assert syntactic_degree(sq) == 2
    c = _c(BOOLEAN, 3, [("v1", Var(1)), ("v2", Var(2)), ("v3", Var(3)),
                        ("m", Mul("v1", "v2")), ("a", Add("m", "v3"))], "a")
    assert syntactic_degree(c) == 2


def test_semantics_factorization_property(rng):
    """evaluate == optimum of <b, x> over the produced set."""
    for _ in range(40):
        c, _ = random_tropical_circuit(rng, with_constants=False)
        for _ in range(100):
            x = [Fraction(rng.randint(0, 30), rng.randint(1, 4)) for _ in range(c.n)]
            assert evaluate(c, x) == tropical_value_oracle(c, x)


def test_produced_set_is_tag_invariant(rng):
    for _ in range(25):
        c, b = random_tropical_circuit(rng)
        for target in (MINPLUS, MAXPLUS, ARITHMETIC, MINKOWSKI):
            try:
                converted = convert(c, target)
            except UsageError:
                continue  # non-0/1 constants cannot enter the boolean view
            assert produced_set(converted) == b


def test_maxplus_strip_preserves_values(rng):
    """A (max,+) circuit that upper-bounds some max problem has all-zero
    offsets, so stripping cannot change computed values."""
    checked = 0
    while checked < 20:
        c, _ = random_tropical_circuit(rng)
        if c.semiring != MAXPLUS:
            continue
        try:
            s = strip_constants(c)
        except DegenerateCircuit:
            continue
        if evaluate(c, [0] * c.n) != 0:
            continue  # positive offset somewhere: not an approximator shape
        checked += 1
        for _ in range(100):
            x = [rng.randint(0, 12) for _ in range(c.n)]
            assert evaluate(c, x) == evaluate(s, x)


def test_round_trip_serialization(rng):
    cases = [min_x12_x3()]
    for _ in range(20):
        cases.append(random_tropical_circuit(rng)[0])
    for c in cases:
        text = serialize_circuit(c)
        back = parse_circuit(text)
        assert serialize_circuit(back) == text
        assert back.semiring == c.semiring and back.n == c.n
        assert produced_set(back) == produced_set(c)


def test_parse_rejects_malformed():
    with pytest.raises(UsageError):
        parse_circuit("")
    with pytest.raises(UsageError):
        parse_circuit("circuit minplus vars=1\nv1 = var 1\n")  # no output
    with pytest.raises(UsageError):
        parse_circuit("circuit nosuch vars=1\nv1 = var 1\noutput v1\n")
    with pytest.raises(UsageError):
        parse_circuit("circuit minplus vars=1\nv1 = frob 1\noutput v1\n")


def test_parse_allows_comments():
    text = "# header\ncircuit minplus vars=1\nv1 = var 1  # the input\noutput v1\n"
    c = parse_circuit(text)
    assert c.gate_count == 0 and evaluate(c, [7]) == 7
