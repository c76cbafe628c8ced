"""The three benchmark workloads: inputs, operations and output checks.

Each workload function takes the seed, builds fresh inputs and returns
the operations of one pass.  An operation is a name, a call into the library
and a check of that call's result.  Library functions are looked up
through their module (`certify.exact_factor`, never a name imported
into this file) so that the tracer's patched bindings are the ones
called.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Any, Callable

from troplab import builders, certify, circuits, cli, generators, greedy, sumsets
from troplab.families import SetFamily


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# ---------------------------------------------------------------------------
# max-certify: the report suites plus one rectangle audit


def _report_rows(text: str) -> dict[str, str]:
    rows = {}
    for line in text.splitlines():
        name, sep, rest = line.partition(": ")
        if sep:
            rows[name] = rest.split("  [")[0]
    return rows


def _report(argv: list[str]) -> tuple[int, dict[str, str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, _report_rows(out.getvalue())


def _report_ok(factor: Fraction):
    def check(result) -> bool:
        code, rows = result
        refuted = [v for k, v in rows.items() if k.startswith("refuted at")]
        return (
            code == 0
            and Fraction(rows.get("exact factor", "0")) == factor
            and all(v == "True" for v in refuted)
        )

    return check


def max_certify(seed: int) -> list[Op]:
    del seed  # deterministic
    selection = builders.selection_circuit(8, 3)
    matroid = generators.graham_sloane_matroid(8, 4)
    # Every operation takes 3 s or less, so that a 40-second run holds
    # five to eight passes: hierarchy (5,3) and sidon 5 (about 18 s and
    # 7 s) would leave one pass, one sample of the machine's speed.
    ops = [
        Op(f"report hierarchy {m} {d}",
           lambda m=m, d=d: _report(["report", "hierarchy", "--m", str(m), "--d", str(d)]),
           _report_ok(Fraction(m, d)))
        for m, d in ((4, 2), (5, 2), (4, 3))
    ]
    ops.append(Op("report sidon 3", lambda: _report(["report", "sidon", "--m", "3"]),
                  _report_ok(Fraction(2))))
    ops.append(Op(
        "audit selection(8,3) GS(8,4)",
        lambda: sumsets.audit_circuit_rectangles(
            selection, matroid, Fraction(4, 3), Fraction(2, 3)),
        lambda report: report.all_properties_hold,
    ))
    return ops


# ---------------------------------------------------------------------------
# min-dp: shortest-path DPs and spanning-tree degrees on the min side


def _edge_vector(n: int, edges) -> tuple:
    vec = [0] * builders.edge_count(n)
    for a, b in edges:
        vec[builders.edge_var(n, a, b) - 1] += 1
    return tuple(vec)


def simple_paths(n: int, s: int, t: int) -> circuits.VectorSet:
    """Edge vectors of every simple s-t path in K_n, by enumeration."""
    inner = [v for v in range(1, n + 1) if v not in (s, t)]
    vectors = []
    for r in range(len(inner) + 1):
        for mids in permutations(inner, r):
            walk = (s, *mids, t)
            vectors.append(_edge_vector(n, zip(walk, walk[1:])))
    return circuits.VectorSet(builders.edge_count(n), vectors)


def spanning_trees(n: int) -> circuits.VectorSet:
    """Edge vectors of every spanning tree of K_n, by enumeration."""
    edges = list(combinations(range(1, n + 1), 2))
    vectors = []
    for chosen in combinations(edges, n - 1):
        root = list(range(n + 1))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for a, b in chosen:
            ra, rb = find(a), find(b)
            if ra == rb:
                break
            root[ra] = rb
        else:
            vectors.append(_edge_vector(n, chosen))
    return circuits.VectorSet(builders.edge_count(n), vectors)


def _certify_path_dp(circuit, paths) -> tuple:
    """The exact min factor, the certificate at it, and the boolean bound."""
    factor = certify.exact_factor(circuit, paths, "min")
    bundle = certify.certify_min(circuit, paths, factor.value)
    return factor, bundle.verdict, certify.boolean_bound_check(circuit, paths)


def _path_dp_ok(got) -> bool:
    factor, certified, bounded = got
    return factor.status == "rational" and factor.value == 1 and certified and bounded is True


def min_dp(seed: int) -> list[Op]:
    del seed  # deterministic
    # One operation per circuit: with single calls, op_p50_ms would be
    # the latency of one 0.1-0.4 s call.
    ops = [
        Op(label, lambda c=circuit, a=paths: _certify_path_dp(c, a), _path_dp_ok)
        for label, circuit, paths in (
            ("bellman-ford K6 1-2",
             builders.bellman_ford_circuit(6, 1, 2, circuits.MINPLUS), simple_paths(6, 1, 2)),
            ("floyd-warshall K5 1-3",
             builders.floyd_warshall_circuit(5, 1, 3), simple_paths(5, 1, 3)),
        )
    ]
    # Degrees of boolean circuits.  spanning_tree_boolean(5) (about 21 s)
    # would leave one pass per 40-second run; the boolean Bellman-Ford
    # circuit on K7 keeps a large produced set (2,476 vectors) and the
    # support filter (326 minterms against it) in about 3 s.
    for label, circuit, minterms, degree in (
        ("spanning trees K4", builders.spanning_tree_boolean(4), spanning_trees(4), 3),
        ("bellman-ford K7 1-2", builders.bellman_ford_circuit(7, 1, 2), simple_paths(7, 1, 2), 1),
    ):
        ops.append(Op(f"semantic_degree {label}",
                      lambda c=circuit, a=minterms: certify.semantic_degree(c, a),
                      lambda got, want=degree: got == want))
    return ops


# ---------------------------------------------------------------------------
# greedy-race: many short greedy runs, no LP


def _weightings(rng: random.Random, n: int, count: int) -> list:
    """Half integer weightings in 0..100, half rationals with denominators 2-4."""
    ints = [[rng.randint(0, 100) for _ in range(n)] for _ in range(count // 2)]
    fracs = [[Fraction(rng.randint(0, 400), rng.randint(2, 4)) for _ in range(n)]
             for _ in range(count - count // 2)]
    return ints + fracs


def greedy_race(seed: int) -> list[Op]:
    rng = random.Random(seed)
    matroid = generators.graham_sloane_matroid(8, 4)
    uniform = SetFamily(10, combinations(range(1, 11), 5))
    selection = builders.selection_circuit(10, 5)
    design = generators.polynomial_design(generators.DesignSpec(5, 2))
    matchings = generators.hypergraph_matchings(generators.HypergraphSpec(4, 3))
    # (name, operations per pass, family, run on a weighting, check).
    # Rational weightings cost about 4x integer ones.  The counts put the
    # median operation in the middle of the 326 rational GS(8,4) runs,
    # the largest group of like latency: a median on the border of two
    # groups would jump between them from seed to seed.  F_{4,3} runs
    # (25-35 ms) are the slowest 12%, so they set op_p99_ms.
    mix = [
        ("GS(8,4) max", 326, matroid,
         lambda x: greedy.greedy_run(matroid, x, "max"), lambda run: run.ratio == 1),
        ("GS(8,4) min", 326, matroid,
         lambda x: greedy.greedy_run(matroid, x, "min"), lambda run: run.ratio == 1),
        ("U(10,5) vs selection(10,5)", 326, uniform,
         lambda x: (greedy.greedy_run(uniform, x, "max"), circuits.evaluate(selection, x)),
         lambda got: got[0].value == got[1]),
        ("design(5,2)", 150, design,
         lambda x: greedy.greedy_run(design, x, "max"), lambda run: run.ratio <= 5),
        ("F_4,3", 150, matchings,
         lambda x: greedy.greedy_run(matchings, x, "max"), lambda run: run.ratio <= 3),
    ]
    ops = [
        Op(name, functools.partial(run, x), check)
        for name, count, family, run, check in mix
        for x in _weightings(rng, family.n, count)
    ]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "max-certify": max_certify,
    "min-dp": min_dp,
    "greedy-race": greedy_race,
}
