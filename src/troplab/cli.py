"""Command-line entry point wiring all modules together.

Exit codes: 0 = verdict computed (including "false" verdicts),
1 = usage error, 2 = resource guard, 3 = internal invariant failure.
All randomness is seeded through --seed; reports print exact rationals,
with optional non-authoritative decimals via --decimal.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import builders, certify, families, generators, greedy, sumsets
from .circuits import (
    BOOLEAN,
    MINPLUS,
    MINKOWSKI,
    VectorSet,
    evaluate,
    parse_circuit,
    produced_set,
    serialize_circuit,
    strip_constants,
    convert,
    validate,
)
from .errors import GuardExceeded, InternalCheck, TropLabError, UsageError
from .families import (
    SetFamily,
    parse_family,
    parse_vectors,
    parse_weighting,
    serialize_family,
    serialize_vectors,
)
from .generators import DesignSpec, HypergraphSpec
from .rationals import format_rational, parse_rational


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_circuit(path: str):
    return parse_circuit(_read(path))


def _load_problem_vectors(path: str) -> VectorSet:
    """Family files become characteristic vectors; vector files load as-is."""
    text = _read(path)
    head = text.lstrip().split(None, 1)[0] if text.strip() else ""
    if head == "family":
        return parse_family(text).characteristic_vectors()
    if head == "vectors":
        return parse_vectors(text)
    raise UsageError(f"{path}: expected a family or vectors file")


def _parse_int_vector(text: str):
    seps = text.replace(",", " ").split()
    return tuple(int(tok) for tok in seps)


class _Report:
    def __init__(self, decimal: int | None):
        self.decimal = decimal
        self.failed = False

    def fmt(self, value) -> str:
        if isinstance(value, Fraction):
            base = format_rational(value)
            if self.decimal and value.denominator != 1:
                return f"{base} (~{float(value):.{self.decimal}f})"
            return base
        return str(value)

    def line(self, name: str, value, ok: bool | None = None):
        suffix = ""
        if ok is not None:
            suffix = "  [ok]" if ok else "  [FAIL]"
            if not ok:
                self.failed = True
        print(f"{name}: {self.fmt(value)}{suffix}")


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_build(args) -> int:
    if args.kind == "sel":
        c = builders.selection_circuit(args.n, args.k)
    elif args.kind == "design-approx":
        c = builders.design_approximator(DesignSpec(args.m, args.d))
    elif args.kind == "sidon-approx":
        c = builders.sidon_approximator(args.m)
    elif args.kind == "bf":
        tag = MINPLUS if args.minplus else BOOLEAN
        c = builders.bellman_ford_circuit(args.n, args.s, args.t, tag)
    elif args.kind == "fw":
        c = builders.floyd_warshall_circuit(args.n, args.s, args.t)
    else:
        c = builders.spanning_tree_boolean(args.n)
    _write(args.output, serialize_circuit(c))
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "design":
        fam = generators.polynomial_design(DesignSpec(args.m, args.d))
    elif args.kind == "graham":
        if args.l is None:
            _, fam = generators.graham_sloane_best(args.n, args.m)
        else:
            fam = generators.graham_sloane(args.n, args.m, args.l)
        if args.complement:
            fam = generators.uniform_complement(fam, args.m)
    elif args.kind == "matchings":
        fam = generators.hypergraph_matchings(HypergraphSpec(args.m, args.k))
    else:
        vs = generators.sidon_cubic(args.m)
        _write(args.output, serialize_vectors(vs))
        return 0
    _write(args.output, serialize_family(fam))
    return 0


def _cmd_eval(args) -> int:
    c = _load_circuit(args.circuit)
    x = parse_weighting(_read(args.weights))
    print(format_rational(Fraction(evaluate(c, list(x)))))
    return 0


def _cmd_validate(args) -> int:
    c = parse_circuit(_read(args.circuit), require_valid=False)
    problems = validate(c)
    for p in problems:
        print(p)
    print("valid" if not problems else f"{len(problems)} violations")
    return 0


def _cmd_convert(args) -> int:
    c = _load_circuit(args.circuit)
    _write(args.output, serialize_circuit(convert(c, args.target)))
    return 0


def _cmd_strip(args) -> int:
    c = _load_circuit(args.circuit)
    _write(args.output, serialize_circuit(strip_constants(c)))
    return 0


def _cmd_produced(args) -> int:
    c = _load_circuit(args.circuit)
    _write(args.output, serialize_vectors(produced_set(c)))
    return 0


_REPORT_LINE_CAP = 50


def _certificate_lines(side, label):
    lines = []
    for vec, cert in side:
        flat = " ".join(str(c) for c in vec)
        if cert.feasible:
            lam = ", ".join(
                f"({' '.join(str(c) for c in v)})*{format_rational(l)}"
                for v, l in (cert.coefficients or ())
            )
            lines.append(f"{label} [{flat}] ok {lam}")
        else:
            lines.append(f"{label} [{flat}] FAIL {cert.note or 'no combination'}")
    return lines


def _print_bundle(bundle, report: _Report):
    report.line("verdict", str(bundle.verdict).lower())
    report.line("factor", bundle.factor)
    report.line("produced vectors", len(bundle.produced))
    lines = _certificate_lines(bundle.produced_side, "produced")
    lines += _certificate_lines(bundle.feasible_side, "feasible")
    failures = [line for line in lines if " FAIL " in line]
    shown = failures + [line for line in lines if " FAIL " not in line]
    for line in shown[:_REPORT_LINE_CAP]:
        print(line)
    if len(shown) > _REPORT_LINE_CAP:
        print(f"... {len(shown) - _REPORT_LINE_CAP} more certificate lines")


def _cmd_certify(args, sense: str) -> int:
    c = _load_circuit(args.circuit)
    a = _load_problem_vectors(args.problem)
    r = parse_rational(args.factor)
    if r < 1:
        raise UsageError("--factor must be >= 1")
    report = _Report(args.decimal)
    fn = certify.certify_max if sense == "max" else certify.certify_min
    _print_bundle(fn(c, a, r), report)
    return 0


def _cmd_exact_factor(args) -> int:
    c = _load_circuit(args.circuit)
    a = _load_problem_vectors(args.problem)
    result = certify.exact_factor(c, a, args.sense)
    if result.status == "rational":
        print(f"factor: {format_rational(result.value)}")
    else:
        print(f"factor: {result.status} (witness {result.witness})")
    return 0


def _cmd_semantic_degree(args) -> int:
    c = _load_circuit(args.circuit)
    a = _load_problem_vectors(args.problem)
    print(f"semantic degree: {format_rational(certify.semantic_degree(c, a))}")
    return 0


def _cmd_bool_bound(args) -> int:
    c = _load_circuit(args.circuit)
    a = _load_problem_vectors(args.problem)
    print(str(certify.boolean_bound_check(c, a)).lower())
    return 0


def _cmd_arith_witness(args) -> int:
    c = _load_circuit(args.circuit)
    fam = parse_family(_read(args.family))
    r = parse_rational(args.factor)
    print(str(certify.arithmetic_witness_check(c, fam, r)).lower())
    return 0


def _cmd_decompose(args) -> int:
    c = _load_circuit(args.circuit)
    if c.semiring != MINKOWSKI:
        c = convert(c, MINKOWSKI)
    weights = [Fraction(w) for w in _parse_int_vector(args.norm)]
    mu = sumsets.NormMeasure("cli", tuple(weights))
    target = _parse_int_vector(args.target)
    theta = parse_rational(args.theta)
    d = sumsets.decompose(c, mu, target, theta)
    print(f"node: {d.node_id}")
    print(f"x: {' '.join(str(v) for v in d.x)}")
    print(f"y: {' '.join(str(v) for v in d.y)}")
    print(f"norm(x): {format_rational(d.norm_x)}")
    return 0


def _cmd_audit(args) -> int:
    c = _load_circuit(args.circuit)
    fam = parse_family(_read(args.family))
    r = parse_rational(args.factor)
    beta = parse_rational(args.beta)
    rep = sumsets.audit_circuit_rectangles(c, fam, r, beta)
    report = _Report(args.decimal)
    report.line("rectangles", len(rep.rectangles))
    report.line("all below family", all(x.below_family for x in rep.rectangles),
                all(x.below_family for x in rep.rectangles))
    report.line("all cross-disjoint", all(x.cross_disjoint for x in rep.rectangles),
                all(x.cross_disjoint for x in rep.rectangles))
    report.line("uncovered members", len(rep.uncovered), not rep.uncovered)
    report.line("max balanced count", rep.h_max)
    if rep.implied_bound is not None:
        report.line("implied size bound", rep.implied_bound)
    return 3 if report.failed else 0


def _cmd_bound(args) -> int:
    report = _Report(args.decimal)
    if args.kind == "design":
        b = sumsets.design_bound(args.m, args.d, parse_rational(args.beta),
                                 enumerate_degree=args.enumerate)
        report.line("factor", b.factor)
        report.line("l", b.l)
        report.line("bound with ceil(l)", b.bound_ceil)
        report.line("bound with floor(l)", b.bound_floor)
        report.line("degree at ceil(l)", b.degree_ceil)
        if b.enumerated_degree is not None:
            report.line("enumerated degree", b.enumerated_degree,
                        b.enumerated_degree == b.degree_ceil)
    elif args.kind == "matching":
        b = sumsets.matching_bound(args.m, args.k, parse_rational(args.r))
        report.line("d", b.d)
        report.line("bound", b.bound)
    else:
        b = sumsets.counting_bound(args.n, parse_rational(args.t))
        report.line("t", b.t)
        report.line("log2 circuits (approx)", f"{b.circuit_count_log2:.1f}")
        report.line("log2 matroids", b.matroid_count_log2)
        report.line("strictly fewer circuits", b.strictly_fewer_circuits,
                    b.strictly_fewer_circuits)
    return 3 if report.failed else 0


def _cmd_greedy(args, run_fn) -> int:
    fam = parse_family(_read(args.family))
    x = parse_weighting(_read(args.weights))
    run = run_fn(fam, x, args.sense)
    print(f"solution: {' '.join(str(e) for e in run.solution)}")
    print(f"value: {format_rational(run.value)}")
    print(f"optimum: {format_rational(run.optimum)}")
    print(f"ratio: {format_rational(run.ratio)}")
    return 0


def _cmd_greedy_factor(args) -> int:
    fam = parse_family(_read(args.family))
    est = greedy.greedy_factor_estimate(fam, args.trials, args.seed, args.sense)
    print(f"trials: {est.trials}")
    print(f"max ratio: {format_rational(est.max_ratio)}")
    return 0


# ---------------------------------------------------------------------------
# Report suites


def _report_hierarchy(args, report: _Report):
    m, d = args.m, args.d
    spec = DesignSpec(m, d)
    fam = generators.polynomial_design(spec)
    a = fam.characteristic_vectors()
    c = builders.design_approximator(spec)
    report.line("family size", len(fam), len(fam) == m**d)
    report.line("uniform", families.uniform_size(fam), families.uniform_size(fam) == m)
    report.line("d-disjoint", families.is_d_disjoint(fam, d), families.is_d_disjoint(fam, d))
    report.line("gates", c.gate_count, c.gate_count <= 3 * m * m)
    target = Fraction(m, d)
    certified = certify.certify_max(c, a, target).verdict
    report.line("certified at m/d", certified, certified)
    result = certify.exact_factor(c, a, "max")
    report.line("exact factor", result.value,
                result.status == "rational" and result.value <= target)
    lower = result.value - Fraction(1, 2)
    if lower >= 1:
        refuted = not certify.certify_max(c, a, lower).verdict
        report.line(f"refuted at {format_rational(lower)}", refuted, refuted)


def _report_sidon(args, report: _Report):
    m = args.m
    a = generators.sidon_cubic(m)
    c = builders.sidon_approximator(m)
    report.line("|A|", len(a), len(a) == 2**m)
    ones = {sum(v) for v in a}
    report.line("ones per vector", sorted(ones), ones == {2 * m})
    report.line("Sidon", families.is_sidon_vectors(a), families.is_sidon_vectors(a))
    report.line("gates", c.gate_count, c.gate_count <= 4 * m)
    result = certify.exact_factor(c, a, "max")
    report.line("exact factor", result.value,
                result.status == "rational" and result.value <= 2)
    from .gf import Field, power_map_is_bijective

    bij = power_map_is_bijective(Field.of(2, m), 3)
    report.line("cube map bijective", bij, bij)


def _report_greedy(args, report: _Report):
    if args.family == "star":
        m = args.m
        fam = SetFamily(m + 1, [(1,), tuple(range(2, m + 2))])
        weights = [Fraction(20, 19)] + [Fraction(1)] * m
        run = greedy.greedy_run(fam, weights, "max")
        threshold = Fraction(9, 10) * m
        report.line("ratio", run.ratio, run.ratio >= threshold)
        report.line("bound m", m, run.ratio <= m)
    else:
        fam = parse_family(_read(args.family))
        est = greedy.greedy_factor_estimate(fam, args.trials, args.seed)
        bound = max(mask.bit_count() for mask in fam.masks)
        report.line("max ratio", est.max_ratio, est.max_ratio <= bound)
        check = families.matroid_check(fam)
        if check.is_matroid:
            report.line("matroid exact", est.max_ratio == 1, est.max_ratio == 1)
        else:
            witness = greedy.matroid_failure_witness(fam, args.seed)
            report.line("non-matroid witness ratio",
                        witness[1].ratio if witness else None,
                        witness is not None and witness[1].ratio > 1)


def _report_decomposition(args, report: _Report):
    rng = random.Random(args.seed)
    from .tools import random_minkowski_circuit  # local corpus helper

    checked = 0
    for _ in range(args.circuits):
        c = random_minkowski_circuit(rng)
        b = produced_set(c)
        norms = [
            sumsets.NormMeasure("rand", tuple(rng.randint(0, 1) for _ in range(c.n)))
            for _ in range(3)
        ]
        for mu in norms:
            for vec in b:
                nb = mu(vec)
                if nb <= 1:
                    continue
                theta = Fraction(1) / nb + (1 - Fraction(1) / nb) / 2
                sumsets.decompose(c, mu, vec, theta)
                checked += 1
    report.line("verified splits", checked, True)


def _report_counting(args, report: _Report):
    b = sumsets.counting_bound(args.n, parse_rational(args.t))
    report.line("log2 circuits (approx)", f"{b.circuit_count_log2:.1f}")
    report.line("log2 matroids", b.matroid_count_log2)
    report.line("strictly fewer circuits", b.strictly_fewer_circuits,
                b.strictly_fewer_circuits)
    frac = families.kdense_sampling_experiment(args.sample_n, args.trials, args.seed)
    report.line(f"dense fraction (n={args.sample_n})", frac, frac >= Fraction(19, 20))


def _cmd_report(args) -> int:
    report = _Report(args.decimal)
    handlers = {
        "hierarchy": _report_hierarchy,
        "sidon": _report_sidon,
        "greedy": _report_greedy,
        "decomposition": _report_decomposition,
        "counting": _report_counting,
    }
    handlers[args.suite](args, report)
    if report.failed:
        raise InternalCheck(f"report suite {args.suite} has failing rows")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="troplab",
        description="tropical-circuit laboratory: build, transform, certify, audit",
        allow_abbrev=False,
    )
    top.add_argument("--decimal", type=int, default=None,
                     help="also render rationals with this many decimals (display only)")
    top.add_argument("--max-produced", type=int, default=None,
                     help="override the produced-set vector guard")
    top.add_argument("--max-dense-ground", type=int, default=None,
                     help="override the denseness ground-set guard")
    top.add_argument("--max-sidon", type=int, default=None,
                     help="override the Sidon scan size guard")
    top.add_argument("--max-matchings", type=int, default=None,
                     help="override the hypergraph matchings guard")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a named circuit")
    p.add_argument("kind", choices=["sel", "design-approx", "sidon-approx", "bf", "fw", "st-conn"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--minplus", action="store_true", help="minplus tag for bf")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("gen", help="generate a family or vector set")
    p.add_argument("kind", choices=["design", "graham", "matchings", "sidon"])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--complement", action="store_true",
                   help="emit the complement within the m-uniform layer")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("eval", help="evaluate a circuit on a weighting")
    p.add_argument("circuit")
    p.add_argument("weights")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("validate", help="list structural violations")
    p.add_argument("circuit")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("convert", help="retag a circuit into another semiring view")
    p.add_argument("circuit")
    p.add_argument("target")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("strip", help="constant-free core of a tropical circuit")
    p.add_argument("circuit")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_strip)

    p = sub.add_parser("produced", help="produced vector set of a circuit")
    p.add_argument("circuit")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_produced)

    p = sub.add_parser("certify-max", help="certify a maximization factor")
    p.add_argument("circuit")
    p.add_argument("problem")
    p.add_argument("--factor", required=True)
    p.set_defaults(fn=lambda a: _cmd_certify(a, "max"))

    p = sub.add_parser("certify-min", help="certify a minimization factor")
    p.add_argument("circuit")
    p.add_argument("problem")
    p.add_argument("--factor", required=True)
    p.set_defaults(fn=lambda a: _cmd_certify(a, "min"))

    p = sub.add_parser("exact-factor", help="optimal certified factor")
    p.add_argument("circuit")
    p.add_argument("problem")
    p.add_argument("--sense", choices=["min", "max"], required=True)
    p.set_defaults(fn=_cmd_exact_factor)

    p = sub.add_parser("semantic-degree", help="semantic degree of a boolean circuit")
    p.add_argument("circuit")
    p.add_argument("problem", help="minterm vectors (or family) file")
    p.set_defaults(fn=_cmd_semantic_degree)

    p = sub.add_parser("bool-bound", help="boolean version consistency check")
    p.add_argument("circuit")
    p.add_argument("problem")
    p.set_defaults(fn=_cmd_bool_bound)

    p = sub.add_parser("arith-witness", help="arithmetic-circuit witness conditions")
    p.add_argument("circuit")
    p.add_argument("family")
    p.add_argument("--factor", required=True)
    p.set_defaults(fn=_cmd_arith_witness)

    p = sub.add_parser("decompose", help="windowed sumset split of a produced vector")
    p.add_argument("circuit")
    p.add_argument("--norm", required=True, help="inner-product weights, e.g. 1,0,1")
    p.add_argument("--theta", required=True)
    p.add_argument("--target", required=True, help="produced vector, e.g. 1,1,0")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("audit", help="rectangle audit of a certified circuit")
    p.add_argument("circuit")
    p.add_argument("family")
    p.add_argument("--factor", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("bound", help="closed-form bound calculators")
    bsub = p.add_subparsers(dest="kind", required=True)
    b = bsub.add_parser("design")
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--beta", required=True)
    b.add_argument("--enumerate", action="store_true")
    b.set_defaults(fn=_cmd_bound)
    b = bsub.add_parser("matching")
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--r", required=True)
    b.set_defaults(fn=_cmd_bound)
    b = bsub.add_parser("counting")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--t", required=True)
    b.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("greedy", help="heaviest-first greedy run")
    p.add_argument("sense", choices=["max", "min"])
    p.add_argument("family")
    p.add_argument("weights")
    p.set_defaults(fn=lambda a: _cmd_greedy(a, greedy.greedy_run))

    p = sub.add_parser("greedy-factor", help="max observed greedy ratio")
    p.add_argument("family")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sense", choices=["max", "min"], default="max")
    p.set_defaults(fn=_cmd_greedy_factor)

    p = sub.add_parser("greedy-bad", help="wrong-strategy baseline run")
    p.add_argument("sense", choices=["max", "min"])
    p.add_argument("family")
    p.add_argument("weights")
    p.set_defaults(fn=lambda a: _cmd_greedy(a, greedy.wrong_strategy_run))

    p = sub.add_parser("report", help="consolidated acceptance-style reports")
    rsub = p.add_subparsers(dest="suite", required=True)
    r = rsub.add_parser("hierarchy")
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--d", type=int, required=True)
    r.set_defaults(fn=_cmd_report)
    r = rsub.add_parser("sidon")
    r.add_argument("--m", type=int, required=True)
    r.set_defaults(fn=_cmd_report)
    r = rsub.add_parser("greedy")
    r.add_argument("--family", required=True, help="'star' or a family file")
    r.add_argument("--m", type=int, default=3)
    r.add_argument("--trials", type=int, default=1000)
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(fn=_cmd_report)
    r = rsub.add_parser("decomposition")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--circuits", type=int, default=10)
    r.set_defaults(fn=_cmd_report)
    r = rsub.add_parser("counting")
    r.add_argument("--n", type=int, default=20)
    r.add_argument("--t", default=str(2**20 // 20**3))
    r.add_argument("--sample-n", type=int, default=8)
    r.add_argument("--trials", type=int, default=100)
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(fn=_cmd_report)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    from . import guards

    overrides = {
        "PRODUCED_VECTORS": args.max_produced,
        "DENSE_GROUND": args.max_dense_ground,
        "SIDON_VECTORS": args.max_sidon,
        "MATCHINGS": args.max_matchings,
    }
    saved = {name: getattr(guards, name) for name in overrides}
    for name, value in overrides.items():
        if value is not None:
            guards.set_guard(name, value)
    try:
        return args.fn(args)
    except GuardExceeded as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 2
    except InternalCheck as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except (UsageError, TropLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for name, value in saved.items():
            guards.set_guard(name, value)


if __name__ == "__main__":
    sys.exit(main())
