"""Command-line entry point wiring all modules together.

Each subcommand is one row of the command table (`_commands`): its path,
help text, arguments and handler. Arguments are loaded by their argparse
`type=` converters (`_circuit`, `_problem`, `_family`, `_weights`,
`parse_rational`, `_int_vector`), so a handler receives circuits,
families and rationals, never paths or strings; a converter's
UsageError reaches `main` like a handler's. `build` and `gen` name the
options each kind needs. Commands that print checked rows (`bound`,
`audit`, `report`) run through `_rows`, which turns a failing row into
InternalCheck.

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

from . import builders, certify, families, generators, greedy, guards, sumsets
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
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Argument loaders (argparse `type=` converters)


def _circuit(path: str):
    return parse_circuit(_read(path))


def _family(path: str) -> SetFamily:
    return parse_family(_read(path))


def _weights(path: str):
    return parse_weighting(_read(path))


def _problem(path: str) -> VectorSet:
    """Family files become characteristic vectors; vector files load as-is."""
    text = _read(path)
    head = text.lstrip().split(None, 1)[0] if text.strip() else ""
    if head == "family":
        return parse_family(text).characteristic_vectors()
    if head == "vectors":
        return parse_vectors(text)
    raise UsageError(f"{path}: expected a family or vectors file")


def _int_vector(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise UsageError(f"malformed integer vector {text!r}") from exc


def _star_or_family(text: str):
    return text if text == "star" else _family(text)


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


def _rows(print_rows):
    """Handler running `print_rows(args, report)`; a failing row exits 3."""

    def handler(args):
        report = _Report(args.decimal)
        print_rows(args, report)
        if report.failed:
            raise InternalCheck(f"{args.path} has failing rows")

    return handler


# ---------------------------------------------------------------------------
# Subcommand handlers


def _made(kinds: dict, args):
    """Make `args.kind` from `kinds` (kind -> (needed options, maker))."""
    needs, make = kinds[args.kind]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise UsageError(f"{args.path} {args.kind} needs {', '.join(missing)}")
    return make(args)


_BUILDS = {
    "sel": (("n", "k"), lambda a: builders.selection_circuit(a.n, a.k)),
    "design-approx": (("m", "d"),
                      lambda a: builders.design_approximator(DesignSpec(a.m, a.d))),
    "sidon-approx": (("m",), lambda a: builders.sidon_approximator(a.m)),
    "bf": (("n",), lambda a: builders.bellman_ford_circuit(
        a.n, a.s, a.t, MINPLUS if a.minplus else BOOLEAN)),
    "fw": (("n",), lambda a: builders.floyd_warshall_circuit(a.n, a.s, a.t)),
    "st-conn": (("n",), lambda a: builders.spanning_tree_boolean(a.n)),
}


def _cmd_build(args):
    _write(args.output, serialize_circuit(_made(_BUILDS, args)))


def _graham(args) -> SetFamily:
    if args.l is None:
        _, fam = generators.graham_sloane_best(args.n, args.m)
    else:
        fam = generators.graham_sloane(args.n, args.m, args.l)
    return generators.uniform_complement(fam, args.m) if args.complement else fam


_GENS = {
    "design": (("m", "d"), lambda a: generators.polynomial_design(DesignSpec(a.m, a.d))),
    "graham": (("n", "m"), _graham),
    "matchings": (("m", "k"),
                  lambda a: generators.hypergraph_matchings(HypergraphSpec(a.m, a.k))),
    "sidon": (("m",), lambda a: generators.sidon_cubic(a.m)),
}


def _cmd_gen(args):
    made = _made(_GENS, args)
    if isinstance(made, VectorSet):
        _write(args.output, serialize_vectors(made))
    else:
        _write(args.output, serialize_family(made))


def _cmd_eval(args):
    print(format_rational(Fraction(evaluate(args.circuit, list(args.weights)))))


def _cmd_validate(args):
    c = parse_circuit(_read(args.circuit), require_valid=False)
    problems = validate(c)
    for p in problems:
        print(p)
    print("valid" if not problems else f"{len(problems)} violations")


def _cmd_convert(args):
    _write(args.output, serialize_circuit(convert(args.circuit, args.target)))


def _cmd_strip(args):
    _write(args.output, serialize_circuit(strip_constants(args.circuit)))


def _cmd_produced(args):
    _write(args.output, serialize_vectors(produced_set(args.circuit)))


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


def _certify_rows(args, report: _Report, sense: str):
    if args.factor < 1:
        raise UsageError("--factor must be >= 1")
    fn = certify.certify_max if sense == "max" else certify.certify_min
    _print_bundle(fn(args.circuit, args.problem, args.factor), report)


def _cmd_exact_factor(args):
    result = certify.exact_factor(args.circuit, args.problem, args.sense)
    if result.status == "rational":
        print(f"factor: {format_rational(result.value)}")
    else:
        print(f"factor: {result.status} (witness {result.witness})")


def _cmd_semantic_degree(args):
    degree = certify.semantic_degree(args.circuit, args.problem)
    print(f"semantic degree: {format_rational(degree)}")


def _cmd_bool_bound(args):
    print(str(certify.boolean_bound_check(args.circuit, args.problem)).lower())


def _cmd_arith_witness(args):
    ok = certify.arithmetic_witness_check(args.circuit, args.family, args.factor)
    print(str(ok).lower())


def _cmd_decompose(args):
    c = args.circuit
    if c.semiring != MINKOWSKI:
        c = convert(c, MINKOWSKI)
    mu = sumsets.NormMeasure("cli", tuple(Fraction(w) for w in args.norm))
    d = sumsets.decompose(c, mu, args.target, args.theta)
    print(f"node: {d.node_id}")
    print(f"x: {' '.join(str(v) for v in d.x)}")
    print(f"y: {' '.join(str(v) for v in d.y)}")
    print(f"norm(x): {format_rational(d.norm_x)}")


def _audit_rows(args, report: _Report):
    rep = sumsets.audit_circuit_rectangles(args.circuit, args.family, args.factor, args.beta)
    report.line("rectangles", len(rep.rectangles))
    report.line("all below family", all(x.below_family for x in rep.rectangles),
                all(x.below_family for x in rep.rectangles))
    report.line("all cross-disjoint", all(x.cross_disjoint for x in rep.rectangles),
                all(x.cross_disjoint for x in rep.rectangles))
    report.line("uncovered members", len(rep.uncovered), not rep.uncovered)
    report.line("max balanced count", rep.h_max)
    if rep.implied_bound is not None:
        report.line("implied size bound", rep.implied_bound)


def _bound_design(args, report: _Report):
    b = sumsets.design_bound(args.m, args.d, args.beta, enumerate_degree=args.enumerate)
    report.line("factor", b.factor)
    report.line("l", b.l)
    report.line("bound with ceil(l)", b.bound_ceil)
    report.line("bound with floor(l)", b.bound_floor)
    report.line("degree at ceil(l)", b.degree_ceil)
    if b.enumerated_degree is not None:
        report.line("enumerated degree", b.enumerated_degree,
                    b.enumerated_degree == b.degree_ceil)


def _bound_matching(args, report: _Report):
    b = sumsets.matching_bound(args.m, args.k, args.r)
    report.line("d", b.d)
    report.line("bound", b.bound)


def _bound_counting(args, report: _Report):
    b = sumsets.counting_bound(args.n, args.t)
    report.line("t", b.t)
    _counting_rows(b, report)


def _counting_rows(b, report: _Report):
    report.line("log2 circuits (approx)", f"{b.circuit_count_log2:.1f}")
    report.line("log2 matroids", b.matroid_count_log2)
    report.line("strictly fewer circuits", b.strictly_fewer_circuits,
                b.strictly_fewer_circuits)


def _cmd_greedy(args, run_fn):
    run = run_fn(args.family, args.weights, args.sense)
    print(f"solution: {' '.join(str(e) for e in run.solution)}")
    print(f"value: {format_rational(run.value)}")
    print(f"optimum: {format_rational(run.optimum)}")
    print(f"ratio: {format_rational(run.ratio)}")


def _cmd_greedy_factor(args):
    est = greedy.greedy_factor_estimate(args.family, args.trials, args.seed, args.sense)
    print(f"trials: {est.trials}")
    print(f"max ratio: {format_rational(est.max_ratio)}")


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
        fam = args.family
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
    _counting_rows(sumsets.counting_bound(args.n, args.t), report)
    frac = families.kdense_sampling_experiment(args.sample_n, args.trials, args.seed)
    report.line(f"dense fraction (n={args.sample_n})", frac, frac >= Fraction(19, 20))


# ---------------------------------------------------------------------------
# Command table and parser


def _arg(*names, **options):
    return names, options


def _int(name: str, **options):
    return _arg(f"--{name}", type=int, **options)


def _commands():
    """The command table: one (path, help, arguments, handler) row each.

    A row without a handler is a group: its subcommands are the rows
    below whose paths extend it, and its third field names the argument
    that records which one ran. The table is built on every call, so a
    handler replaced in this module is the one that runs.
    """
    circuit = _arg("circuit", type=_circuit)
    problem = _arg("problem", type=_problem)
    family = _arg("family", type=_family)
    weights = _arg("weights", type=_weights)
    factor = _arg("--factor", type=parse_rational, required=True)
    output = _arg("-o", "--output")
    sense = _arg("sense", choices=["max", "min"])
    seed = _int("seed", default=0)
    return (
        ("build", "construct a named circuit",
         [_arg("kind", choices=list(_BUILDS)), _int("n"), _int("k"), _int("m"), _int("d"),
          _int("s", default=1), _int("t", default=2),
          _arg("--minplus", action="store_true", help="minplus tag for bf"), output],
         _cmd_build),
        ("gen", "generate a family or vector set",
         [_arg("kind", choices=list(_GENS)), _int("n"), _int("m"), _int("d"), _int("k"),
          _int("l", default=None),
          _arg("--complement", action="store_true",
               help="emit the complement within the m-uniform layer"), output],
         _cmd_gen),
        ("eval", "evaluate a circuit on a weighting", [circuit, weights], _cmd_eval),
        ("validate", "list structural violations", [_arg("circuit")], _cmd_validate),
        ("convert", "retag a circuit into another semiring view",
         [circuit, _arg("target"), output], _cmd_convert),
        ("strip", "constant-free core of a tropical circuit", [circuit, output], _cmd_strip),
        ("produced", "produced vector set of a circuit", [circuit, output], _cmd_produced),
        ("certify-max", "certify a maximization factor", [circuit, problem, factor],
         _rows(lambda a, report: _certify_rows(a, report, "max"))),
        ("certify-min", "certify a minimization factor", [circuit, problem, factor],
         _rows(lambda a, report: _certify_rows(a, report, "min"))),
        ("exact-factor", "optimal certified factor",
         [circuit, problem, _arg("--sense", choices=["min", "max"], required=True)],
         _cmd_exact_factor),
        ("semantic-degree", "semantic degree of a boolean circuit",
         [circuit, _arg("problem", type=_problem, help="minterm vectors (or family) file")],
         _cmd_semantic_degree),
        ("bool-bound", "boolean version consistency check", [circuit, problem],
         _cmd_bool_bound),
        ("arith-witness", "arithmetic-circuit witness conditions", [circuit, family, factor],
         _cmd_arith_witness),
        ("decompose", "windowed sumset split of a produced vector",
         [circuit,
          _arg("--norm", type=_int_vector, required=True,
               help="inner-product weights, e.g. 1,0,1"),
          _arg("--theta", type=parse_rational, required=True),
          _arg("--target", type=_int_vector, required=True,
               help="produced vector, e.g. 1,1,0")],
         _cmd_decompose),
        ("audit", "rectangle audit of a certified circuit",
         [circuit, family, factor, _arg("--beta", type=parse_rational, required=True)],
         _rows(_audit_rows)),
        ("bound", "closed-form bound calculators", "kind", None),
        ("bound design", None,
         [_int("m", required=True), _int("d", required=True),
          _arg("--beta", type=parse_rational, required=True),
          _arg("--enumerate", action="store_true")],
         _rows(_bound_design)),
        ("bound matching", None,
         [_int("m", required=True), _int("k", required=True),
          _arg("--r", type=parse_rational, required=True)],
         _rows(_bound_matching)),
        ("bound counting", None,
         [_int("n", required=True), _arg("--t", type=parse_rational, required=True)],
         _rows(_bound_counting)),
        ("greedy", "heaviest-first greedy run", [sense, family, weights],
         lambda a: _cmd_greedy(a, greedy.greedy_run)),
        ("greedy-factor", "max observed greedy ratio",
         [family, _int("trials", default=1000), seed,
          _arg("--sense", choices=["max", "min"], default="max")],
         _cmd_greedy_factor),
        ("greedy-bad", "wrong-strategy baseline run", [sense, family, weights],
         lambda a: _cmd_greedy(a, greedy.wrong_strategy_run)),
        ("report", "consolidated acceptance-style reports", "suite", None),
        ("report hierarchy", None, [_int("m", required=True), _int("d", required=True)],
         _rows(_report_hierarchy)),
        ("report sidon", None, [_int("m", required=True)], _rows(_report_sidon)),
        ("report greedy", None,
         [_arg("--family", type=_star_or_family, required=True,
               help="'star' or a family file"),
          _int("m", default=3), _int("trials", default=1000), seed],
         _rows(_report_greedy)),
        ("report decomposition", None, [seed, _int("circuits", default=10)],
         _rows(_report_decomposition)),
        ("report counting", None,
         [_int("n", default=20), _arg("--t", type=parse_rational, default=str(2**20 // 20**3)),
          _int("sample-n", default=8), _int("trials", default=100), seed],
         _rows(_report_counting)),
    )


# flag -> (Limits field, what it overrides)
_GUARD_FLAGS = {
    "--max-produced": ("produced_vectors", "the produced-set vector guard"),
    "--max-dense-ground": ("dense_ground", "the denseness ground-set guard"),
    "--max-sidon": ("sidon_vectors", "the Sidon scan size guard"),
    "--max-matchings": ("matchings", "the hypergraph matchings guard"),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="troplab",
        description="tropical-circuit laboratory: build, transform, certify, audit",
        allow_abbrev=False,
    )
    top.add_argument("--decimal", type=int, default=None,
                     help="also render rationals with this many decimals (display only)")
    for flag, (field, what) in _GUARD_FLAGS.items():
        top.add_argument(flag, type=int, dest=field, help=f"override {what}")
    groups = {"": top.add_subparsers(dest="command", required=True)}
    for path, help_text, arguments, handler in _commands():
        parent, _, name = path.rpartition(" ")
        p = groups[parent].add_parser(name, **({"help": help_text} if help_text else {}))
        if handler is None:
            groups[path] = p.add_subparsers(dest=arguments, required=True)
            continue
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(fn=handler, path=path)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.decimal is not None and args.decimal < 0:
            raise UsageError("--decimal must be >= 0")
        changes = {field: getattr(args, field) for field, _ in _GUARD_FLAGS.values()
                   if getattr(args, field) is not None}
        with guards.limits(**changes):
            args.fn(args)
        return 0
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    except GuardExceeded as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 2
    except InternalCheck as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except (UsageError, TropLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
