"""CLI surface: subcommands, file round trips, exit codes, determinism."""

import argparse
import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import simple_path_vectors, spanning_tree_vectors
from troplab import certify, cli, guards, sumsets
from troplab.cli import main
from troplab.families import serialize_vectors


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_eval_selection(tmp_path, capsys):
    ckt = tmp_path / "sel.ckt"
    w = tmp_path / "w.txt"
    w.write_text("weights vars=4\n5\n1\n7\n2\n")
    code, _, _ = run_cli(capsys, "build", "sel", "--n", "4", "--k", "2", "-o", str(ckt))
    assert code == 0
    code, out, _ = run_cli(capsys, "eval", str(ckt), str(w))
    assert code == 0 and out.strip() == "12"


def test_gen_and_certify_design(tmp_path, capsys):
    fam = tmp_path / "F.fam"
    ckt = tmp_path / "approx.ckt"
    assert run_cli(capsys, "gen", "design", "--m", "3", "--d", "2", "-o", str(fam))[0] == 0
    assert run_cli(capsys, "build", "design-approx", "--m", "3", "--d", "2",
                   "-o", str(ckt))[0] == 0
    code, out, _ = run_cli(capsys, "certify-max", str(ckt), str(fam),
                           "--factor", "3/2")
    assert code == 0 and "verdict: true" in out
    code, out, _ = run_cli(capsys, "certify-max", str(ckt), str(fam),
                           "--factor", "5/4")
    assert code == 0 and "verdict: false" in out


def test_factor_below_one_is_usage_error(tmp_path, capsys):
    fam = tmp_path / "F.fam"
    ckt = tmp_path / "sel.ckt"
    run_cli(capsys, "gen", "design", "--m", "2", "--d", "1", "-o", str(fam))
    run_cli(capsys, "build", "sel", "--n", "4", "--k", "1", "-o", str(ckt))
    code, _, err = run_cli(capsys, "certify-max", str(ckt), str(fam),
                           "--factor", "1/2")
    assert code == 1 and "factor" in err


def test_exact_factor_and_strip(tmp_path, capsys):
    ckt = tmp_path / "sel.ckt"
    vec = tmp_path / "A.vec"
    run_cli(capsys, "build", "sel", "--n", "4", "--k", "1", "-o", str(ckt))
    vec.write_text("vectors vars=4\n1 1 0 0\n0 0 1 1\n")
    code, out, _ = run_cli(capsys, "exact-factor", str(ckt), str(vec),
                           "--sense", "max")
    assert code == 0 and out.strip() == "factor: 2"
    out_ckt = tmp_path / "stripped.ckt"
    assert run_cli(capsys, "strip", str(ckt), "-o", str(out_ckt))[0] == 0
    assert out_ckt.read_text().startswith("circuit maxplus vars=4")


def test_round_trip_build_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.ckt", tmp_path / "b.ckt"
    for path in (a, b):
        run_cli(capsys, "build", "fw", "--n", "4", "--s", "1", "--t", "3",
                "-o", str(path))
    assert a.read_bytes() == b.read_bytes()
    from troplab.circuits import parse_circuit, serialize_circuit

    text = a.read_text()
    assert serialize_circuit(parse_circuit(text)) == text


def test_gen_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.fam", tmp_path / "b.fam"
    for path in (a, b):
        run_cli(capsys, "gen", "matchings", "--m", "3", "--k", "2", "-o", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_greedy_cli(tmp_path, capsys):
    fam = tmp_path / "star.fam"
    w = tmp_path / "w.txt"
    fam.write_text("family vars=4\n1\n2 3 4\n")
    w.write_text("weights vars=4\n20/19\n1\n1\n1\n")
    code, out, _ = run_cli(capsys, "greedy", "max", str(fam), str(w))
    assert code == 0
    assert "value: 20/19" in out and "ratio: 57/20" in out
    code, out, _ = run_cli(capsys, "greedy-bad", "max", str(fam), str(w))
    assert code == 0
    code, out, _ = run_cli(capsys, "greedy-factor", str(fam), "--trials", "50",
                           "--seed", "3")
    assert code == 0 and "max ratio:" in out


def test_bound_cli(capsys):
    code, out, _ = run_cli(capsys, "bound", "design", "--m", "5", "--d", "2",
                           "--beta", "1/2", "--enumerate")
    assert code == 0 and "bound with ceil(l): 5" in out
    code, out, _ = run_cli(capsys, "bound", "matching", "--m", "16", "--k", "6",
                           "--r", "7")
    assert code == 0 and "bound: 4/15" in out
    code, out, _ = run_cli(capsys, "bound", "counting", "--n", "20",
                           "--t", "1048576/8000")
    assert code == 0 and "strictly fewer circuits: True" in out


def test_decompose_cli(tmp_path, capsys):
    ckt = tmp_path / "chain.ckt"
    ckt.write_text(
        "circuit minkowski vars=4\n"
        "v1 = var 1\nv2 = var 2\nv3 = var 3\nv4 = var 4\n"
        "g1 = mul v1 v2\ng2 = mul g1 v3\ng3 = mul g2 v4\noutput g3\n"
    )
    code, out, _ = run_cli(capsys, "decompose", str(ckt), "--norm", "1,1,1,1",
                           "--theta", "1/2", "--target", "1,1,1,1")
    assert code == 0 and "norm(x): 2" in out


def test_audit_cli(tmp_path, capsys):
    fam = tmp_path / "m.fam"
    ckt = tmp_path / "sel.ckt"
    run_cli(capsys, "gen", "graham", "--n", "6", "--m", "3", "--complement",
            "-o", str(fam))
    run_cli(capsys, "build", "sel", "--n", "6", "--k", "2", "-o", str(ckt))
    code, out, _ = run_cli(capsys, "audit", str(ckt), str(fam),
                           "--factor", "3/2", "--beta", "2/3")
    assert code == 0
    assert "uncovered members: 0  [ok]" in out


def test_validate_cli(tmp_path, capsys):
    bad = tmp_path / "bad.ckt"
    bad.write_text("circuit minplus vars=1\ng1 = add v9 v9\noutput g1\n")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 0 and "unknown node v9" in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "/nonexistent.ckt", "/nonexistent.w")
    assert code == 1 and "cannot read" in err


CHAIN = (
    "circuit minkowski vars=4\n"
    "v1 = var 1\nv2 = var 2\nv3 = var 3\nv4 = var 4\n"
    "g1 = mul v1 v2\ng2 = mul g1 v3\ng3 = mul g2 v4\noutput g3\n"
)


@pytest.mark.parametrize("command, named", [
    ("build sel", "--n, --k"),
    ("build sel --n 4", "--k"),
    ("gen design", "--m, --d"),
    ("gen graham --m 3", "--n"),
    ("decompose chain.ckt --norm 1,a --theta 1/2 --target 1,1,1,1", "'1,a'"),
    ("decompose chain.ckt --norm 1,1,1,1 --theta 1/2 --target 1,x,1,1", "'1,x,1,1'"),
    ("--decimal -1 bound matching --m 16 --k 6 --r 7", "--decimal"),
    ("build sel --n 4 --k 2 -o no-such-dir/x.ckt", "cannot write no-such-dir/x.ckt"),
])
def test_bad_input_is_one_usage_error_line(tmp_path, capsys, monkeypatch, command, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.ckt").write_text(CHAIN)
    code, out, err = run_cli(capsys, *command.split())
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_failing_rows_exit_3_with_one_line(tmp_path, capsys, monkeypatch):
    code, _, err = run_cli(capsys, "bound", "counting", "--n", "12", "--t", "10")
    assert (code, err) == (3, "internal check failed: bound counting has failing rows\n")
    code, _, err = run_cli(capsys, "report", "counting", "--n", "12", "--t", "10",
                           "--sample-n", "6", "--trials", "40")
    assert (code, err) == (3, "internal check failed: report counting has failing rows\n")
    fam, ckt = tmp_path / "U.fam", tmp_path / "sel.ckt"
    fam.write_text("family vars=4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    run_cli(capsys, "build", "sel", "--n", "4", "--k", "2", "-o", str(ckt))
    original = sumsets.audit_circuit_rectangles
    monkeypatch.setattr(sumsets, "audit_circuit_rectangles", lambda *a: dataclasses.replace(
        original(*a), uncovered=((1, 2),)))
    code, out, err = run_cli(capsys, "audit", str(ckt), str(fam), "--factor", "1",
                             "--beta", "1/2")
    assert "uncovered members: 1  [FAIL]" in out
    assert (code, err) == (3, "internal check failed: audit has failing rows\n")


def test_produced_guard_exit_code(tmp_path, capsys):
    ckt = tmp_path / "big.ckt"
    lines = ["circuit minkowski vars=2", "v1 = var 1", "v2 = var 2",
             "u = add v1 v2"]
    prev = "u"
    for i in range(14):
        lines.append(f"m{i} = mul {prev} {prev}")
        prev = f"m{i}"
    lines.append(f"output {prev}")
    ckt.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "--max-produced", "50", "produced", str(ckt))
    assert code == 2 and "resource guard" in err
    # the override is scoped to the one command
    assert guards.current() == guards.Limits()


def test_max_flags_set_limits_for_one_command(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_validate", lambda args: seen.append(guards.current()) or 0)
    code = main(["--max-produced", "7", "--max-dense-ground", "30", "--max-sidon", "300",
                 "--max-matchings", "9", "validate", "unused.ckt"])
    assert code == 0
    assert seen == [guards.Limits(produced_vectors=7, dense_ground=30,
                                  sidon_vectors=300, matchings=9)]
    assert guards.current() == guards.Limits()


def test_report_suites_smoke(capsys):
    assert run_cli(capsys, "report", "hierarchy", "--m", "3", "--d", "2")[0] == 0
    assert run_cli(capsys, "report", "sidon", "--m", "3")[0] == 0
    assert run_cli(capsys, "report", "greedy", "--family", "star", "--m", "4")[0] == 0
    assert run_cli(capsys, "report", "decomposition", "--circuits", "3")[0] == 0
    code, out, _ = run_cli(capsys, "report", "counting", "--n", "12",
                           "--t", "5", "--sample-n", "6", "--trials", "40")
    assert code == 0
    # parameters where the count comparison genuinely fails exit with 3
    code, _, err = run_cli(capsys, "report", "counting", "--n", "12",
                           "--t", "10", "--sample-n", "6", "--trials", "40")
    assert code == 3 and "failing rows" in err


GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.txt"


def test_cli_output_matches_golden_transcript(tmp_path, capsys, monkeypatch):
    """Exact stdout, certificate multipliers included, of each
    `$ troplab ...` command in the transcript, run on the design (3,2),
    Bellman-Ford K4, spanning-tree K4, selection (4,2), README star,
    invalid, constant-carrying and Minkowski chain inputs."""
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "gen", "design", "--m", "3", "--d", "2", "-o", "F.fam")
    run_cli(capsys, "build", "design-approx", "--m", "3", "--d", "2", "-o", "a.ckt")
    run_cli(capsys, "convert", "a.ckt", "arithmetic", "-o", "a-arith.ckt")
    run_cli(capsys, "build", "bf", "--n", "4", "--minplus", "-o", "bf.ckt")
    run_cli(capsys, "build", "bf", "--n", "4", "-o", "bf-bool.ckt")
    run_cli(capsys, "build", "st-conn", "--n", "4", "-o", "st.ckt")
    run_cli(capsys, "build", "sel", "--n", "4", "--k", "2", "-o", "sel.ckt")
    run_cli(capsys, "convert", "sel.ckt", "arithmetic", "-o", "sel-arith.ckt")
    (tmp_path / "P.vec").write_text(serialize_vectors(simple_path_vectors(4, 1, 2)))
    (tmp_path / "T.vec").write_text(serialize_vectors(spanning_tree_vectors(4)))
    (tmp_path / "U.fam").write_text("family vars=4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    (tmp_path / "star.fam").write_text("family vars=4\n1\n2 3 4\n")
    (tmp_path / "sw.txt").write_text("weights vars=4\n20/19\n1\n1\n1\n")
    (tmp_path / "bad.ckt").write_text("circuit minplus vars=1\ng1 = add v9 v9\noutput g1\n")
    (tmp_path / "k.ckt").write_text(
        "circuit minplus vars=3\nv1 = var 1\nv2 = var 2\nk1 = const 5/2\n"
        "g1 = mul v1 k1\ng2 = add g1 v2\ng3 = mul g2 v1\noutput g3\n"
    )
    (tmp_path / "chain.ckt").write_text(
        "circuit minkowski vars=4\n"
        "v1 = var 1\nv2 = var 2\nv3 = var 3\nv4 = var 4\n"
        "g1 = mul v1 v2\ng2 = mul g1 v3\ng3 = mul g2 v4\noutput g3\n"
    )
    commands = GOLDEN.read_text().split("$ troplab ")[1:]
    assert len(commands) == 51
    for chunk in commands:
        command, expected = chunk.split("\n", 1)
        assert run_cli(capsys, *command.split())[:2] == (0, expected), command


def _command_paths(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [path for name, sub in subs[0].choices.items()
            for path in _command_paths(sub, prefix + (name,))]


def test_golden_transcript_runs_every_subcommand():
    invoked = []
    for chunk in GOLDEN.read_text().split("$ troplab ")[1:]:
        words = chunk.split("\n", 1)[0].split()
        while words[0].startswith("-"):  # top-level options, each with a value
            words = words[2:]
        invoked.append(tuple(words))
    paths = _command_paths(cli._build_parser())
    assert len(paths) == 26
    missing = [p for p in paths if not any(w[:len(p)] == p for w in invoked)]
    assert not missing


def test_report_hierarchy_certifies_each_row_once(capsys, monkeypatch):
    calls = []
    original = certify.certify_max

    def spy(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(certify, "certify_max", spy)
    assert run_cli(capsys, "report", "hierarchy", "--m", "3", "--d", "2")[0] == 0
    # the m/d row and the "refuted at 1" row
    assert calls == [Fraction(3, 2), Fraction(1)]
