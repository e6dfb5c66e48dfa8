import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import loopbraid
from loopbraid import cli, linalg, tensor
from loopbraid.affine import AffineParams, AglElement, generate_image
from loopbraid.cli import DEFAULT_SEED, _build_parser, dispatch, emit_dot
from loopbraid.errors import InvalidParameters
from loopbraid.linalg import Matrix
from loopbraid.rings import IntegersMod, ZmInt
from loopbraid.tensor import HarmonicLabel, TauRep
from loopbraid.words import Generator, Relation, s_, sigma

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def load_schema(name):
    with resources.files("loopbraid.schemas").joinpath(name + ".schema.json").open() as fh:
        return json.load(fh)


def validate(payload, name):
    jsonschema.validate(payload, load_schema(name))


def test_check_relations_affine_slb_exit_one(capsys):
    code, out = run(capsys, "check-relations", "--rep", "affine",
                    "--m", "5", "--t", "2", "--n", "3", "--variant", "SLB")
    assert code == 1
    report = json.loads(out)
    validate(report, "check_relations")
    failed = [r["label"] for r in report["results"] if not r["ok"]]
    assert failed == ["L3(i=1)"]
    assert "witness" in [r for r in report["results"] if not r["ok"]][0]


def test_check_relations_tau_ok(capsys):
    code, out = run(capsys, "check-relations", "--rep", "tau", "--N", "2",
                    "--x", "2", "--n", "3", "--variant", "SLB")
    assert code == 0
    validate(json.loads(out), "check_relations")


def test_affine_image_small(capsys):
    code, out = run(capsys, "affine-image", "--m", "3", "--t", "2", "--n", "2")
    assert code == 0
    report = json.loads(out)
    validate(report, "affine_image")
    assert report["order"] == 6
    assert report["expected_order"] == 6
    assert report["complete"] is True


def test_affine_image_certifies_surjectivity_past_the_default_cap(capsys):
    code, out = run(capsys, "affine-image", "--m", "7", "--t", "3", "--n", "4",
                    "--cap", "100000000000")
    assert code == 0
    report = json.loads(out)
    validate(report, "affine_image")
    assert report["complete"] is True
    assert report["order"] == report["expected_order"] == 11587955904
    assert report["determinants"] == report["determinants_allowed"] == [1, 2, 3, 4, 5, 6]


def test_affine_image_emit_elements(capsys):
    code, out = run(capsys, "affine-image", "--m", "3", "--t", "2", "--n", "2",
                    "--emit-elements")
    report = json.loads(out)
    assert len(report["elements"]) == 6
    validate(report, "affine_image")


def test_affine_image_report_contract(capsys):
    code, out = run(capsys, "affine-image", "--m", "3", "--t", "2", "--n", "3",
                    "--emit-elements")
    assert code == 0
    report = json.loads(out)
    validate(report, "affine_image")
    elements = report["elements"]
    assert len(elements) == report["order"] == 432
    assert elements == sorted(elements)
    assert len({tuple(e) for e in elements}) == len(elements)
    ring = IntegersMod(3)
    dets = {Matrix.from_int_rows(ring, [e[r * 3:(r + 1) * 3] for r in range(3)]).det().residue
            for e in elements}
    assert report["determinants"] == sorted(dets)
    code, out = run(capsys, "affine-image", "--m", "3", "--t", "2", "--n", "3",
                    "--cap", "10")
    assert code == 1
    report = json.loads(out)
    validate(report, "affine_image")
    assert report["complete"] is False


def test_affine_image_cut_off_is_exact_and_lists_no_elements(capsys):
    code, out = run(capsys, "affine-image", "--m", "5", "--t", "2", "--n", "3",
                    "--cap", "10", "--emit-elements")
    assert code == 1
    report = json.loads(out)
    validate(report, "affine_image")
    assert "elements" not in report
    assert (report["order"], report["complete"]) == (12000, False)
    assert report["determinants"] == report["determinants_allowed"]


def test_image_result_residues_are_the_elements():
    # residues are decoded from the row codes; elements are built from them
    result = generate_image(AffineParams(3, 2, 3), keep_elements=True)
    assert len(result.residues) == result.order == 432
    assert result.residues == sorted(result.residues)
    assert [[v.residue for r in g.rows for v in r] for g in result.elements] == result.residues
    assert generate_image(AffineParams(3, 2, 3)).residues is None
    assert generate_image(AffineParams(3, 2, 3)).elements is None


def test_affine_image_emit_elements_stdout_pinned(capsys):
    # the element order and every byte of the report are fixed by the
    # residues, not by the closure's representation
    code, out = run(capsys, "affine-image", "--m", "3", "--t", "2", "--n", "3",
                    "--emit-elements")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "7082f1ea6537d802436ef24227df666b69013d7ad1be1d7aa2dcf3a93ae85460"


@pytest.mark.parametrize("argv", [
    ("affine-image", "--m", "4", "--t", "2", "--n", "3"),   # t not a unit
    ("affine-image", "--m", "5", "--t", "2", "--n", "1"),   # one strand
    ("affine-image", "--m", "5", "--t", "6", "--n", "3"),   # t = 1 mod m
    ("affine-image", "--m", "5", "--t", "2", "--n", "3", "--cap", "0"),
    ("affine-image", "--m", "5", "--t", "2", "--n", "3", "--cap", "-5"),
    ("ybe", "--bvs", "affine", "--m", "4", "--t", "2"),     # t not a unit
])
def test_invalid_affine_parameters_exit_two(capsys, argv):
    _assert_one_usage_line(capsys, argv)


@pytest.mark.parametrize("argv", [
    ("ybe", "--bvs", "affine"),
    ("ybe", "--bvs", "affine", "--m", "5", "--t", "6", "--drinfeld"),  # 1 - t = 0 mod 5
    ("check-relations", "--rep", "affine", "--n", "3"),
    ("check-relations", "--rep", "tau", "--n", "3"),
    ("check-relations", "--rep", "tau", "--N", "2", "--n", "3", "--x", "abc"),
    ("decompose", "--N", "2", "--n", "3", "--x", "1/0"),
    ("ybe", "--bvs", "c2", "--q", "abc"),
    ("ybe", "--bvs", "c2", "--q", ""),                      # not the Laurent default
    ("decompose", "--N", "0", "--n", "3"),                  # no colors
    ("semisimple", "--N", "0", "--n", "3"),
    ("localize", "--N", "0", "--n", "3"),
    ("irreducible", "--N", "0", "--n", "3"),
    ("check-relations", "--rep", "tau", "--N", "0", "--n", "3"),
    ("bmw-check", "--N", "0"),
    ("ybe", "--bvs", "swap", "--d", "0"),
    ("ybe", "--bvs", "tau", "--N", "0"),
    ("check-relations", "--rep", "tau", "--N", "2", "--n", "1"),   # one strand
    ("check-relations", "--rep", "tau", "--N", "2", "--n", "-1"),
    ("bmw-check", "--N", "2", "--n", "2"),                  # no adjacent pair
    ("check-relations", "--rep", "tau", "--N", "3", "--n", "9"),   # 3^9 rows
    ("irreducible", "--N", "2", "--n", "-1"),               # negative strand counts
    ("semisimple", "--N", "2", "--n", "-1"),
    ("decompose", "--N", "2", "--n", "-1"),
    ("localize", "--N", "2", "--n", "-2"),
    ("localize", "--N", "3", "--n", "2"),                   # no strands left to localize
    ("localize", "--N", "3", "--n", "3"),
    ("branch", "--N", "2", "--nmax", "-1"),
    ("branch", "--N", "2", "--nmax", "0"),
    ("ybe", "--bvs", "swap", "--drinfeld"),                 # Drinfeld needs --bvs affine
    ("irreducible", "--N", "2", "--n", "3", "--x", "0"),    # sigma_j singular at x = 0
    ("semisimple", "--N", "2", "--n", "3", "--x", "0"),
    ("check-relations", "--rep", "tau", "--N", "2", "--n", "3", "--x", "0"),
    ("ybe", "--bvs", "tau", "--x", "0"),
    ("ybe", "--bvs", "c2", "--q", "0"),                     # the braiding has q^-1 entries
    ("ybe", "--bvs", "c2alt", "--q", "0"),
])
def test_missing_or_malformed_parameters_exit_two(capsys, argv):
    _assert_one_usage_line(capsys, argv)


def _assert_one_usage_line(capsys, argv):
    assert dispatch(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("usage error: ") and lines[0] != "usage error: "


def test_invalid_affine_parameters_exit_two_without_asserts():
    # python -O strips assert statements, so validation must not use them
    env = dict(os.environ, PYTHONPATH=str(Path(loopbraid.__file__).resolve().parents[1]))
    for argv in (["affine-image", "--m", "4", "--t", "2", "--n", "3"],
                 ["ybe", "--bvs", "affine", "--m", "5", "--t", "6", "--drinfeld"],
                 ["bmw-check", "--N", "2", "--n", "2"],
                 ["check-relations", "--rep", "tau", "--N", "3", "--n", "9"],
                 ["decompose", "--N", "2", "--n", "-1"],
                 ["irreducible", "--N", "2", "--n", "3", "--x", "0"]):
        proc = subprocess.run([sys.executable, "-O", "-m", "loopbraid.cli"] + argv,
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1


def test_decompose_contains_block(capsys):
    code, out = run(capsys, "decompose", "--N", "3", "--n", "3", "--x", "2")
    assert code == 0
    report = json.loads(out)
    validate(report, "decompose")
    assert {"lambda": [2, 1], "dim": 3} == \
        {k: v for k, v in next(m for m in report["modules"]
                               if m["lambda"] == [2, 1]).items()
         if k in ("lambda", "dim")}


def test_ybe_and_drinfeld(capsys):
    code, out = run(capsys, "ybe", "--bvs", "affine", "--m", "5", "--t", "2",
                    "--drinfeld")
    assert code == 0
    report = json.loads(out)
    validate(report, "ybe")
    assert report["ybe_ok"]
    assert report["drinfeld"]["swap_conjugate_equal"]


def test_branch_graph(capsys, tmp_path):
    dotfile = tmp_path / "graph.dot"
    code, out = run(capsys, "branch", "--N", "2", "--nmax", "2",
                    "--dot", str(dotfile))
    assert code == 0
    report = json.loads(out)
    validate(report, "branch")
    assert len(report["nodes"]) == 4 and len(report["edges"]) == 3
    text = dotfile.read_text()
    assert text.startswith("digraph harmonic {")
    assert text.count("->") == 3


def test_irreducible_exit_codes(capsys):
    code, out = run(capsys, "irreducible", "--N", "2", "--n", "3", "--x", "2")
    assert code == 0
    validate(json.loads(out), "irreducible")
    code, out = run(capsys, "irreducible", "--N", "2", "--n", "3", "--x", "-1")
    assert code == 1
    report = json.loads(out)
    assert not report["all_irreducible"]


def test_bmw_check_cli(capsys):
    code, out = run(capsys, "bmw-check", "--N", "2")
    assert code == 0
    validate(json.loads(out), "bmw")
    code, out = run(capsys, "bmw-check", "--N", "3")
    assert code == 1
    report = json.loads(out)
    assert not report["relations"]["r2"]["ok"]


def test_semisimple_cli(capsys):
    code, out = run(capsys, "semisimple", "--N", "2", "--n", "3", "--x", "2")
    assert code == 0
    report = json.loads(out)
    validate(report, "semisimple")
    assert report["radical_dim"] == 0


def test_localize_cli(capsys):
    code, out = run(capsys, "localize", "--N", "2", "--n", "4", "--x", "2")
    assert code == 0
    validate(json.loads(out), "localize")


def test_usage_error_exit_two(capsys):
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["affine-image", "--m", "3"]) == 2
    # irreducible is always computed over the rationals; there is no --ring
    assert dispatch(["irreducible", "--N", "2", "--n", "3", "--ring", "zp"]) == 2


@pytest.mark.parametrize("argv,reason", [
    (("irreducible", "--N", "2", "--n", "3", "--ring", "zp"), "unrecognized arguments"),
    (("irreducible", "--N", "3", "--n", "5", "--x"), "expected one argument"),
    (("affine-image", "--m", "3"), "required"),
    (("no-such-command",), "invalid choice"),
])
def test_parser_errors_print_their_reason(capsys, argv, reason):
    assert dispatch(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("usage error: ") and reason in captured.err


@pytest.mark.parametrize("argv,option", [
    (("semisimple", "--N", "2", "--n", "3"), "--x"),
    (("irreducible", "--N", "3", "--n", "5"), "--x"),
    (("check-relations", "--rep", "tau", "--N", "2", "--n", "3"), "--x"),
    (("ybe", "--bvs", "c2"), "--q"),
    (("ybe", "--bvs", "tau"), "--x"),
])
def test_negative_fraction_is_a_value(capsys, argv, option):
    # argparse's own pattern for negative numbers does not cover -3/2
    split = run(capsys, *argv, option, "-3/2")
    joined = run(capsys, *argv, option + "=-3/2")
    assert split == joined and split[1]


def test_reports_are_byte_identical(capsys):
    _, out1 = run(capsys, "decompose", "--N", "2", "--n", "4", "--x", "2")
    _, out2 = run(capsys, "decompose", "--N", "2", "--n", "4", "--x", "2")
    assert out1 == out2
    _, out1 = run(capsys, "branch", "--N", "2", "--nmax", "3")
    _, out2 = run(capsys, "branch", "--N", "2", "--nmax", "3")
    assert out1 == out2


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LBREP_SEED", "12345")
    _, out = run(capsys, "affine-image", "--m", "3", "--t", "2", "--n", "2")
    assert json.loads(out)["manifest"]["seed"] == 12345


@pytest.mark.parametrize("sizes", [("--N", "3", "--nmax", "7"), ("--N", "2", "--nmax", "9")],
                         ids=" ".join)
def test_branch_verdict_ignores_the_seed(capsys, monkeypatch, sizes):
    # these sizes exit 1 at some seeds when multiplicities are sampled
    reports = []
    monkeypatch.delenv("LBREP_SEED", raising=False)
    for seed in (DEFAULT_SEED, 1, 5):
        if seed != DEFAULT_SEED:
            monkeypatch.setenv("LBREP_SEED", str(seed))
        code, out = run(capsys, "branch", *sizes)
        assert code == 0
        report = json.loads(out)
        assert report["manifest"].pop("seed") == seed
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


def test_emit_dot_empty():
    assert emit_dot({"nodes": [], "edges": []}) == "digraph harmonic {}"


def test_manifest_embedded_everywhere(capsys):
    for argv in (["check-relations", "--rep", "affine", "--m", "3", "--t", "2",
                  "--n", "2", "--variant", "LB"],
                 ["ybe", "--bvs", "swap", "--d", "3"],
                 ["semisimple", "--N", "2", "--n", "2", "--x", "2"]):
        _, out = run(capsys, *argv)
        manifest = json.loads(out)["manifest"]
        assert set(manifest) == {"command", "parameters", "seed", "ring", "version"}


# The manifest records every parsed option except the subcommand and the
# report-shaping flags (--emit-elements, --basis, --dot, --drinfeld), and
# check-relations leaves out the options of the other --rep.
@pytest.mark.parametrize("argv, parameters", [
    ("check-relations --rep affine --m 5 --t 2 --n 3 --variant SLB",
     {"m": 5, "n": 3, "rep": "affine", "t": 2, "transposed": False, "variant": "SLB"}),
    ("check-relations --rep tau --N 3 --x 7/2 --n 4 --variant SLB",
     {"N": 3, "form": "x", "n": 4, "rep": "tau", "transposed": False, "variant": "SLB",
      "x": "7/2"}),
    ("check-relations --rep tau --N 2 --n 3 --m 5 --t 2",
     {"N": 2, "form": "x", "n": 3, "rep": "tau", "transposed": False, "variant": "LB",
      "x": "2"}),
    ("check-relations --rep affine --m 5 --t 2 --n 3 --N 4 --x 3 --form q",
     {"m": 5, "n": 3, "rep": "affine", "t": 2, "transposed": False, "variant": "LB"}),
    ("check-relations --rep tau --N 2 --form q --n 3 --transposed",
     {"N": 2, "form": "q", "n": 3, "rep": "tau", "transposed": True, "variant": "LB",
      "x": "2"}),
    ("ybe --bvs affine --m 5 --t 2 --drinfeld", {"bvs": "affine", "m": 5, "t": 2}),
    ("ybe --bvs swap --d 3 --m 5", {"bvs": "swap", "d": 3, "m": 5}),
    ("ybe --bvs c2", {"bvs": "c2"}),
    ("ybe --bvs c2alt --q 3", {"bvs": "c2alt", "q": "3"}),
    ("ybe --bvs tau --N 3 --x 5/2", {"N": 3, "bvs": "tau", "x": "5/2"}),
    ("affine-image --m 3 --t 2 --n 3", {"cap": 10000000, "m": 3, "n": 3, "t": 2}),
    ("affine-image --m 3 --t 2 --n 2 --cap 100 --emit-elements",
     {"cap": 100, "m": 3, "n": 2, "t": 2}),
    ("decompose --N 3 --n 4 --x 2", {"N": 3, "n": 4, "x": "2"}),
    ("decompose --N 2 --n 3 --basis", {"N": 2, "n": 3, "x": "2"}),
    ("branch --N 2 --nmax 3 --dot g.dot", {"N": 2, "nmax": 3, "x": "2"}),
    ("irreducible --N 2 --n 5 --x 2", {"N": 2, "n": 5, "ring": "rational", "x": "2"}),
    ("bmw-check --N 3", {"N": 3, "n": 3}),
    ("semisimple --N 2 --n 3 --x 2", {"N": 2, "n": 3, "x": "2"}),
    ("localize --N 2 --n 4 --x 2", {"N": 2, "n": 4, "x": "2"}),
    ("branch --N 3 --nmax 3 --x 3", {"N": 3, "nmax": 3, "x": "3"}),
])
def test_manifest_parameters(capsys, tmp_path, monkeypatch, argv, parameters):
    monkeypatch.chdir(tmp_path)  # branch --dot writes its file here
    code, out = run(capsys, *argv.split())
    assert code in (0, 1)
    assert json.loads(out)["manifest"]["parameters"] == parameters


# ---------------------------------------------------------------------------
# Start-up cost and the plain value classes.

def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each CLI run pays for these imports; together they cost about half
    # of `import loopbraid.cli`.  argparse (with gettext and locale) is for
    # help and errors only, and each command imports its own modules.
    env = dict(os.environ, PYTHONPATH=str(Path(loopbraid.__file__).resolve().parents[1]))
    for statement, ours in (
            ("import loopbraid.cli",
             {"loopbraid", "loopbraid.cli", "loopbraid.errors", "loopbraid.rings"}),
            ("import loopbraid", {"loopbraid"})):
        code = ("import sys\n"
                "before = set(sys.modules)\n"
                "%s\n"
                "print(' '.join(sorted(set(sys.modules) - before)))\n" % statement)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        new = proc.stdout.split()
        assert {m for m in new if m.split(".")[0] == "loopbraid"} == ours, statement
        assert not {"dataclasses", "inspect", "argparse", "gettext", "locale"} & set(new)


# dispatch builds the subparser of argv[0] only; every argv behaves as with
# the full parser.

def _parse(parser, capsys, argv):
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_one_subcommand_parser_reads_argv_as_the_full_parser(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    required = next(flag for flag, keywords in
                    cli._COMMANDS[command][2] + cli._COMMANDS[command][3]
                    if keywords.get("required"))
    for argv in ([command, "--help"], [command, "--no-such-option"], [command],
                 [command, required]):
        full = _parse(_build_parser(), capsys, argv)
        one = _parse(_build_parser(command), capsys, argv)
        assert full == one and full[0] in (0, 2), argv
        assert (full[1] if full[0] == 0 else full[2]).startswith(
            "usage" if full[0] == 0 else "usage error: loopbraid %s: " % command)


def test_dispatch_builds_only_the_named_subcommand(capsys, monkeypatch):
    built = []

    def counted(command=None):
        built.append(command)
        return _build_parser(command)

    monkeypatch.setattr(cli, "_build_parser", counted)
    # a well-formed argv is read off _COMMANDS, with no parser at all
    assert dispatch(["bmw-check", "--N", "2"]) == 0
    assert dispatch(["bmw-check", "--N=2", "--n", "3"]) == 0
    assert dispatch(["bmw-check"]) == 2
    assert dispatch(["bmw-check", "--N", "2", "--n", "2", "-h"]) == 0
    for argv in ([], ["--help"], ["no-such-command"], ["--", "bmw-check"]):
        assert dispatch(argv) in (0, 2)
    capsys.readouterr()
    assert built == ["bmw-check", "bmw-check", None, None, None, None]


def _child(argv, *options, env=None, timeout=120, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(loopbraid.__file__).resolve().parents[1]),
               **(env or {}))
    return subprocess.run([sys.executable, *options, "-m", "loopbraid.cli", *argv],
                          capture_output=True, env=env, timeout=timeout, **kwargs)


def test_a_child_process_keeps_exit_codes_and_complete_output(capsys, tmp_path, monkeypatch):
    # main() ends the process with os._exit; the report, the --dot file and
    # the exit code must all come through
    monkeypatch.chdir(tmp_path)
    elements = ["affine-image", "--m", "5", "--t", "2", "--n", "3", "--emit-elements"]
    for code, argv, in_process in (
            (0, elements, elements),
            (1, ["bmw-check", "--N", "3"], ["bmw-check", "--N", "3"]),
            (0, ["branch", "--N", "3", "--nmax", "4", "--dot", "child.dot"],
             ["branch", "--N", "3", "--nmax", "4", "--dot", "self.dot"])):
        proc = _child(argv, cwd=tmp_path)
        assert proc.returncode == dispatch(in_process) == code
        assert proc.stdout.decode() == capsys.readouterr().out
        assert proc.stderr.startswith(b"wall_time_ms=") and proc.stderr.count(b"\n") == 1
        if argv == elements:
            # 12,000 elements of 9 residues: many encoder batches
            assert proc.stdout.count(b"\n") > 12000 * 9
    assert (tmp_path / "child.dot").read_text() == (tmp_path / "self.dot").read_text()
    assert (tmp_path / "child.dot").read_text().count("->") > 1
    proc = _child(["bmw-check", "--N", "2", "--n", "2"])
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"usage error: ") and proc.stderr.count(b"\n") == 1


def test_a_closed_pipe_exits_one_without_a_traceback():
    # the report (about 0.6 MB) outgrows the pipe buffer, so the child is
    # still writing when the reader goes away
    env = dict(os.environ, PYTHONPATH=str(Path(loopbraid.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "loopbraid.cli", "affine-image", "--m", "5",
                             "--t", "2", "--n", "3", "--emit-elements"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


@pytest.mark.parametrize("seed", ["abc", "", "1.5"])
def test_a_malformed_seed_is_a_usage_error_before_any_work(capsys, monkeypatch, seed):
    def refused(*args):
        raise AssertionError("the computation ran")

    monkeypatch.setenv("LBREP_SEED", seed)
    monkeypatch.setattr("loopbraid.analysis.semisimplicity_check", refused)
    assert dispatch(["semisimple", "--N", "2", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: LBREP_SEED=%r is not an integer\n" % seed


def test_a_malformed_seed_is_a_usage_error_without_asserts():
    proc = _child(["bmw-check", "--N", "2"], "-O", env={"LBREP_SEED": "abc"})
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"usage error: LBREP_SEED='abc' is not an integer\n"


def test_main_runs_the_atexit_handlers_before_it_exits(tmp_path):
    # main() skips the interpreter teardown, not the handlers registered
    # with atexit (coverage writes its data from one)
    mark = tmp_path / "ran"
    code = ("import atexit, pathlib, sys\n"
            "atexit.register(pathlib.Path(sys.argv[1]).write_text, 'ran')\n"
            "sys.argv[1:] = ['bmw-check', '--N', '3']\n"
            "from loopbraid.cli import main\n"
            "main()\n"
            "print('main returned')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(loopbraid.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(mark)], capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["ok"] is False
    assert proc.stderr.startswith(b"wall_time_ms=") and proc.stderr.count(b"\n") == 1
    assert mark.read_text() == "ran"


def test_an_unwritable_dot_path_is_a_usage_error(capsys, tmp_path):
    # a missing directory, and a directory in place of the file
    for target in (tmp_path / "missing" / "g.dot", tmp_path):
        argv = ["branch", "--N", "2", "--nmax", "3", "--dot", str(target)]
        _assert_one_usage_line(capsys, argv)
        proc = _child(argv, "-O")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"usage error: cannot write --dot ")
        assert proc.stderr.count(b"\n") == 1
    assert not (tmp_path / "missing").exists()


def test_a_block_past_the_limit_is_refused_before_any_word_is_listed(capsys, monkeypatch):
    # the largest block of (2, 6) is (3, 3), of 20 words
    monkeypatch.setattr(linalg, "BLOCK_LIMIT", 20)
    assert dispatch(["decompose", "--N", "2", "--n", "6"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(linalg, "BLOCK_LIMIT", 19)
    monkeypatch.setattr(tensor, "_words_with_content", None)  # never reached
    _assert_one_usage_line(capsys, ["decompose", "--N", "2", "--n", "6"])
    with pytest.raises(InvalidParameters, match="charge block of 20 words refused"):
        tensor.partition_block(2, 6, (3, 3))


def test_many_colors_are_refused_before_any_composition_is_listed():
    # (30, 30) has about 5.9 * 10^16 compositions and (12, 14) about
    # 1.3 * 10^11: the largest block is refused before the index is listed
    for argv in (["decompose", "--N", "30", "--n", "30"],
                 ["semisimple", "--N", "12", "--n", "14"]):
        proc = _child(argv, timeout=10)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"usage error: charge block of ")
        assert proc.stderr.count(b"\n") == 1


def test_long_words_and_many_colors_list_their_blocks_without_recursion():
    for argv, key in ((["decompose", "--N", "1000", "--n", "1"], "modules"),
                      (["semisimple", "--N", "1", "--n", "1000"], "algebra_dim")):
        proc = _child(argv, timeout=60)
        assert proc.returncode == 0 and b"Traceback" not in proc.stderr
        assert json.loads(proc.stdout)[key]


def test_an_incomplete_restriction_exits_one(capsys, monkeypatch):
    # every summand refused: the rule's dimensions cannot fill a module
    monkeypatch.setattr("loopbraid.analysis._rule_multiplicity", lambda label, sub: 0)
    assert dispatch(["branch", "--N", "3", "--nmax", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: summand dimensions 0 != module dimension ")
    assert captured.err.count("\n") == 1


# The names loopbraid/__init__.py imported eagerly; each now resolves on
# first use.
_EXPORTED = """GroupTypeViolation IncompleteMatch LoopBraidError NonFieldModulus NotAUnit
    NotGroupType NotIdempotent NotStochastic SingularImage QQ LQ IntegersMod LaurentPoly
    Rational ZmInt mod_inverse unit_group Matrix WeightedPerm Generator RelationSet
    check_relations evaluate_word relations_for s_ sigma BVS GroupTypeData LoopBVS affine_bvs
    affine_loop bvs_from_group_type c2_hecke check_yang_baxter diagonal_bvs extend_to_loop
    is_diagonalizable_group_type local_rep swap_bvs tau_loop AffineParams AglElement
    agl_order generate_image rho_generators surjectivity_predicate to_agl_form ChargeBlock
    HarmonicLabel ModuleSpec TauRep charge_blocks f_operator harmonic_blocks
    harmonic_decompose localize right_color_action bmw_check branching_graph end_dim hom_dim
    is_e_null is_irreducible restrict_and_branch semisimplicity_check""".split()


def test_the_package_resolves_every_exported_name():
    from loopbraid.tensor import TauRep as defined
    assert loopbraid.TauRep is defined
    for name in _EXPORTED:
        assert hasattr(loopbraid, name), name
    namespace = {}
    exec("from loopbraid import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(_EXPORTED)
    assert set(_EXPORTED) <= set(dir(loopbraid))
    with pytest.raises(AttributeError, match="no_such_name"):
        loopbraid.no_such_name


# (an instance, an equal one built separately, a different one)
VALUE_TRIPLES = [
    (ZmInt(7, 5), ZmInt(2, 5), ZmInt(2, 7)),
    (Generator("s", 1, -1), s_(1), sigma(1)),
    (Relation("S3(i=1)", (s_(1), s_(1)), ()), Relation("S3(i=1)", (s_(1), s_(1)), ()),
     Relation("S3(i=1)", (s_(1),), ())),
    (AffineParams(5, 2, 3), AffineParams(5, 2, 3), AffineParams(5, 3, 3)),
    (AglElement((1, 0, 0, 1), (0, 0), 7), AglElement((1, 0, 0, 1), (0, 0), 7),
     AglElement((1, 0, 0, 1), (0, 1), 7)),
    (TauRep(2, 2), TauRep(2, Fraction(4, 2)), TauRep(2, 3)),
    (HarmonicLabel((2, 1), ((1,), (1,))), HarmonicLabel((2, 1), ((1,), (1,))),
     HarmonicLabel((2, 1), ((1,), (2,)))),
]


@pytest.mark.parametrize("a,b,c", VALUE_TRIPLES,
                         ids=[type(t[0]).__name__ for t in VALUE_TRIPLES])
def test_value_classes_compare_and_hash_by_value(a, b, c):
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert a != c and b != c
    assert a != (a,) and a != None  # noqa: E711 - other types are never equal
    table = {a: "a", c: "c"}
    assert table[b] == "a" and len({a, b, c}) == 2


def test_value_class_reprs_are_unchanged():
    assert repr(ZmInt(7, 5)) == "2 (mod 5)"
    assert repr(HarmonicLabel((2, 1), ((1,), (1,)))) == \
        "HarmonicLabel(lam=(2, 1), mu=((1,), (1,)))"


# ---------------------------------------------------------------------------
# Grammar fuzz: argv built from the parser's own subcommands and options,
# with small bounded values, run in-process.

_RATIONALS = ["0", "1", "-1", "2", "7/2", "-3/2", "1/0", "abc"]
_VALUES = {"N": st.integers(-1, 3), "n": st.integers(-1, 4), "nmax": st.integers(-1, 4),
           "m": st.integers(-1, 8), "t": st.integers(-2, 8), "d": st.integers(-1, 3),
           "cap": st.sampled_from([-1, 0, 1, 10]), "x": st.sampled_from(_RATIONALS),
           "q": st.sampled_from(_RATIONALS), "dot": st.just("graph.dot")}
_SUBCOMMANDS = next(a for a in _build_parser()._actions if a.dest == "command").choices


@st.composite
def _cli_argv(draw):
    """A subcommand and a draw of its options, each required one left out
    now and then."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    for action in _SUBCOMMANDS[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if not draw(st.integers(0, 7) if action.required else st.booleans()):
            continue
        argv.append(action.option_strings[0])
        if action.choices is not None:
            argv.append(str(draw(st.sampled_from(list(action.choices)))))
        elif action.nargs != 0:
            argv.append(str(draw(_VALUES[action.dest])))
    if "--emit-elements" in argv and "--cap" not in argv:
        # the default cap would list up to 10^7 elements
        argv += ["--cap", str(draw(_VALUES["cap"]))]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cli_argv())
def test_cli_grammar_fuzz(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # --dot writes here
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in captured.err, argv
    if code == 2:
        assert captured.out == "" and captured.err.count("\n") == 1, argv
    else:
        validate(json.loads(captured.out), {"bmw-check": "bmw"}.get(
            argv[0], argv[0].replace("-", "_")))


# ---------------------------------------------------------------------------
# The plain reader against argparse: an argv that _parse_plain reads gives
# argparse's namespace, and one it leaves gets argparse's exit code and
# text through dispatch.

_WORDS = ["2", "3", "0", "-1", "-3/2", "-1.5", "1.5", "", "abc", "7/2", "-", "--N", "x", "q",
          "tau", "affine", "SLB", "c2", "graph.dot"]


@st.composite
def _messy_argv(draw):
    """A subcommand, most of its required flags, then a draw of its exact
    flags in the space and = forms, repeats, abbreviations, unknown flags,
    bare flags, help, "--" and positionals."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, _, parent, arguments = cli._COMMANDS[command]
    argv = [command]
    for flag, keywords in parent + arguments:
        if keywords.get("required") and draw(st.integers(0, 5)):
            argv += [flag, str(draw(st.sampled_from(keywords.get("choices", (2, 3)))))]
    names = [flag for flag, _ in parent + arguments]
    prefixes = [flag[:k] for flag in names for k in range(3, len(flag))] or ["--"]
    flags, values = st.sampled_from(names), st.sampled_from(_WORDS)
    chunk = st.one_of(
        st.tuples(flags, values).map(list),
        st.tuples(flags, values).map(lambda fv: ["=".join(fv)]),
        flags.map(lambda f: [f]),
        st.sampled_from(prefixes).map(lambda f: [f]),
        st.sampled_from([["--no-such-option"], ["-h"], ["--help"], ["--"], ["3"],
                         ["--x", "-3/2"], ["--x="], ["--x=--N"]]))
    for words in draw(st.lists(chunk, max_size=4)):
        argv += words
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=1000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_cli_argv(), _messy_argv()))
@example(["semisimple", "--N", "2", "--n", "3", "--x", "-3/2"])
@example(["semisimple", "--N", "2", "--n", "3", "--x="])
@example(["semisimple", "--N", "2", "--n", "3", "--x=--N"])
@example(["branch", "--N", "3", "--nm", "4"])
@example(["decompose", "--N", "2", "--n", "3", "--basis=1"])
@example(["bmw-check", "--N", "2", "--N", "3", "--n", "x"])
@example(["branch", "--N", "4", "--nmax", "2"])
def test_the_plain_reader_agrees_with_argparse(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    plain = cli._parse_plain(argv)
    try:
        parsed = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        parsed = exc.code
    captured = capsys.readouterr()
    if plain is not None:
        assert vars(plain) == parsed, argv
    elif parsed in (0, 2):
        # help or a usage error: the same exit code and text as argparse's
        assert dispatch(argv) == parsed, argv
        assert capsys.readouterr() == captured, argv


def _benchmark_cases():
    spec = importlib.util.spec_from_file_location("perfbench_cases",
                                                  ROOT / "perfbench" / "cases.py")
    cases = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(cases)
    return [case for workload in cases.WORKLOADS.values() for case in workload]


def _readme_argvs():
    argvs = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("loopbraid "):
            words = line.split("#")[0].split()[1:]
            argvs.append([w for w in words if w != "[--basis]"])
            if "[--basis]" in words:
                argvs.append([w.strip("[]") for w in words])
    return argvs


def test_the_plain_reader_reads_every_benchmark_and_readme_argv():
    # these runs take the fast path: no argparse at all
    argvs = [list(case.argv) for case in _benchmark_cases()] + _readme_argvs()
    assert len(argvs) == 21 + 13
    for argv in argvs:
        plain = cli._parse_plain(argv)
        assert plain is not None, argv
        assert vars(plain) == vars(_build_parser().parse_args(argv)), argv
