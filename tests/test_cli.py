import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import loopbraid
from loopbraid.cli import dispatch, emit_dot
from loopbraid.linalg import Matrix
from loopbraid.rings import IntegersMod


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


@pytest.mark.parametrize("argv", [
    ("affine-image", "--m", "4", "--t", "2", "--n", "3"),   # t not a unit
    ("affine-image", "--m", "5", "--t", "2", "--n", "1"),   # one strand
    ("affine-image", "--m", "5", "--t", "6", "--n", "3"),   # t = 1 mod m
    ("ybe", "--bvs", "affine", "--m", "4", "--t", "2"),     # t not a unit
])
def test_invalid_affine_parameters_exit_two(capsys, argv):
    assert dispatch(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("usage error: ") and lines[0] != "usage error: "


def test_invalid_affine_parameters_exit_two_without_asserts():
    # python -O strips assert statements, so validation must not use them
    env = dict(os.environ, PYTHONPATH=str(Path(loopbraid.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-m", "loopbraid.cli", "affine-image",
                           "--m", "4", "--t", "2", "--n", "3"],
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
