"""Workloads of the loopbraid benchmark and the correctness gate of each case.

A case is one ``loopbraid`` CLI invocation with its expected exit code and a
verdict check on the JSON report.  Every case must pass the gate on every
seed: the seed only changes the words that ``branch`` samples, never a
verdict.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

try:
    import jsonschema
except ImportError:  # reported by check_environment, never silently skipped
    jsonschema = None

SCHEMA_FILES = {
    "check-relations": "check_relations.schema.json",
    "ybe": "ybe.schema.json",
    "affine-image": "affine_image.schema.json",
    "decompose": "decompose.schema.json",
    "branch": "branch.schema.json",
    "irreducible": "irreducible.schema.json",
    "bmw-check": "bmw.schema.json",
    "semisimple": "semisimple.schema.json",
    "localize": "localize.schema.json",
}


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple
    exit_code: int
    verdict: Callable  # report -> error text, or None when the verdict holds


def _expect(cond, text):
    return None if cond else text


def _affine(order, dets=None, surjective=True):
    def check(r):
        if r["order"] != order or not r["complete"]:
            return "order %s complete %s, expected %d" % (r["order"], r["complete"], order)
        if r["surjective_predicted"] != surjective:
            return "surjective_predicted is %s" % r["surjective_predicted"]
        if surjective and r["expected_order"] != order:
            return "expected_order %s" % r["expected_order"]
        if not set(r["determinants"]) <= set(r["determinants_allowed"]):
            return "determinant outside {+-t^k}"
        if dets is not None and r["determinants"] != dets:
            return "determinants %s, expected %s" % (r["determinants"], dets)
        return None
    return check


def _semisimple(algebra_dim, center_dim):
    def check(r):
        got = (r["radical_dim"], r["semisimple"], r["algebra_dim"], r["center_dim"])
        return _expect(got == (0, True, algebra_dim, center_dim),
                       "radical/semisimple/algebra/center = %s" % (got,))
    return check


def _all_irreducible(r):
    return _expect(r["all_irreducible"] and r["modules"]
                   and all(m["end_dim"] == 1 for m in r["modules"]),
                   "a harmonic module is not irreducible")


def _localized(r):
    return _expect(r["modules"] and all(m["ok"] for m in r["modules"]),
                   "a localized dimension differs from its prediction")


def _bmw_r2_witnessed(r):
    r2 = r["relations"].get("r2", {})
    return _expect(not r["ok"] and not r2.get("ok", True) and r2.get("witness"),
                   "r2 should fail with a witness")


def _bmw_all_ok(r):
    return _expect(r["ok"] and all(v["ok"] for v in r["relations"].values()),
                   "a BMW identity fails")


def _relations_ok(r):
    return _expect(r["ok"] and r["results"], "a relation fails")


def _affine_fails_only_l3(r):
    failed = [x["label"] for x in r["results"] if not x["ok"]]
    return _expect(not r["ok"] and failed and all(f.startswith("L3(") for f in failed)
                   and all("witness" in x for x in r["results"] if not x["ok"]),
                   "expected only witnessed L3 failures, got %s" % failed)


def _decomposed(basis):
    def check(r):
        if not (r["checks"]["young_ok"] and r["checks"]["harmonic_ok"] and r["modules"]):
            return "dimension bookkeeping fails"
        if basis and any(len(m["basis"]) != m["dim"] for m in r["modules"]):
            return "basis length differs from module dimension"
        return None
    return check


def _branch_graph(dot_in_report):
    def check(r):
        if not r["nodes"] or not r["edges"]:
            return "empty branching graph"
        for node in r["nodes"]:
            if node["n"] < 2:
                continue
            out = sum(e["multiplicity"] * e["dim"] for e in r["edges"] if e["src"] == node["id"])
            if out != node["dim"]:
                return "restriction of %s has dimension %d, not %d" % (node["id"], out, node["dim"])
        if ("dot" in r) != dot_in_report:
            return "dot text placement is wrong"
        return None
    return check


def _ybe_drinfeld(r):
    d = r["drinfeld"]
    return _expect(r["ybe_ok"] and d["swap_conjugate_equal"] and d["transpose_at_inverse_t_equal"],
                   "Yang-Baxter or Drinfeld check fails")


def _c(case_id, cmd, exit_code, verdict):
    return Case(case_id, tuple(cmd.split()), exit_code, verdict)


# Each list runs in order, one child at a time.  The comment above each
# workload says which mechanism it stresses; BENCHMARK.json says why.
WORKLOADS = {
    # Dense Matrix.__mul__ over ZmInt inside the breadth-first closure.
    "affine_closure": [
        _c("affine-m5-t2-n3", "affine-image --m 5 --t 2 --n 3", 0, _affine(12000)),
        _c("affine-m3-t2-n3", "affine-image --m 3 --t 2 --n 3", 0, _affine(432)),
        _c("affine-m13-t3-n2", "affine-image --m 13 --t 3 --n 2", 0,
           _affine(78, dets=[1, 3, 4, 9, 10, 12], surjective=False)),
    ],
    # Everything else: dense Fraction row reduction in RowSpan (semisimple:
    # algebra closure, Gram and center systems), sparse projector spans,
    # Laurent products, mul_vec and WeightedPerm compose, plus many short
    # processes (import and cli cost).
    "certificates": [
        _c("semisimple-2-4-2", "semisimple --N 2 --n 4 --x 2", 0, _semisimple(35, 4)),
        _c("semisimple-2-4-3", "semisimple --N 2 --n 4 --x 3", 0, _semisimple(35, 4)),
        _c("semisimple-3-3-2", "semisimple --N 3 --n 3 --x 2", 0, _semisimple(16, 5)),
        _c("irreducible-4-5", "irreducible --N 4 --n 5", 0, _all_irreducible),
        _c("localize-3-6", "localize --N 3 --n 6", 0, _localized),
        _c("bmw-3-4", "bmw-check --N 3 --n 4", 1, _bmw_r2_witnessed),
        _c("branch-3-6", "branch --N 3 --nmax 6", 0, _branch_graph(True)),
        _c("decompose-3-6-basis", "decompose --N 3 --n 6 --basis", 0, _decomposed(True)),
        _c("relations-tau-q-3-5", "check-relations --rep tau --N 3 --form q --n 5 --variant SLB",
           0, _relations_ok),
        # README examples, with README's exit codes.
        _c("readme-relations-affine", "check-relations --rep affine --m 5 --t 2 --n 3 --variant SLB",
           1, _affine_fails_only_l3),
        _c("readme-relations-tau", "check-relations --rep tau --N 3 --x 7/2 --n 4 --variant SLB",
           0, _relations_ok),
        _c("readme-ybe-drinfeld", "ybe --bvs affine --m 5 --t 2 --drinfeld", 0, _ybe_drinfeld),
        _c("readme-decompose", "decompose --N 3 --n 4 --x 2", 0, _decomposed(False)),
        _c("readme-branch-dot", "branch --N 3 --nmax 4 --dot graph.dot", 0, _branch_graph(False)),
        _c("readme-irreducible", "irreducible --N 2 --n 5 --x 2", 0, _all_irreducible),
        _c("readme-bmw-2", "bmw-check --N 2", 0, _bmw_all_ok),
        _c("readme-bmw-3", "bmw-check --N 3", 1, _bmw_r2_witnessed),
        _c("readme-localize", "localize --N 2 --n 4 --x 2", 0, _localized),
    ],
}


class Gate:
    """Checks one case execution.  Report hashes per case and manifest are
    kept in ``hash_file`` across runs of the checkout, so a report that
    differs from an earlier one with the same manifest fails."""

    def __init__(self, schema_dir, seed, hash_file):
        self.seed = seed
        self.schemas = {}
        for cmd, name in SCHEMA_FILES.items():
            with open(schema_dir / name, encoding="utf-8") as fh:
                self.schemas[cmd] = json.load(fh)
        self.hash_file = hash_file
        self.hashes = {}
        if hash_file.exists():
            with open(hash_file, encoding="utf-8") as fh:
                self.hashes = json.load(fh)

    def save(self):
        with open(self.hash_file, "w", encoding="utf-8") as fh:
            json.dump(self.hashes, fh, indent=0, sort_keys=True)

    def check(self, case: Case, code: int, stdout: bytes) -> str | None:
        """Error text for a failed case, None when every check holds."""
        if code != case.exit_code:
            return "exit code %d, expected %d" % (code, case.exit_code)
        try:
            report = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON report"
        try:
            jsonschema.validate(report, self.schemas[case.argv[0]])
        except jsonschema.ValidationError as exc:
            return "schema: %s" % exc.message
        if report["manifest"]["seed"] != self.seed:
            return "manifest seed %s, expected %d" % (report["manifest"]["seed"], self.seed)
        try:
            error = case.verdict(report)
        except (KeyError, TypeError) as exc:
            error = "report lacks a verdict field: %r" % (exc,)
        if error:
            return error
        key = case.id + " " + json.dumps(report["manifest"], sort_keys=True)
        digest = hashlib.sha256(stdout).hexdigest()
        if self.hashes.setdefault(key, digest) != digest:
            return "stdout differs from an earlier run with the same manifest"
        return None
