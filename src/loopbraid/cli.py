"""Command-line front end: JSON reports on stdout, wall time on stderr,
exit code 0 when every asserted check passed, 1 when a check failed, 2 on
usage errors.  Reports are deterministic byte-for-byte for equal manifests
and inputs; the randomization seed is recorded in the manifest and can be
overridden with the LBREP_SEED environment variable."""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .affine import (AffineParams, agl_order, drinfeld_report, generate_image,
                     rho_generators, signed_power_set, surjectivity_predicate)
from .analysis import (bmw_check, branching_graph, default_seed,
                       harmonic_end_dims, semisimplicity_check)
from .braided import affine_bvs, c2_hecke, diagonal_bvs, swap_bvs
from .errors import InvalidParameters, LoopBraidError
from .rings import rational_from_str
from .tensor import (TauRep, charge_blocks, f_operator, full_images,
                     harmonic_decompose, localized_young_dim, localized_harmonic_prediction,
                     localize, partition_block, tensor_dimension_checks,
                     young_module)
from .words import check_relations, relations_for

SUBCOMMANDS = ("check-relations", "ybe", "affine-image", "decompose",
               "branch", "irreducible", "bmw-check", "semisimple", "localize")


def _manifest(command, params, ring):
    return {"command": command,
            "parameters": {k: v for k, v in sorted(params.items()) if v is not None},
            "seed": default_seed(),
            "ring": ring,
            "version": __version__}


def _emit(report):
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=1) + "\n")


def _frac(text):
    try:
        return Fraction(rational_from_str(text))
    except (ValueError, ZeroDivisionError):
        raise InvalidParameters("%r is not a rational number" % text) from None


def _require(args, names, what):
    missing = ["--" + name for name in names if getattr(args, name) is None]
    if missing:
        raise InvalidParameters("%s needs %s" % (what, " and ".join(missing)))


# ---------------------------------------------------------------------------
# Handlers; each returns (report dict, exit code).

def _cmd_check_relations(args):
    rels = relations_for(args.n, args.variant)
    if args.rep == "affine":
        _require(args, ("m", "t"), "--rep affine")
        p = AffineParams(args.m, args.t, args.n)
        images = rho_generators(p)
        ring = "zm"
        params = {"rep": "affine", "m": args.m, "t": args.t, "n": args.n,
                  "variant": args.variant, "transposed": args.transposed}
    else:
        _require(args, ("N",), "--rep tau")
        form = args.form
        rep = TauRep(args.N, _frac(args.x) if form == "x" else None, form)
        images = full_images(rep, args.n)
        ring = "rational" if form == "x" else "laurent"
        params = {"rep": "tau", "N": args.N, "x": args.x, "form": form,
                  "n": args.n, "variant": args.variant, "transposed": args.transposed}
    rep_out = check_relations(images, rels, transposed=args.transposed)
    report = rep_out.to_json()
    report["manifest"] = _manifest("check-relations", params, ring)
    return report, 0 if rep_out.ok else 1


def _build_bvs(args):
    if args.bvs == "swap":
        return swap_bvs(2 if args.d is None else args.d), "rational"
    if args.bvs in ("c2", "c2alt"):
        if args.q is None:
            return c2_hecke(None, alt=args.bvs == "c2alt"), "laurent"
        return c2_hecke(_frac(args.q), alt=args.bvs == "c2alt"), "rational"
    if args.bvs == "tau":
        return diagonal_bvs(2 if args.N is None else args.N,
                            _frac("2" if args.x is None else args.x)), "rational"
    _require(args, ("m", "t"), "--bvs affine")
    return affine_bvs(args.m, args.t), "rational"


def _cmd_ybe(args):
    bvs, ring = _build_bvs(args)
    ok = bvs.yang_baxter()
    params = {"bvs": args.bvs, "d": args.d, "q": args.q, "N": args.N,
              "x": args.x, "m": args.m, "t": args.t}
    report = {"bvs": bvs.name, "d": bvs.d, "ybe_ok": ok,
              "manifest": _manifest("ybe", params, ring)}
    code = 0 if ok else 1
    if args.drinfeld:
        if args.bvs != "affine":
            raise SystemExit("--drinfeld applies to the affine family only")
        rep = drinfeld_report(args.m, args.t)
        report["drinfeld"] = rep
        if not (rep["swap_conjugate_equal"] and rep["transpose_at_inverse_t_equal"]):
            code = 1
    return report, code


def _cmd_affine_image(args):
    p = AffineParams(args.m, args.t, args.n)
    result = generate_image(p, cap=args.cap, keep_elements=args.emit_elements)
    pred = surjectivity_predicate(args.m, args.t)
    expected = agl_order(args.m, args.n - 1)
    det_values = sorted(result.determinants)
    allowed = sorted(v.residue for v in signed_power_set(args.m, args.t))
    det_ok = set(det_values) <= set(allowed)
    report = {"m": args.m, "t": args.t, "n": args.n,
              "order": result.order, "complete": result.complete,
              "expected_order": expected,
              "surjective_predicted": pred["units_ok"] and pred["generates"],
              "units_ok": pred["units_ok"], "generates": pred["generates"],
              "determinants": det_values,
              "determinants_allowed": allowed,
              "manifest": _manifest("affine-image",
                                    {"m": args.m, "t": args.t, "n": args.n,
                                     "cap": args.cap}, "zm")}
    if args.emit_elements:
        report["elements"] = [[v.residue for r in g.rows for v in r]
                              for g in result.elements]
    ok = result.complete and det_ok
    if report["surjective_predicted"] and result.complete:
        ok = ok and result.order == expected
    return report, 0 if ok else 1


def _cmd_decompose(args):
    x = _frac(args.x)
    rep = TauRep(args.N, x)
    checks = tensor_dimension_checks(args.N, args.n)
    modules = []
    for lam, mult in charge_blocks(args.N, args.n)[1]:
        block = partition_block(args.N, args.n, lam)
        for mod in harmonic_decompose(block, rep):
            entry = {"lambda": list(lam), "mu": [list(m) for m in mod.label.mu],
                     "dim": mod.dim, "block_dim": block.dim,
                     "block_multiplicity": mult,
                     "delta_dim": mod.label.delta_dim()}
            if args.basis:
                entry["basis"] = [_sparse_vec(row, block) for row in mod.span.rows]
            modules.append(entry)
    report = {"N": args.N, "n": args.n, "x": args.x,
              "modules": modules, "checks": checks,
              "manifest": _manifest("decompose",
                                    {"N": args.N, "n": args.n, "x": args.x}, "rational")}
    return report, 0 if checks["young_ok"] and checks["harmonic_ok"] else 1


def _sparse_vec(row, block):
    return {"".join(map(str, block.words[i])): str(v)
            for i, v in enumerate(row) if v}


def _cmd_branch(args):
    x = _frac(args.x)
    graph = branching_graph(args.N, args.nmax, x, seed=default_seed())
    ok = True
    for node in graph["nodes"]:
        if node["n"] < 2:
            continue
        out_dim = sum(e["multiplicity"] * e["dim"] for e in graph["edges"]
                      if e["src"] == node["id"])
        if out_dim != node["dim"]:
            ok = False
    report = {"N": args.N, "n_max": args.nmax, "x": args.x,
              "nodes": graph["nodes"], "edges": graph["edges"],
              "manifest": _manifest("branch", {"N": args.N, "nmax": args.nmax,
                                               "x": args.x}, "rational")}
    dot = emit_dot(graph)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        report["dot"] = dot
    return report, 0 if ok else 1


def _cmd_irreducible(args):
    x = _frac(args.x)
    entries = harmonic_end_dims(args.N, args.n, x)
    all_simple = all(e["end_dim"] == 1 for e in entries)
    report = {"N": args.N, "n": args.n, "x": args.x, "ring": "rational",
              "modules": [dict(e, irreducible=(e["end_dim"] == 1)) for e in entries],
              "all_irreducible": all_simple,
              "manifest": _manifest("irreducible",
                                    {"N": args.N, "n": args.n, "x": args.x,
                                     "ring": "rational"}, "rational")}
    return report, 0 if all_simple else 1


def _cmd_bmw(args):
    rep = bmw_check(args.N, args.n)
    report = rep.to_json()
    report["manifest"] = _manifest("bmw-check", {"N": args.N, "n": args.n}, "laurent")
    return report, 0 if rep.ok else 1


def _cmd_semisimple(args):
    x = _frac(args.x)
    result = semisimplicity_check(args.N, args.n, x)
    report = dict(result)
    report.update({"N": args.N, "n": args.n, "x": args.x,
                   "semisimple": result["radical_dim"] == 0,
                   "manifest": _manifest("semisimple",
                                         {"N": args.N, "n": args.n, "x": args.x},
                                         "rational")})
    return report, 0 if result["radical_dim"] == 0 else 1


def _cmd_localize(args):
    x = _frac(args.x)
    rep = TauRep(args.N, x)
    entries = []
    ok = True
    for lam, _ in charge_blocks(args.N, args.n)[1]:
        block = partition_block(args.N, args.n, lam)
        if args.n <= args.N:
            continue
        f_mat = f_operator(args.N, block, rep)
        for mod in harmonic_decompose(block, rep):
            target, action_ok = localize(f_mat, mod)
            got = 0 if target is None else target.dim
            pred_label, pred_dim = localized_harmonic_prediction(args.N, mod.label, args.n)
            entry = {"label": mod.label_json(), "dim": mod.dim,
                     "localized_dim": got, "predicted_dim": pred_dim,
                     "predicted_label": pred_label.to_json() if pred_label else None,
                     "ok": action_ok and got == pred_dim}
            ok = ok and entry["ok"]
            entries.append(entry)
        ymod = young_module(block, rep)
        target, action_ok = localize(f_mat, ymod)
        got = 0 if target is None else target.dim
        pred = localized_young_dim(args.N, lam, args.n)
        entry = {"label": {"lambda": list(lam), "mu": None}, "dim": block.dim,
                 "localized_dim": got, "predicted_dim": pred,
                 "predicted_label": None, "ok": action_ok and got == pred}
        ok = ok and entry["ok"]
        entries.append(entry)
    report = {"N": args.N, "n": args.n, "x": args.x, "modules": entries,
              "manifest": _manifest("localize",
                                    {"N": args.N, "n": args.n, "x": args.x},
                                    "rational")}
    return report, 0 if ok else 1


# ---------------------------------------------------------------------------
# DOT emission.

def emit_dot(graph) -> str:
    """Deterministic DOT text for a branching graph."""
    if not graph["nodes"] and not graph["edges"]:
        return "digraph harmonic {}"
    lines = ["digraph harmonic {"]
    for node in graph["nodes"]:
        lines.append('  "%s" [lambda="%s", mu="%s", dim=%d, pos="%s,%s!"];' % (
            node["id"], node["lambda"], node["mu"], node["dim"],
            node["pos"][0], node["pos"][1]))
    for edge in sorted(graph["edges"], key=lambda e: (e["src"], e["dst"])):
        lines.append('  "%s" -> "%s" [multiplicity=%d];'
                     % (edge["src"], edge["dst"], edge["multiplicity"]))
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Argument parsing.

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(2)


def _build_parser():
    parser = _Parser(prog="loopbraid",
                     description="Exact computations with loop braid group "
                                 "representations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-relations", help="verify a relation suite")
    p.add_argument("--rep", choices=("affine", "tau"), required=True)
    p.add_argument("--variant", choices=("LB", "OLB", "VB", "SLB"), default="LB")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--x", default="2")
    p.add_argument("--form", choices=("x", "q"), default="x")
    p.add_argument("--transposed", action="store_true")

    p = sub.add_parser("ybe", help="check the Yang-Baxter equation")
    p.add_argument("--bvs", choices=("swap", "c2", "c2alt", "tau", "affine"),
                   required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--q")
    p.add_argument("--N", type=int)
    p.add_argument("--x")
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--drinfeld", action="store_true")

    p = sub.add_parser("affine-image", help="closure of the affine image")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=10 ** 7)
    p.add_argument("--emit-elements", action="store_true")

    p = sub.add_parser("decompose", help="charge and harmonic decomposition")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", default="2")
    p.add_argument("--basis", action="store_true")

    p = sub.add_parser("branch", help="branching graph of harmonic modules")
    p.add_argument("--N", type=int, required=True, choices=(2, 3))
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--x", default="2")
    p.add_argument("--dot")

    p = sub.add_parser("irreducible", help="Schur test for harmonic modules")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", default="2")

    p = sub.add_parser("bmw-check", help="cubic algebra relation certificates")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, default=3)

    p = sub.add_parser("semisimple", help="trace-form radical and center")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", default="2")

    p = sub.add_parser("localize", help="symmetrizer localization dimensions")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", default="2")
    return parser


_HANDLERS = {
    "check-relations": _cmd_check_relations,
    "ybe": _cmd_ybe,
    "affine-image": _cmd_affine_image,
    "decompose": _cmd_decompose,
    "branch": _cmd_branch,
    "irreducible": _cmd_irreducible,
    "bmw-check": _cmd_bmw,
    "semisimple": _cmd_semisimple,
    "localize": _cmd_localize,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    start = time.monotonic()
    try:
        report, code = _HANDLERS[args.command](args)
    except InvalidParameters as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 2
    except (LoopBraidError, AssertionError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except SystemExit as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 2
    _emit(report)
    sys.stderr.write("wall_time_ms=%d\n" % int((time.monotonic() - start) * 1000))
    return code


def main():
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
