"""Command-line front end: JSON reports on stdout, wall time on stderr,
exit code 0 when every asserted check passed, 1 when a check failed or
stdout closed early, 2 on usage errors.  Reports are deterministic byte-for-byte for equal manifests
and inputs.  Every manifest records a seed, LBREP_SEED when set; no
computation reads it."""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .affine import (AffineParams, agl_order, drinfeld_report, generate_image,
                     rho_generators, signed_power_set, surjectivity_predicate)
from .analysis import bmw_check, branching_graph, harmonic_end_dims, semisimplicity_check
from .braided import affine_bvs, c2_hecke, diagonal_bvs, swap_bvs
from .errors import InvalidParameters, LoopBraidError
from .rings import rational_from_str
from .tensor import (TauRep, f_columns, full_images, harmonic_blocks, harmonic_dims,
                     localized_young_dim, localized_harmonic_prediction, localize_modules,
                     tensor_dimension_checks, young_module)
from .words import check_relations, relations_for

# Parsed options the manifest leaves out: the subcommand and its handler,
# and flags that only add to the report or move part of it to a file.
_UNRECORDED = {"command", "handler", "emit_elements", "basis", "dot", "drinfeld"}

DEFAULT_SEED = 0xB5EED


def default_seed() -> int:
    text = os.environ.get("LBREP_SEED")
    if text is None:
        return DEFAULT_SEED
    try:
        return int(text)
    except ValueError:
        raise InvalidParameters("LBREP_SEED=%r is not an integer" % text) from None


def _manifest(args, ring, seed):
    """Every parsed option that is set, except _UNRECORDED."""
    return {"command": args.command,
            "parameters": {k: v for k, v in sorted(vars(args).items())
                           if v is not None and k not in _UNRECORDED},
            "seed": seed,
            "ring": ring,
            "version": __version__}


def _emit(report):
    """Write the report to sys.stdout in batches of encoder chunks, so that
    neither the chunks of a large report nor its whole text are held at
    once."""
    chunks = json.JSONEncoder(sort_keys=True, indent=1).iterencode(report)
    for first in chunks:
        sys.stdout.write(first + "".join(itertools.islice(chunks, (1 << 14) - 1)))
    sys.stdout.write("\n")


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
# Handlers; each returns (report dict, whether every check passed, ring).
# dispatch adds the manifest.

def _cmd_check_relations(args):
    rels = relations_for(args.n, args.variant)
    if args.rep == "affine":
        _require(args, ("m", "t"), "--rep affine")
        args.N = args.x = args.form = None  # tau options: ignored, not recorded
        p = AffineParams(args.m, args.t, args.n)
        images = rho_generators(p)
        ring = "zm"
    else:
        _require(args, ("N",), "--rep tau")
        args.m = args.t = None  # affine options: ignored, not recorded
        form = args.form
        rep = TauRep(args.N, _frac(args.x) if form == "x" else None, form)
        images = full_images(rep, args.n)
        ring = "rational" if form == "x" else "laurent"
    rep_out = check_relations(images, rels, transposed=args.transposed)
    return rep_out.to_json(), rep_out.ok, ring


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
    if args.drinfeld and args.bvs != "affine":
        raise InvalidParameters("--drinfeld applies to the affine family only")
    bvs, ring = _build_bvs(args)
    ok = bvs.yang_baxter()
    report = {"bvs": bvs.name, "d": bvs.d, "ybe_ok": ok}
    if args.drinfeld:
        rep = drinfeld_report(args.m, args.t)
        report["drinfeld"] = rep
        ok = ok and rep["swap_conjugate_equal"] and rep["transpose_at_inverse_t_equal"]
    return report, ok, ring


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
              "determinants_allowed": allowed}
    if result.residues is not None:   # kept only with --emit-elements, up to --cap
        report["elements"] = result.residues
    ok = result.complete and det_ok
    if report["surjective_predicted"] and result.complete:
        ok = ok and result.order == expected
    return report, ok, "zm"


def _cmd_decompose(args):
    x = _frac(args.x)
    decomposition = harmonic_blocks(args.N, args.n, TauRep(args.N, x))
    checks = tensor_dimension_checks(decomposition)
    modules = []
    for lam, mult, block, mods in decomposition:
        for mod in mods:
            entry = {"lambda": list(lam), "mu": [list(m) for m in mod.label.mu],
                     "dim": mod.dim, "block_dim": block.dim,
                     "block_multiplicity": mult,
                     "delta_dim": mod.label.delta_dim()}
            if args.basis:
                entry["basis"] = [_sparse_vec(row, block) for row in mod.span.rows]
            modules.append(entry)
    report = {"N": args.N, "n": args.n, "x": args.x,
              "modules": modules, "checks": checks}
    return report, checks["young_ok"] and checks["harmonic_ok"], "rational"


def _sparse_vec(row, block):
    return {"".join(map(str, block.words[i])): str(v)
            for i, v in enumerate(row) if v}


def _cmd_branch(args):
    x = _frac(args.x)
    graph = branching_graph(args.N, args.nmax, x)
    ok = True
    for node in graph["nodes"]:
        if node["n"] < 2:
            continue
        out_dim = sum(e["multiplicity"] * e["dim"] for e in graph["edges"]
                      if e["src"] == node["id"])
        if out_dim != node["dim"]:
            ok = False
    report = {"N": args.N, "n_max": args.nmax, "x": args.x,
              "nodes": graph["nodes"], "edges": graph["edges"]}
    dot = emit_dot(graph)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        report["dot"] = dot
    return report, ok, "rational"


def _cmd_irreducible(args):
    args.ring = "rational"  # the only ring; the report and the manifest record it
    x = _frac(args.x)
    entries = harmonic_end_dims(args.N, args.n, x)
    all_simple = all(e["end_dim"] == 1 for e in entries)
    report = {"N": args.N, "n": args.n, "x": args.x, "ring": args.ring,
              "modules": [dict(e, irreducible=(e["end_dim"] == 1)) for e in entries],
              "all_irreducible": all_simple}
    return report, all_simple, "rational"


def _cmd_bmw(args):
    rep = bmw_check(args.N, args.n)
    return rep.to_json(), rep.ok, "laurent"


def _cmd_semisimple(args):
    x = _frac(args.x)
    result = semisimplicity_check(args.N, args.n, x)
    report = dict(result)
    report.update({"N": args.N, "n": args.n, "x": args.x,
                   "semisimple": result["radical_dim"] == 0})
    return report, result["radical_dim"] == 0, "rational"


def _cmd_localize(args):
    x = _frac(args.x)
    rep = TauRep(args.N, x)
    if args.n <= args.N:
        raise InvalidParameters("localize needs more than --N = %d strands, got %d"
                                % (args.N, args.n))
    entries = []
    dims_below = harmonic_dims(args.N, args.n - args.N)
    for lam, _, block, mods in harmonic_blocks(args.N, args.n, rep):
        mods = mods + [young_module(block, rep)]
        localized = localize_modules(f_columns(args.N, block), mods)
        for mod, (target, action_ok) in zip(mods, localized):
            got = 0 if target is None else target.dim
            if mod.label is None:
                pred_label, pred_dim = None, localized_young_dim(args.N, lam, args.n)
            else:
                pred_label, pred_dim = localized_harmonic_prediction(args.N, mod.label,
                                                                     dims_below)
            entries.append({"label": mod.label_json(), "dim": mod.dim,
                            "localized_dim": got, "predicted_dim": pred_dim,
                            "predicted_label": pred_label.to_json() if pred_label else None,
                            "ok": action_ok and got == pred_dim})
    ok = all(e["ok"] for e in entries)
    report = {"N": args.N, "n": args.n, "x": args.x, "modules": entries}
    return report, ok, "rational"


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
# Argument parsing: each subcommand is declared once, with its handler, as
# (help, handler, parent arguments, arguments); an argument is (flag, keywords).

_TENSOR_POWER = (("--N", dict(type=int, required=True)),
                 ("--n", dict(type=int, required=True)),
                 ("--x", dict(default="2")))

_COMMANDS = {
    "check-relations": ("verify a relation suite", _cmd_check_relations, (), (
        ("--rep", dict(choices=("affine", "tau"), required=True)),
        ("--variant", dict(choices=("LB", "OLB", "VB", "SLB"), default="LB")),
        ("--n", dict(type=int, required=True)),
        ("--m", dict(type=int)),
        ("--t", dict(type=int)),
        ("--N", dict(type=int)),
        ("--x", dict(default="2")),
        ("--form", dict(choices=("x", "q"), default="x")),
        ("--transposed", dict(action="store_true")))),
    "ybe": ("check the Yang-Baxter equation", _cmd_ybe, (), (
        ("--bvs", dict(choices=("swap", "c2", "c2alt", "tau", "affine"), required=True)),
        ("--d", dict(type=int)),
        ("--q", {}),
        ("--N", dict(type=int)),
        ("--x", {}),
        ("--m", dict(type=int)),
        ("--t", dict(type=int)),
        ("--drinfeld", dict(action="store_true")))),
    "affine-image": ("order of the affine image by stabilizer chain", _cmd_affine_image, (), (
        ("--m", dict(type=int, required=True)),
        ("--t", dict(type=int, required=True)),
        ("--n", dict(type=int, required=True)),
        ("--cap", dict(type=int, default=10 ** 7)),
        ("--emit-elements", dict(action="store_true")))),
    "decompose": ("charge and harmonic decomposition", _cmd_decompose, _TENSOR_POWER, (
        ("--basis", dict(action="store_true")),)),
    "branch": ("branching graph of harmonic modules", _cmd_branch, (), (
        ("--N", dict(type=int, required=True, choices=(2, 3))),
        ("--nmax", dict(type=int, required=True)),
        ("--x", dict(default="2")),
        ("--dot", {}))),
    "irreducible": ("Schur test for harmonic modules", _cmd_irreducible, _TENSOR_POWER, ()),
    "bmw-check": ("cubic algebra relation certificates", _cmd_bmw, (), (
        ("--N", dict(type=int, required=True)),
        ("--n", dict(type=int, default=3)))),
    "semisimple": ("radical and center of the image algebra", _cmd_semisimple,
                   _TENSOR_POWER, ()),
    "localize": ("symmetrizer localization dimensions", _cmd_localize, _TENSOR_POWER, ()),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes an argument starting with "-" for an option unless
        # it matches this pattern; its own covers -3 and -1.5 but not -3/2
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        sys.stderr.write("usage error: %s: %s\n" % (self.prog, message))
        raise SystemExit(2)


def _build_parser(command=None):
    """The parser of every subcommand, or of the named one only: building
    one subparser is most of the cost of a parser, and each run uses one."""
    parser = _Parser(prog="loopbraid",
                     description="Exact computations with loop braid group "
                                 "representations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else (command,):
        help_text, handler, parent, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag, keywords in parent + arguments:
            p.add_argument(flag, **keywords)
    return parser


def dispatch(argv) -> int:
    # argv[0] selects the one subparser to build; any other first word
    # (--help, an unknown or missing command) gets the full parser and its
    # top-level usage
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    start = time.monotonic()
    try:
        seed = default_seed()  # a malformed LBREP_SEED stops the run before any work
        report, ok, ring = args.handler(args)
    except InvalidParameters as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 2
    except LoopBraidError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    report["manifest"] = _manifest(args, ring, seed)
    _emit(report)
    sys.stderr.write("wall_time_ms=%d\n" % int((time.monotonic() - start) * 1000))
    return 0 if ok else 1


def main():
    try:
        code = dispatch(sys.argv[1:])
        # flush here, so that a closed pipe raises inside this try
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`| head`): send what is left, including the
        # flush at exit, to devnull, and exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    # every object still alive lives until the process ends; frozen, the
    # collections at interpreter shutdown skip them
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
