"""Command-line front end: JSON reports on stdout, wall time on stderr,
exit code 0 when every asserted check passed, 1 when a check failed or
stdout closed early, 2 on usage errors.  Reports are deterministic byte-for-byte for equal manifests
and inputs.  Every manifest records a seed, LBREP_SEED when set; no
computation reads it.

Importing this module loads no other module of the package but errors,
and neither json nor fractions: the report text comes from _json_chunks,
and each command imports what it calls."""

from __future__ import annotations

import atexit
import itertools
import os
import re
import sys
import time
from types import SimpleNamespace

from . import __version__
from .errors import InvalidParameters, LoopBraidError

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
    """Write the report to sys.stdout in batches of 2,048 chunks, so that
    neither the chunks of a large report nor its whole text are held at
    once.  A chunk holds up to one list of ints, such as an element's
    residues."""
    chunks = _json_chunks(report, "\n")
    for first in chunks:
        sys.stdout.write(first + "".join(itertools.islice(chunks, (1 << 11) - 1)))
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# The report text: exactly json.JSONEncoder(sort_keys=True, indent=1) with
# its defaults (ensure_ascii), for the values a report holds.

# the escapes of the ASCII characters that a string cannot hold as they
# are: the backslash, replaced first, the quote, the control characters
# and DEL
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n",
            "\r": "\\r", "\t": "\\t"}
_ESCAPES.update({chr(code): "\\u%04x" % code for code in (*range(0x20), 0x7F)
                 if chr(code) not in _ESCAPES})


def _escape_non_ascii(match):
    code = ord(match.group())
    if code > 0xFFFF:  # as a UTF-16 surrogate pair
        code -= 0x10000
        return "\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF)
    return "\\u%04x" % code


def _json_str(text):
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    for char, escape in _ESCAPES.items():
        if char in text:
            text = text.replace(char, escape)
    if not text.isascii():
        text = re.sub("[^\x00-\x7f]", _escape_non_ascii, text)
    return '"' + text + '"'


def _json_flat(value, newline):
    """The text of a str, int, bool, None, empty dict or list or tuple of
    plain ints, with newline as in _json_chunks; None for any other list,
    tuple or dict."""
    if isinstance(value, (list, tuple)):
        if not set(map(type, value)) <= {int}:
            return None
        if not value:
            return "[]"
        inner = newline + " "
        return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]"
    if isinstance(value, dict):
        return None if value else "{}"
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _json_key(key):
    if isinstance(key, str):
        return _json_str(key)
    if key is None or isinstance(key, int):  # bools included, as json writes them
        return '"' + _json_flat(key, "") + '"'
    raise TypeError("keys must be str, int, bool or None, not %s" % type(key).__name__)


def _json_chunks(value, newline):
    """The text of a value in chunks.  newline is a line break and the
    indent of the value's own line; a non-empty list, tuple or dict puts
    each item on a line of its own, one space deeper.  A list of plain ints
    is one chunk."""
    text = _json_flat(value, newline)
    if text is not None:
        yield text
        return
    inner = newline + " "
    if isinstance(value, dict):
        items = [(_json_key(k) + ": ", v) for k, v in sorted(value.items())]
        separator, closing = "{" + inner, newline + "}"
    else:
        items = zip(itertools.repeat(""), value)
        separator, closing = "[" + inner, newline + "]"
    for prefix, v in items:
        text = _json_flat(v, inner)
        if text is None:
            yield separator + prefix
            yield from _json_chunks(v, inner)
        else:
            yield separator + prefix + text
        separator = "," + inner
    yield closing


def _frac(text):
    from fractions import Fraction

    from .rings import rational_from_str
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
# dispatch adds the manifest.  Each imports the modules it calls, so a run
# loads no module that its command does not use.

def _cmd_check_relations(args):
    from .words import check_relations, relations_for
    rels = relations_for(args.n, args.variant)
    if args.rep == "affine":
        from .affine import AffineParams, rho_generators
        _require(args, ("m", "t"), "--rep affine")
        args.N = args.x = args.form = None  # tau options: ignored, not recorded
        p = AffineParams(args.m, args.t, args.n)
        images = rho_generators(p)
        ring = "zm"
    else:
        from .tensor import TauRep, full_images
        _require(args, ("N",), "--rep tau")
        args.m = args.t = None  # affine options: ignored, not recorded
        form = args.form
        rep = TauRep(args.N, _frac(args.x) if form == "x" else None, form)
        images = full_images(rep, args.n)
        ring = "rational" if form == "x" else "laurent"
    rep_out = check_relations(images, rels, transposed=args.transposed)
    return rep_out.to_json(), rep_out.ok, ring


def _build_bvs(args):
    from .braided import affine_bvs, c2_hecke, diagonal_bvs, swap_bvs
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
        from .affine import drinfeld_report
        rep = drinfeld_report(args.m, args.t)
        report["drinfeld"] = rep
        ok = ok and rep["swap_conjugate_equal"] and rep["transpose_at_inverse_t_equal"]
    return report, ok, ring


def _cmd_affine_image(args):
    from .affine import (AffineParams, agl_order, generate_image, signed_power_set,
                         surjectivity_predicate)
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
    from .tensor import TauRep, harmonic_blocks, tensor_dimension_checks
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
    from .analysis import branching_graph
    x = _frac(args.x)
    # every restriction is complete: _branch_by_rule raises IncompleteMatch
    # unless its summand dimensions add up to the module's
    graph = branching_graph(args.N, args.nmax, x)
    report = {"N": args.N, "n_max": args.nmax, "x": args.x,
              "nodes": graph["nodes"], "edges": graph["edges"]}
    dot = emit_dot(graph)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            raise InvalidParameters("cannot write --dot %s: %s"
                                    % (args.dot, exc.strerror or exc)) from None
    else:
        report["dot"] = dot
    return report, True, "rational"


def _cmd_irreducible(args):
    from .analysis import harmonic_end_dims
    args.ring = "rational"  # the only ring; the report and the manifest record it
    x = _frac(args.x)
    entries = harmonic_end_dims(args.N, args.n, x)
    all_simple = all(e["end_dim"] == 1 for e in entries)
    report = {"N": args.N, "n": args.n, "x": args.x, "ring": args.ring,
              "modules": [dict(e, irreducible=(e["end_dim"] == 1)) for e in entries],
              "all_irreducible": all_simple}
    return report, all_simple, "rational"


def _cmd_bmw(args):
    from .analysis import bmw_check
    rep = bmw_check(args.N, args.n)
    return rep.to_json(), rep.ok, "laurent"


def _cmd_semisimple(args):
    from .analysis import semisimplicity_check
    x = _frac(args.x)
    result = semisimplicity_check(args.N, args.n, x)
    report = dict(result)
    report.update({"N": args.N, "n": args.n, "x": args.x,
                   "semisimple": result["radical_dim"] == 0})
    return report, result["radical_dim"] == 0, "rational"


def _cmd_localize(args):
    from .tensor import (TauRep, f_columns, harmonic_blocks, harmonic_dims, localize_modules,
                         localized_harmonic_prediction, localized_young_dim, young_module)
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


# argparse takes a word starting with "-" for an option unless it matches
# this pattern; its own covers -3 and -1.5 but not -3/2
_NEGATIVE_NUMBER = r"^-\d+(/\d+)?$|^-\d*\.\d+$"


def _parse_plain(argv):
    """The namespace argparse makes of a plainly well-formed argv, read
    straight off _COMMANDS: a known command, then only its exact flags, as
    --flag value or --flag=value (a bare store_true flag), each value
    converted by its type and within its choices, and every required flag
    given.  None for anything else (help, an abbreviation, "--", a
    positional, a missing or bad value), which dispatch leaves to argparse,
    the one source of help and error text."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, parent, arguments = _COMMANDS[argv[0]]
    flags = dict(parent + arguments)
    values = {flag: False if keywords.get("action") == "store_true" else keywords.get("default")
              for flag, keywords in flags.items()}
    words = iter(argv[1:])
    for word in words:
        flag, equals, value = word.partition("=")
        keywords = flags.get(flag)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            if equals:
                return None
            value = True
        else:
            if not equals:
                value = next(words, None)
                if value is None or value.startswith("-") and not re.match(_NEGATIVE_NUMBER,
                                                                            value):
                    return None
            try:
                value = keywords.get("type", str)(value)
            except ValueError:
                return None
            if value not in keywords.get("choices", (value,)):
                return None
        values[flag] = value
    # a required flag has no default, and every given value is set
    if any(keywords.get("required") and values[flag] is None
           for flag, keywords in flags.items()):
        return None
    return SimpleNamespace(command=argv[0], handler=handler,
                           **{flag[2:].replace("-", "_"): value
                              for flag, value in values.items()})


def _build_parser(command=None):
    """The parser of every subcommand, or of the named one only: building
    one subparser is most of the cost of a parser, and a run that reaches
    argparse uses one."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(_NEGATIVE_NUMBER)

        def error(self, message):
            sys.stderr.write("usage error: %s: %s\n" % (self.prog, message))
            raise SystemExit(2)

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
    args = _parse_plain(argv)
    if args is None:
        # argv[0] selects the one subparser to build; any other first word
        # (--help, an unknown or missing command) gets the full parser and
        # its top-level usage
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
        # the reader went away (`| head`): send what is left to devnull, and
        # exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.stderr.flush()
    # end the process without the interpreter teardown, which would free
    # every object still alive one by one; the atexit handlers (coverage's,
    # say) run first, as they would at a normal exit
    atexit._run_exitfuncs()
    os._exit(code)


if __name__ == "__main__":
    main()
