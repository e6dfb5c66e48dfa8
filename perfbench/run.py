"""The loopbraid benchmark: time-to-certificate of fixed CLI invocations.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload affine_closure --seed 7 --seconds 45 --trace 0

One client, closed loop: each case is one ``python -m loopbraid.cli`` child
process, started only after the previous one has exited, importing the
checkout's ``src/``.  The first run of a workload in a checkout makes one
untimed warm-up pass over its cases, which compiles the ``.pyc`` files.  A
run measures set-up time in separate children, then starts timed passes
until ``--seconds`` have passed.  Every case passes a correctness gate
(exit code, shipped JSON schema, expected verdict, stdout identical to every
earlier report with the same manifest in this checkout); a failing case
counts in ``failed``.

``--trace 1`` instead runs the cases in-process, once plain and once with
spans around every call into each module (see tracing.py), and reports the
per-layer metrics plus the layer microbenchmarks (see micro.py).

``wall_s`` and ``cpu_s`` sum each case's median over the timed passes (a
typical pass); ``setup_s`` is the median interpreter start plus
``import loopbraid.cli``; ``peak_rss_mb`` is the median over passes of the
largest child max-RSS.  The failed fraction is ``failed / attempted``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Details (provenance, sample counts, per-case times) go to the
lines before it and to ``.perfbench_out/``.  Every workload in turn:

    for w in affine_closure certificates; do
        python3 perfbench/run.py --workload $w; done
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import micro
import tracing
from cases import WORKLOADS, Gate, jsonschema

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def check_environment():
    """Error text when the checkout cannot be benchmarked, else None."""
    if not (SRC / "loopbraid" / "cli.py").is_file():
        return "no loopbraid sources under %s" % SRC
    if not (SRC / "loopbraid" / "schemas").is_dir():
        return "no report schemas under %s" % (SRC / "loopbraid" / "schemas")
    if jsonschema is None:
        return "the jsonschema package is required for the correctness gate"
    return None


# ---------------------------------------------------------------------------
# Child processes.

def child_env(seed):
    env = dict(os.environ)
    # The warm-up pass compiles the checkout's .pyc files for the timed
    # children, as an installed package would have them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["LBREP_SEED"] = str(seed)
    return env


def run_child(argv, env, workdir):
    """Run one child to completion: (exit code, stdout, stderr, wall s,
    user+system CPU s, max RSS MB)."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=workdir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cli_argv(case):
    return [sys.executable, "-m", "loopbraid.cli", *case.argv]


def run_pass(cases, gate, env, workdir, failures):
    """One pass over the case list; per-case (wall, cpu, rss) rows."""
    rows = []
    for case in cases:
        code, stdout, stderr, wall, cpu, rss = run_child(cli_argv(case), env, workdir)
        error = gate.check(case, code, stdout)
        if error:
            failures.append({"case": case.id, "error": error,
                             "stderr": stderr.decode(errors="replace")[-400:]})
        rows.append((wall, cpu, rss))
    return rows


def run_import_child(argv, env, workdir, what):
    code, stdout, stderr, wall, _, _ = run_child(argv, env, workdir)
    if code != 0:
        raise RuntimeError("%s failed: %s" % (what, stderr.decode(errors="replace")[-400:]))
    return stdout, stderr, wall


def provenance(env, workdir):
    out, _, _ = run_import_child(
        [sys.executable, "-c", "import loopbraid; print(loopbraid.__file__)"], env, workdir,
        "importing loopbraid")
    imported = out.decode().strip()
    if not Path(imported).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError("children imported %s, not the checkout's src/" % imported)
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_at_start": list(os.getloadavg()),
            "git_commit": commit or "unavailable (not a git checkout)",
            "loopbraid_file": imported}


# ---------------------------------------------------------------------------
# Statistics.

def timing(values):
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are too few samples), and the sample count."""
    vals = sorted(values)
    hi = None
    for pct in (99, 95, 90, 75, 50):
        cut = vals[min(len(vals) - 1, int(len(vals) * pct / 100))]
        if sum(v > cut for v in vals) >= 10:
            hi = {"pct": pct, "value": cut}
            break
    return {"median": statistics.median(vals), "hi": hi, "n": len(vals)}


# ---------------------------------------------------------------------------
# The end-to-end run.

def measure(args, cases, env, workdir):
    failures = []
    gate = Gate(SRC / "loopbraid" / "schemas", args.seed, OUT / "report_hashes.json")
    warm = []
    marker = OUT / ("warmed-" + args.workload)
    if not marker.exists():
        warm = run_pass(cases, gate, env, workdir, failures)
        marker.touch()
    setup = [run_import_child([sys.executable, "-c", "import loopbraid.cli"], env, workdir,
                              "importing loopbraid.cli")[2]
             for _ in range(SETUP_SAMPLES)]
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(cases, gate, env, workdir, failures))
    # A pass's figure sums each case's median over the passes, so a short
    # burst of host speed-up or slow-down moves one sample, not the result.
    def per_case(col):
        return [statistics.median(p[i][col] for p in passes) for i in range(len(cases))]
    walls, cpus = per_case(0), per_case(1)
    pass_rss = [max(r[2] for r in p) for p in passes]
    metrics = {"wall_s": (sum(walls), "s"), "cpu_s": (sum(cpus), "s"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (statistics.median(pass_rss), "MB")}
    gate.save()
    attempted = len(cases) * len(passes) + len(warm)
    detail = {"samples": {"wall_s": timing([sum(r[0] for r in p) for p in passes]),
                          "cpu_s": timing([sum(r[1] for r in p) for p in passes]),
                          "setup_s": timing(setup),
                          "peak_rss_mb": timing(pass_rss)},
              "pass_wall_s": [sum(r[0] for r in p) for p in passes],
              "per_case_wall_s": {c.id: w for c, w in zip(cases, walls)},
              "warmup_wall_s": sum(r[0] for r in warm), "failures": failures}
    return metrics, attempted, len(failures), detail


# ---------------------------------------------------------------------------
# The traced run.

def call_cli(dispatch, argv):
    """Run one case in-process; an escaping exception is exit code 1, as
    for the child process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = dispatch(list(argv))
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode()


def import_times(env, workdir):
    """Cumulative import time of loopbraid.cli, in seconds, per child."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, err, _ = run_import_child([sys.executable, "-X", "importtime", "-c",
                                      "import loopbraid.cli"], env, workdir,
                                     "importing loopbraid.cli")
        for line in err.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "loopbraid.cli":
                samples.append(int(parts[1]) / 1e6)
    return samples


def trace_run(args, cases, env, workdir):
    import_s = import_times(env, workdir)  # the first child also compiles .pyc files
    sys.path.insert(0, str(SRC))
    os.environ["LBREP_SEED"] = str(args.seed)
    os.chdir(workdir)  # branch --dot writes relative to the working directory
    import loopbraid.cli as cli

    micro_metrics = micro.run(args.seed)  # before the passes, so no workload shapes the heap
    failures = []
    gate = Gate(SRC / "loopbraid" / "schemas", args.seed, OUT / "report_hashes.json")
    tracer = tracing.Tracer()
    # plain, traced, plain: the mean of the plain passes cancels drift
    # between the first pass and later ones
    totals = []
    for traced in (False, True, False):
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            for i, case in enumerate(cases):
                tracer.case_id = i
                code, stdout = call_cli(cli.dispatch, case.argv)
                error = gate.check(case, code, stdout)
                if error:
                    failures.append({"case": case.id, "traced": traced, "error": error})
            totals.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
    gate.save()
    untraced_s, traced_s = (totals[0] + totals[2]) / 2, totals[1]
    summary = tracer.summary()
    metrics = tracing.layer_metrics(summary, tracer.counts, tracer.max_width)
    metrics["cli.import_s"] = (statistics.median(import_s), "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics.update(micro_metrics)

    layer_share = {k: v / traced_s for k, v in sorted(summary["layer_self"].items())}
    top = sorted(summary["self"].items(), key=lambda kv: -kv[1])[:8]
    attribution = check_attribution(args.workload, cases, summary, layer_share)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    tracer.dump(spans_file, [c.id for c in cases])
    detail = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": summary["spans"],
              "spans_file": str(spans_file.relative_to(ROOT)), "layer_self_share": layer_share,
              "top_self_s": top, "attribution": attribution, "failures": failures,
              "cli_import_samples_s": import_s}
    return metrics, 3 * len(cases), len(failures), detail


# From cProfile sizing of the seed code: the span holding the most self
# time in a case.
EXPECTED_CASE_TOP = {"affine-m5-t2-n3": "linalg.matmul_zm",
                     "semisimple-2-4-2": "linalg.rowspan",
                     "semisimple-2-4-3": "linalg.rowspan",
                     "semisimple-3-3-2": "linalg.rowspan"}


def check_attribution(workload, cases, summary, layer_share):
    """Compare the traced attribution with the profile sizing; a mismatch
    is reported, not corrected."""
    out = {}
    for i, case in enumerate(cases):
        if case.id in EXPECTED_CASE_TOP:
            got = summary["case_top"].get(i, (None,))[0]
            out[case.id] = {"expected_top_span": EXPECTED_CASE_TOP[case.id],
                            "observed_top_span": got,
                            "match": got == EXPECTED_CASE_TOP[case.id]}
    if workload == "certificates":
        spread = {k: layer_share.get(k, 0.0) for k in ("analysis", "linalg", "tensor")}
        out["workload"] = {"expected": "self time spread over analysis, linalg and tensor "
                                       "(each >= 10%)",
                           "observed_shares": spread,
                           "match": all(v >= 0.10 for v in spread.values())}
    return out


# ---------------------------------------------------------------------------

def report(args, prov, metrics, attempted, failed, detail):
    print("loopbraid benchmark: workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: %s" % json.dumps(prov, sort_keys=True))
    samples = detail.get("samples", {})
    for name, (value, unit) in metrics.items():
        extra = ""
        if name in samples:
            s = samples[name]
            hi = ("p%d %.4f" % (s["hi"]["pct"], s["hi"]["value"]) if s["hi"]
                  else "no percentile has 10 samples beyond it")
            extra = "  (n=%d %s; sample median %.4f; %s)" % (
                s["n"], "set-ups" if name == "setup_s" else "passes", s["median"], hi)
        print("  %-36s %14.6f %-6s%s" % (name, value, unit, extra))
    print("  %-36s %14.6f %-6s  (%d of %d cases)" % ("failed_frac", failed / attempted, "1",
                                                     failed, attempted))
    for key in ("per_case_wall_s", "attribution", "layer_self_share"):
        if key in detail:
            print("%s: %s" % (key, json.dumps(detail[key], sort_keys=True)))
    for f in detail["failures"]:
        print("FAILED %s" % json.dumps(f, sort_keys=True), file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "provenance": prov, "attempted": attempted,
                   "failed": failed, "metrics": metrics, "detail": detail}, fh, indent=1,
                  default=str)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # run_child then stops its child


def main(argv):
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    problem = check_environment()
    if problem:
        print("perfbench: %s" % problem, file=sys.stderr)
        return 2
    cases = WORKLOADS[args.workload]
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(args.seed)
    prov = provenance(env, workdir)
    run = trace_run if args.trace else measure
    metrics, attempted, failed, detail = run(args, cases, env, workdir)
    report(args, prov, metrics, attempted, failed, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
