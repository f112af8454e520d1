"""
Benchmark of the ``bhl`` package, run from the root of a source checkout:

    python3 perfbench/run.py --workload classify-a3 --seed 1 --seconds 30 --trace 0

One run repeats rounds of one workload (see workloads.py) for ``--seconds``
seconds. A round builds the group and its tables from scratch (set-up),
does the workload's work (the measured phase) and then checks every output
against golden digests or independently counted expectations. The process
runs nothing but that workload, so its peak RSS is the workload's.

With ``--trace 0`` the run reports the end-to-end metrics: ``run_s`` (median
measured phase of a round), ``setup_s`` (median import time over fresh
interpreters plus the median set-up of the rounds) and ``peak_rss_mb``. It
also prints ``items_per_s`` (items of a round over ``run_s``) and
``failed_frac``, which are not in the result's metrics: with a fixed item
count the first only restates ``run_s``, and the second reads 0 on correct
code. With ``--trace 1`` it runs one untraced round, then traced
rounds (at least two), and reports the per-layer metrics of tracing.py:
counts from the first traced round, which every later traced round must
repeat exactly, and times as medians over the traced rounds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed check, a
count mismatch or an exception makes the run exit with status 1. The full
record, with the run environment and the spans of a traced run, is written
to ``.bench_out/`` in the checkout.

``--full`` (classify-a3 only, not a benchmark workload) classifies all 24 w
of A3 and also checks the whole reports against the ROADMAP digests and
counts; it takes about a minute, more when traced.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
IMPORT_PROBES = 5
MIN_TRACED_ROUNDS = 2

# times one import of the package in a fresh interpreter
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import bhl, bhl.verify\n"
    "print(time.perf_counter() - t)\n"
)


class SourceMissing(RuntimeError):
    pass


def add_source_path() -> None:
    """Make ``import bhl`` load the package from this checkout's src/."""
    if not (SOURCE / "bhl" / "__init__.py").is_file():
        raise SourceMissing(f"no bhl package under {SOURCE}; run from a source checkout")
    sys.path.insert(0, str(SOURCE))
    import bhl

    if Path(bhl.__file__).resolve().parent != SOURCE / "bhl":
        raise SourceMissing(f"bhl was imported from {bhl.__file__}, not from {SOURCE}")


def import_seconds() -> float:
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SOURCE)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "bhl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# -- rounds ---------------------------------------------------------------------


def one_round(workload, traced: bool, index: int) -> dict:
    """Set up, run and check one round; an exception is a failed round."""
    tracer = tracing.Tracer(index) if traced else None
    call = tracer.span if traced else tracing.plain_call
    rec = {"round": index, "traced": traced, "failures": [], "attempted": 1}
    try:
        uninstall = tracing.install(tracer) if traced else None
        try:
            t0 = time.perf_counter()
            state = workload.setup(call)
            t1 = time.perf_counter()
            out = workload.run(state, call)
            t2 = time.perf_counter()
        finally:
            if uninstall is not None:
                uninstall()
        rec.update(setup_s=t1 - t0, run_s=t2 - t1, items=out.items, per_w_s=out.per_w_s)
        rec["attempted"] = out.attempted
        rec["failures"] += workload.check(out)
        if traced:
            rec["tracer"] = tracer
            rec["layer"] = layer_metrics(tracer, rec, out)
            rec["failures"] += workload.cross_check(tracer, out)
    except Exception:
        rec["failures"].append(traceback.format_exc())
    return rec


def measure(workload, seconds: float, trace: bool) -> list:
    """Rounds until ``seconds`` have passed; when tracing, the first round
    is untraced and at least MIN_TRACED_ROUNDS traced ones follow."""
    rounds = []
    start = time.perf_counter()
    while True:
        rec = one_round(workload, traced=trace and bool(rounds), index=len(rounds))
        rounds.append(rec)
        gc.collect()
        if rec["failures"]:
            break
        traced = sum(r["traced"] for r in rounds)
        if time.perf_counter() - start >= seconds and (
            not trace or traced >= MIN_TRACED_ROUNDS
        ):
            break
    return rounds


# -- metrics --------------------------------------------------------------------


def layer_metrics(tr, rec: dict, out) -> dict:
    """Per-layer metrics of one traced round: name -> (value, unit)."""
    c, s = tr.count, tr.seconds
    entries = list(out.rtable.entries())
    divides = c("polyring.divide")
    per_verify = {
        f"verify.{suite.replace('-', '_')}_s": s(f"verify.{suite}")
        for suite in ("main-theorem", "vanishing", "poles", "gk-base")
    }
    m = {
        "polyring.divide_calls": (divides, "count"),
        "polyring.divide_s": (s("polyring.divide"), "s"),
        "polyring.divide_hit_ratio": (tr.extra["divide_hits"] / divides if divides else 0.0, "ratio"),
        "polyring.mul_calls": (c("polyring.mul"), "count"),
        "polyring.mul_s": (s("polyring.mul"), "s"),
        "polyring.mul_term_pairs": (tr.extra["mul_term_pairs"], "count"),
        "polyring.rf_add_calls": (c("polyring.rf_add"), "count"),
        "polyring.rf_add_s": (s("polyring.rf_add"), "s"),
        "polyring.rf_eq_calls": (c("polyring.rf_eq"), "count"),
        "polyring.rf_eq_s": (s("polyring.rf_eq"), "s"),
        "sigma.sigma_calls": (c("sigma.sigma"), "count"),
        "sigma.sigma_s": (s("sigma.sigma"), "s"),
        "sigma.xi_calls": (c("sigma.xi"), "count"),
        "sigma.gk_factor_calls": (c("sigma.gk_factor"), "count"),
        "sigma.prefill_s": (s("sigma.prefill"), "s"),
        "sigma.report_render_s": (s("sigma.report_render"), "s"),
        "rpoly.fill_s": (s("rpoly.fill"), "s"),
        "rpoly.entries": (len(entries), "count"),
        "rpoly.max_num_terms": (max((len(v.num.terms) for _, v in entries), default=0), "count"),
        "hecke.products_s": (s("hecke.products"), "s"),
        "hecke.products": (c("hecke.products"), "count"),
        "hecke.theta_calls": (c("hecke.theta"), "count"),
        "hecke.theta_memo_entries": (len(tr.theta_keys), "count"),
        "demazure.vmin_calls": (c("demazure.vmin"), "count"),
        "demazure.vmin_s": (s("demazure.vmin"), "s"),
        "coxeter.build_s": (s("coxeter.build"), "s"),
        **{k: (v, "s") for k, v in per_verify.items()},
        "verify.checks": (out.data.get("checks", 0), "count"),
    }
    total = rec["setup_s"] + rec["run_s"]
    attributed = 0.0
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (tr.layer_self.get(layer, 0.0), "s")
        attributed += tr.layer_self.get(layer, 0.0)
    m["trace.unattributed_s"] = (total - attributed, "s")
    return m


def median_of(rounds: list, key) -> float:
    return statistics.median(key(r) for r in rounds)


def end_to_end(rounds: list, import_s: float) -> dict:
    untraced = [r for r in rounds if not r["traced"]]
    run_s = median_of(untraced, lambda r: r["run_s"])
    return {
        "run_s": {"value": run_s, "unit": "s"},
        "setup_s": {"value": import_s + median_of(untraced, lambda r: r["setup_s"]), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def per_layer(rounds: list) -> tuple:
    """Per-layer metrics and the failures of count repetition."""
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    first = traced[0]["layer"]
    failures = []
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = median_of(traced, lambda r: r["layer"][name][0])
        else:
            others = {r["layer"][name][0] for r in traced}
            if others != {value}:
                failures.append(f"traced count {name} differs between rounds: {sorted(others)}")
        metrics[name] = {"value": value, "unit": unit}
    per_w = [t for r in untraced for t in r["per_w_s"]]
    metrics["sigma.per_w_median_s"] = {"value": statistics.median(per_w) if per_w else 0.0, "unit": "s"}
    metrics["sigma.per_w_max_s"] = {"value": max(per_w, default=0.0), "unit": "s"}
    traced_run_s = median_of(traced, lambda r: r["run_s"])
    untraced_run_s = median_of(untraced, lambda r: r["run_s"])
    metrics["trace.traced_run_s"] = {"value": traced_run_s, "unit": "s"}
    metrics["trace.untraced_run_s"] = {"value": untraced_run_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_run_s - untraced_run_s, "unit": "s"}
    return metrics, failures


def spans_of(rounds: list) -> list:
    return [span for r in rounds if r["traced"] for span in r["tracer"].spans]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="classify-a3 only: all of A3, checked against the ROADMAP digests")
    args = parser.parse_args(argv)
    try:
        add_source_path()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.full and args.workload != "classify-a3":
        parser.error("--full applies to classify-a3 only")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    golden = workloads.load_golden()
    cls = workloads.WORKLOADS[args.workload]
    workload = (cls(args.seed, golden, full=True) if args.full else cls(args.seed, golden))

    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, full=args.full, loadavg_1min_start=os.getloadavg()[0])
    import_s = import_seconds()
    rounds = measure(workload, args.seconds, bool(args.trace))
    env["loadavg_1min_end"] = os.getloadavg()[0]

    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(min(len(r["failures"]), r["attempted"]) for r in rounds)
    metrics = {}
    items_per_s = None
    if not failures:
        if args.trace:
            metrics, repeat_failures = per_layer(rounds)
            attempted += 1
            if repeat_failures:
                failures += repeat_failures
                failed += 1
        else:
            metrics = end_to_end(rounds, import_s)
            items_per_s = rounds[0]["items"] / metrics["run_s"]["value"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "environment": env,
        "import_s": import_s,
        "items_per_s": items_per_s,
        "rounds": [
            {k: v for k, v in r.items() if k not in ("tracer", "layer")} for r in rounds
        ],
        "failures": failures,
        "result": result,
        "spans": spans_of(rounds) if args.trace else [],
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}{'-full' if args.full else ''}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"rounds {len(rounds)} ({sum(r['traced'] for r in rounds)} traced), "
          f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    if items_per_s is not None:
        print(f"items_per_s {items_per_s:.6g} 1/s")
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
