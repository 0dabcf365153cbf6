"""weilflow benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload e5-battery --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere inside a checkout: weilflow is imported from the checkout's
src/ and nowhere else. With --trace 0 the last line of stdout is
{"correct", "attempted", "failed", "metrics"} with every end-to-end metric;
with --trace 1 the metrics are the per-layer ones from a traced run. The
lines before it repeat each metric with its unit and add the environment,
the tail percentile with its op count, how the inputs were drawn and every
failed op. The full record is written under perfbench/out/. Metric names, units and
workload names come from BENCHMARK.json at the checkout's root. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
SETUP_PROBES = 9
# numpy's BLAS would start a thread per core at import; the benchmark is single-threaded
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_weilflow() -> None:
    """Import weilflow from this checkout's src/; exit 1 when it is absent."""
    if not (SRC / "weilflow" / "__init__.py").is_file():
        sys.exit("perfbench: no weilflow sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    weilflow = importlib.import_module("weilflow")
    if Path(weilflow.__file__).resolve().parent != SRC / "weilflow":
        sys.exit("perfbench: imported weilflow from %s, not %s" % (weilflow.__file__, SRC))


def environment(threads_env) -> dict:
    import numpy
    import weilflow

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "weilflow": weilflow.__version__,
        "WEILFLOW_THREADS": "unset" if threads_env is None else "unset (was %r)" % threads_env,
        "blas_threads": os.environ[BLAS_THREADS[0]],
        "machine": platform.machine(),
    }


def tail(times: list) -> tuple:
    """(value, percentile, n): the highest whole percentile with at least ten
    samples beyond it, by nearest rank; the maximum below 11 samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100, n
    pct = (100 * (n - 10)) // n
    return ordered[max(1, math.ceil(pct * n / 100)) - 1], pct, n


@dataclass
class Record:
    op: object
    seconds: float
    output: object
    kind: str | None  # None (passed), "error" (raised) or "check" (wrong output)
    message: str = ""  # the error or the problems found


def judge(op, seconds: float, output, error) -> Record:
    """Check one op's output. An op that raised is wrong, and so is one whose
    check finds a problem."""
    if error is not None:
        return Record(op, seconds, output, "error", error)
    try:
        problems = op.check(output)
    except Exception as exc:  # malformed output is a failed check
        problems = ["%s: %s" % (type(exc).__name__, exc)]
    if problems:
        return Record(op, seconds, output, "check", "; ".join(problems))
    return Record(op, seconds, output, None)


def correct(records: list) -> bool:
    """Every op passed its check."""
    return bool(records) and all(r.kind is None for r in records)


class SetupProbes:
    """setup_s: wall time from spawning a fresh interpreter until it has
    imported weilflow and prepared the inputs, the fastest of `count` starts.

    One untimed start fills the bytecode cache. The timed starts are spread
    over the timed loop. Noise here only ever adds time: the same start takes
    0.19 s or 0.30 s of CPU time as the host's load comes and goes, in spells
    of seconds. The fastest start over the loop is the steady measure of the
    work; a median follows whichever spell most starts fell in."""

    def __init__(self, workload: str, seed: int, count: int = SETUP_PROBES):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed), "--probe"]
        self.count = count
        self.times: list = []
        self.time_one()  # untimed: fills the bytecode cache

    def time_one(self) -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                _, err = proc.communicate()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed (exit %s): %s" % (proc.returncode, err.strip()))
        return elapsed

    def due(self, fraction: float) -> None:
        """Run the probes due once `fraction` of the loop has passed."""
        while len(self.times) < min(self.count, int(fraction * self.count) + 1):
            self.times.append(self.time_one())


def timed_loop(rounds: list, seconds: float, call=None, between=None) -> tuple:
    """Run whole rounds until `seconds` have passed, at least one round.

    Returns (records, elapsed). Each op is checked right after it ran, and
    `between(fraction of the loop done)` runs after each op; neither counts
    in an op's time or in the loop's.
    """
    call = call or (lambda i, fn: fn())
    records = []
    paused = 0.0
    start = time.perf_counter()
    for rnd in itertools.cycle(rounds):
        for op in rnd:
            t0 = time.perf_counter()
            try:
                output, error = call(len(records), op.run), None
            except Exception as exc:  # a failed op is counted, never fatal
                output, error = None, "%s: %s" % (type(exc).__name__, exc)
            t1 = time.perf_counter()
            records.append(judge(op, t1 - t0, output, error))
            if between is not None:
                between((t1 - start - paused) / seconds if seconds > 0 else 1.0)
            paused += time.perf_counter() - t1
        if time.perf_counter() - start - paused >= seconds:
            break
    return records, time.perf_counter() - start - paused


def failures(records: list) -> list:
    """Failed ops as dicts: op index, input, kind (error | check), message."""
    return [{"op": i, "input": r.op.label, "kind": r.kind, "error": r.message}
            for i, r in enumerate(records) if r.kind is not None]


def verify_reports(records: list) -> list:
    from weilflow import VerificationReport

    return [r.output for r in records if isinstance(r.output, VerificationReport)]


def layer_metrics(tracer, records: list, overhead: float) -> dict:
    """Every per-layer metric of a traced run, per op of the traced loop."""
    from weilflow.formula import NU_FLOOR

    n_ops = len(records)
    totals = tracer.layer_totals()
    reports = verify_reports(records)
    per_j = [t for rep in reports for t in rep.spectral.per_j]
    slack = [rep.certified_budget / max(rep.residuals.values())
             for rep in reports if max(rep.residuals.values()) > 0]
    cli_outputs = [r.output for r in records if isinstance(r.output, list)]
    cli_bytes = sum(len(out) for output in cli_outputs for _, out, _ in output)
    derived = {
        "counting.N_max.bits": tracer.n_max_bits,
        "bumps.phi_ladder.points": tracer.ladder["points"] / n_ops,
        "bumps.phi_ladder.nodes": tracer.ladder["nodes"] / n_ops,
        "bumps.phi_ladder.panels.max": tracer.ladder["panels_max"],
        "formula.trace_j.nu_max.max": max((t.nu_max for t in per_j), default=0),
        "formula.trace_j.nu_max.sum": sum(t.nu_max for t in per_j) / n_ops,
        "formula.trace_j.floor_bound_share":
            sum(t.nu_max == NU_FLOOR for t in per_j) / len(per_j) if per_j else 0.0,
        "formula.spectral_side_zero_sum.zero_count":
            sum(rep.spectral.zero_count for rep in reports) / n_ops,
        "formula.verify.residual.max":
            max((max(rep.residuals.values()) for rep in reports), default=0.0),
        "formula.verify.cert_slack": statistics.median(slack) if slack else 0.0,
        "cli.main.bytes": cli_bytes / max(1, len(cli_outputs)),
        "trace.overhead_s": overhead,
        "fail_ratio": sum(r.kind is not None for r in records) / n_ops,
        "certified_budget.max": max((rep.certified_budget for rep in reports), default=0.0),
    }
    values = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in derived:
            values[name] = derived[name]
        else:
            layer, _, field = name.rpartition(".")
            calls, self_s = totals.get(layer, (0, 0.0))
            values[name] = (calls if field == "calls" else self_s) / n_ops
    return values


def plain_run(workload: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    probes = SetupProbes(workload, seed)
    rounds, input_notes = WORKLOADS[workload](seed, OUT / "inputs")
    records, elapsed = timed_loop(rounds, seconds, between=probes.due)
    probes.due(1.0)
    times = [r.seconds for r in records]
    tail_s, pct, n = tail(times)
    reports = verify_reports(records)
    metrics = {
        "setup_s": min(probes.times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "ops_per_s": len(times) / math.fsum(times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "metrics": metrics,
        "records": records,
        "notes": {
            "setup_s.samples": probes.times,
            "op_s.tail.percentile": pct,
            "op_s.tail.samples": n,
            "loop_s": elapsed,
            **input_notes,
            "fail_ratio": sum(r.kind is not None for r in records) / len(records),
            "certified_budget.max": max((r.certified_budget for r in reports), default=None),
        },
    }


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer numbers from a traced loop. Each op also runs once untraced,
    back to back with its traced copy, so the paired difference is the
    tracing cost without the machine's slow speed drift in it."""
    from spans import OP_SPAN, Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    untraced = []

    def untraced_copy(fn):
        t0 = time.perf_counter()
        try:
            fn()
        except Exception:  # the traced copy fails the same way and is recorded
            pass
        untraced.append(time.perf_counter() - t0)

    def paired(op_id, fn):
        # alternate which copy runs first: an op runs faster the second time,
        # and alternating cancels that from the mean difference
        if op_id % 2:
            untraced_copy(fn)
        try:
            with tracer:
                return tracer.run_op(op_id, fn)
        finally:
            if not op_id % 2:
                untraced_copy(fn)

    WORKLOADS[workload](seed, OUT / "inputs")  # untraced: g4-tables screens its draws once
    origin = time.perf_counter()
    with tracer:
        rounds, _ = WORKLOADS[workload](seed, OUT / "inputs")
    records, elapsed = timed_loop(rounds, seconds, paired)
    traced = [end - start for name, start, end, _, _ in tracer.spans if name == OP_SPAN]
    diffs = [t - u for t, u in zip(traced, untraced)]
    overhead = statistics.fmean(diffs) if diffs else 0.0
    spans_path = OUT / ("spans-%s-seed%d.jsonl" % (workload, seed))
    tracer.write(spans_path, origin)
    return {
        "metrics": layer_metrics(tracer, records, overhead),
        "records": records,
        "notes": {"spans_file": str(spans_path.relative_to(ROOT)), "spans": len(tracer.spans),
                  "loop_s": elapsed, "traced_op_s.p50": statistics.median(traced),
                  "untraced_op_s.p50": statistics.median(untraced)},
    }


def emit(workload: str, seed: int, seconds: float, trace: int, env: dict, run: dict) -> None:
    records = run["records"]
    failed = failures(records)
    result = {
        "correct": correct(records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in run["metrics"].items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "notes": run["notes"], "failures": failed, "result": result,
              "ops": [{"input": r.op.label, "seconds": r.seconds, "kind": r.kind}
                      for r in records]}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    path.write_text(json.dumps(record, indent=1) + "\n")

    print("perfbench %s seed=%d seconds=%g trace=%d" % (workload, seed, seconds, trace))
    print("env: " + " ".join("%s=%s" % kv for kv in env.items()))
    for name, value in run["metrics"].items():
        print("  %-44s %.6g %s" % (name, value, UNITS[name]))
    for key, value in run["notes"].items():
        print("  %-44s %s" % (key, value))
    kinds = [f["kind"] for f in failed]
    print("ops: %d attempted, %d failed (%d raised, %d failed checks)"
          % (len(records), len(failed), kinds.count("error"), kinds.count("check")))
    for f in failed:
        print("  FAILED op %d [%s] %s: %s" % (f["op"], f["kind"], f["input"], f["error"]))
    print("record: %s" % path.relative_to(ROOT))
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in its own process, in turn; a combined summary last."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print("perfbench: %s exited %d" % (name, proc.returncode), file=sys.stderr)
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="weilflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed loop; whole rounds, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads_env = os.environ.pop("WEILFLOW_THREADS", None)
    os.environ.update({name: "1" for name in BLAS_THREADS})
    load_weilflow()
    if args.workload == "all":
        return run_all(args)
    if args.probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, OUT / "inputs")
        print("ready", flush=True)
        return 0
    env = environment(threads_env)
    run = (traced_run if args.trace else plain_run)(args.workload, args.seed, args.seconds)
    emit(args.workload, args.seed, args.seconds, args.trace, env, run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
