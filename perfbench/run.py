#!/usr/bin/env python3
"""modlift benchmark: certified verdicts per second and per-item latency.

One workload, one process, one client that sends the next item when the
previous verdict is back (a closed loop):

    python3 perfbench/run.py --workload search-small --seed 1 --seconds 30 --trace 0

prints a human summary on stderr and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the spans around the calls
into each layer are recorded and the per-layer metrics are reported instead.

Every workload, both modes, after the harness self-test:

    python3 perfbench/run.py --all --seed 1

Results, spans and the run environment are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("search-small", "long-relator", "classify-induced")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may use."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    return cores


def import_library() -> None:
    """Put the checkout's own sources first; refuse to run without them."""
    src = ROOT / "src"
    if not (src / "modlift" / "__init__.py").is_file():
        raise SystemExit("error: no modlift sources under src/ next to the benchmark")
    sys.path.insert(0, str(src))
    import modlift

    if Path(modlift.__file__).resolve().parent != (src / "modlift").resolve():
        raise SystemExit("error: imported a modlift other than the checkout's")


def prepare(wl, seed: int) -> list:
    """Set-up: inputs, classify's cached witnesses, and an untimed warm-up."""
    from tracing import Tracer
    from workloads import fill_witness_cache

    items = wl.make(seed)
    warm = wl.warmup()
    fill_witness_cache(items + warm)
    idle = Tracer()
    for item in warm:
        wl.run(item, idle)
    return items


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first timed item."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe for {workload} failed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return elapsed


def environment(seed: int, cores: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modlift").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cores_available": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, cores: int) -> tuple:
    """(result line, extras) of one run; both also go to perfbench/out/."""
    import numpy as np

    from checks import Judge, classify_summary, lift_summary
    from tracing import PER_LAYER, Tracer, patched, per_layer
    from workloads import WORKLOADS, LiftItem

    env = environment(seed, cores)
    wl = WORKLOADS[workload]
    # set-up is probed before and after the timed run, so that a slow spell
    # of the machine at either end moves its median less
    setup_samples = [probe_setup(workload, seed) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    items = prepare(wl, seed)
    tracer = Tracer()
    judge = Judge()
    times_ms = []
    pass_ms = []                     # timed item time of each whole pass
    passes = 0
    with patched(tracer) if trace else nullcontext():
        start = time.perf_counter()
        while passes < wl.min_passes or time.perf_counter() - start < seconds:
            tracer.pass_no = passes
            for key, item in enumerate(items):
                tracer.recording = trace
                t0 = time.perf_counter_ns()
                try:
                    out = wl.run(item, tracer)
                except Exception as exc:  # a failed item is counted, the run goes on
                    times_ms.append((time.perf_counter_ns() - t0) / 1e6)
                    tracer.recording = False
                    judge.record_error(item.label, exc)
                    continue
                times_ms.append((time.perf_counter_ns() - t0) / 1e6)
                if trace and wl.traced_extra is not None:
                    wl.traced_extra(out, tracer)
                tracer.recording = False
                if isinstance(item, LiftItem):
                    summary = lift_summary(out)
                    del out          # drop the solved system before re-checking
                    judge.lift(key, item, summary)
                else:
                    summary = classify_summary(*out)
                    del out
                    judge.classify(key, item, summary)
            passes += 1
            pass_ms.append(sum(times_ms[-len(items):]))
    setup_samples += [probe_setup(workload, seed) for _ in range(SETUP_PROBES // 2)]
    tally = judge.tally
    # Every pass holds the same items, so passes differ only in the speed the
    # shared machine gave them.  Its slow spells only ever add time: the
    # fastest pass, and each item's fastest copy, are the program's own cost.
    verdicts_per_s = len(items) / (min(pass_ms) / 1e3)
    item_ms = np.min(np.reshape(times_ms, (passes, len(items))), axis=0)
    q = wl.tail_percentile(len(items))
    tail = float(np.percentile(times_ms, q))
    extras = {
        "failed_frac": tally.failed_frac,
        "uncertified_witness_frac": tally.uncertified_witness_frac,
        "tail_percentile": q,
        "tail_samples_beyond": sum(t > tail for t in times_ms),
        "samples": len(times_ms),
        "passes": passes,
        "pass_ms": pass_ms,
        "times_ms": [round(t, 4) for t in times_ms],
        "pass_items": len(items),
        "item_ms": [[item.label, float(ms)] for item, ms in zip(items, item_ms)],
        "setup_samples_s": setup_samples,
        "failures": tally.reasons[:20],
    }
    if trace:
        metrics = per_layer(tracer.spans, passes)
        metrics["classify.uncertified_witness_frac"] = tally.uncertified_witness_frac
        metrics["harness.traced_verdicts_per_s"] = verdicts_per_s
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "verdicts_per_s": verdicts_per_s,
            "verdict_ms_p50": float(np.median(item_ms)),
            "verdict_ms_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_samples),
        }
        units = END_TO_END
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.dump(OUT / f"spans-{stem}.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(OUT / f"result-{stem}.json", "w") as f:
        json.dump({"workload": workload, "trace": trace, "environment": env,
                   "extras": extras, **result}, f, indent=1)
    return result, extras


def summarize(workload: str, result: dict, extras: dict) -> str:
    lines = [f"[{workload}] attempted {result['attempted']} failed {result['failed']} "
             f"failed_frac {extras['failed_frac']:.4g} ratio "
             f"uncertified_witness_frac {extras['uncertified_witness_frac']:.4g} ratio "
             f"passes {extras['passes']} tail at p{extras['tail_percentile']:.2f} "
             f"({extras['tail_samples_beyond']} of {extras['samples']} samples beyond)"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    return "\n".join(lines)


def run_all(seed: int, seconds: float) -> int:
    """Self-test, then every workload untraced and traced, in child processes."""
    test = subprocess.run([sys.executable, str(BENCH / "selftest.py")])
    if test.returncode != 0:
        print("harness self-test failed", file=sys.stderr)
        return 1
    report = {}
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} --trace {trace} exited {proc.returncode}")
                return 1
            with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json") as f:
                saved = json.load(f)
            report.setdefault(workload, {})[f"trace{trace}"] = saved
            ok &= saved["correct"]
        plain = report[workload]["trace0"]
        traced = report[workload]["trace1"]
        print(summarize(workload, plain, plain["extras"]))
        print("\n".join(summarize(workload, traced, traced["extras"]).splitlines()[1:]))
        fast = plain["metrics"]["verdicts_per_s"]["value"]
        slow = traced["metrics"]["harness.traced_verdicts_per_s"]["value"]
        overhead = 1e3 / slow - 1e3 / fast
        print(f"  {'tracing overhead per verdict':36s} {overhead:14.6g} ms "
              f"({100 * overhead * fast / 1e3:.2f} % of the untraced mean)")
        report[workload]["tracing_overhead_ms_per_verdict"] = overhead
    with open(OUT / f"all-seed{seed}.json", "w") as f:
        json.dump(report, f, indent=1)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="self-test, then every workload, both modes")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    cores = cap_threads()
    import_library()
    if args.all:
        OUT.mkdir(exist_ok=True)
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload or --all is required")
    if args.setup_probe:
        from workloads import WORKLOADS

        prepare(WORKLOADS[args.workload], args.seed)
        print("ready", flush=True)
        return 0
    result, extras = measure(args.workload, args.seed, args.seconds, bool(args.trace), cores)
    print(summarize(args.workload, result, extras), file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
