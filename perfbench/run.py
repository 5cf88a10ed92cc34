"""braidgate benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sep-ladder|gates --seed N \
        --seconds S --trace 0|1

Run it from the root of a braidgate checkout; it imports the package from
``src``. Each sweep of the workload runs in a fresh worker process (see
``worker.py``); sweeps repeat until about ``--seconds`` have passed, and
every metric is the median over sweeps, and every time is given at one
reference speed (see ``REF_NOMINAL_S``). Set-up time is also sampled by
two worker processes before each sweep that stop before the first call. With ``--trace 1``
the sweeps are traced and the run reports per-layer metrics instead; the
layers of the other in-process workload come from one traced tiny sweep,
and those of the CLI from one traced full-size ``cli`` sweep.

The last line of stdout is the result; the same object, with every sweep's
details, is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402  (after the path is set; imports no braidgate)

# The timed workloads. ``cli`` (every subcommand as a fresh process) is only
# a layer sweep of traced runs: its round times spread too widely from run
# to run on a shared 2-vCPU host to hold an end-to-end bound.
WORKLOADS = ("sep-ladder", "gates")
# A traced run adds one traced sweep of each of these, for their layers.
LAYER_SWEEPS = {"sep-ladder": [("gates", "tiny"), ("cli", "full")],
                "gates": [("sep-ladder", "tiny"), ("cli", "full")]}
# Times are given at one reference speed: the speed at which the worker's
# reference loop (worker.reference_loop) takes REF_NOMINAL_S. On a shared
# host the same code runs up to about a quarter slower for tens of seconds
# at a time, and one worker process can run slower than the next; the loop,
# timed between the calls of each sweep on the same CPU, slows with them,
# so scaling each sweep by its own samples keeps that drift out of the
# figures while every change to braidgate's own time still shows in full.
REF_NOMINAL_S = 0.006
TIME_UNITS = {"s", "ms", "us"}
OUT = ".perfbench"
SETUP_PROBES = 2  # before each sweep
SWEEP_TIMEOUT_S = 150
# BLAS threads are pinned so that figures do not depend on what else the
# machine runs; the rounds are single-threaded Python.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_worker(args: list[str], env: dict) -> tuple[float, dict]:
    """Start a worker, wait for it, and return (start time, its summary)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    started = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {' '.join(args)} did not finish in {SWEEP_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace")[-4000:])
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return started, json.loads(out.decode().strip().splitlines()[-1])


def speed_scale(sweep: dict) -> float:
    """The factor that brings the times of one sweep to the reference speed."""
    return REF_NOMINAL_S / statistics.median(sweep["ref_s"])


def worker_args(workload, seed, size, trace, tag) -> list[str]:
    args = ["--workload", workload, "--seed", str(seed), "--size", size,
            "--trace", str(int(trace)), "--workdir", os.path.join(OUT, "tmp", tag)]
    if trace:
        args += ["--spans", os.path.join(OUT, "spans", f"{tag}.jsonl")]
    return args


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "braidgate", "__init__.py")):
        print("error: run from the root of a braidgate checkout (no src/braidgate here)",
              file=sys.stderr)
        return 2
    for sub in ("tmp", "spans", "results"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    # The caller's PYTHON* settings (no bytecode cache, unbuffered output, a
    # cache prefix outside the checkout) would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env.update(PYTHONPATH=src, **THREAD_ENV)
    trace = bool(args.trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    start = monotonic()

    # Untimed: compiles the bytecode of braidgate and of this benchmark once.
    run_worker(worker_args(args.workload, args.seed, "tiny", False, name) + ["--setup-only"], env)
    setup, sweeps = [], []
    while True:
        for _ in range(SETUP_PROBES):
            t0, s = run_worker(worker_args(args.workload, args.seed, "full", False, name)
                               + ["--setup-only"], env)
            setup.append(s["first_call_at"] - t0)
        t0, s = run_worker(worker_args(args.workload, args.seed, "full", trace,
                                       f"{name}-sweep{len(sweeps)}"), env)
        setup.append(s["first_call_at"] - t0)
        sweeps.append(s)
        # Start another sweep only if at most half of it would run past the end.
        if monotonic() + (monotonic() - t0) / 2 > start + args.seconds:
            break
    others = []
    if trace:
        for w, size in LAYER_SWEEPS[args.workload]:
            _, s = run_worker(worker_args(w, args.seed, size, True, f"{name}-{w}-{size}"), env)
            others.append((w, s))

    everything = sweeps + [s for _, s in others]
    # Set-up probes stop before the first call, so they take the run's factor.
    run_scale = REF_NOMINAL_S / statistics.median(x for s in sweeps for x in s["ref_s"])
    rounds = [[t * speed_scale(s) for t in s["round_s"]] for s in sweeps]
    e2e = {
        "setup_s": (statistics.median(setup) * run_scale, "s"),
        "wall_s": (statistics.median(sum(r) for r in rounds), "s"),
        "cold_round_s": (statistics.median(r[0] for r in rounds), "s"),
        "warm_round_p50_ms": (statistics.median(x for r in rounds for x in r[1:]) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(s["rss_mb"] for s in sweeps), "MB"),
    }
    if trace:
        metrics = {}
        for w, ss in [(args.workload, sweeps)] + [(w, [s]) for w, s in others]:
            for metric, unit in layers.METRICS[w].items():
                values = [s["layers"][metric] * (speed_scale(s) if unit in TIME_UNITS else 1)
                          for s in ss]
                metrics[metric] = (statistics.median(values), unit)
    else:
        metrics = e2e
    result = {
        "correct": all(s["n_problems"] == 0 for s in everything),
        "attempted": sum(s["attempted"] for s in everything),
        "failed": sum(s["failed"] for s in everything),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {"result": result, "run_scale": run_scale,
               "sweep_scales": [speed_scale(s) for s in sweeps],
               "setup_samples": setup, "sweeps": sweeps,
               "layer_sweeps": dict(others), "seconds": monotonic() - start}
    with open(os.path.join(OUT, "results", f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    for s in everything:
        for line in s["problems"] + s["errors"]:
            print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
