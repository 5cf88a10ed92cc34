"""One sweep of one workload in a fresh process: set-up, rounds, checks.

    python3 perfbench/worker.py --workload W --seed N --size full|tiny \
        --trace 0|1 --workdir DIR [--spans FILE] [--setup-only]

braidgate must be importable (``run.py`` puts ``src`` on PYTHONPATH). The
last line of stdout is a JSON summary; ``run.py`` turns the summaries of
several sweeps into the benchmark's metrics. A round's time is the sum of
its calls. Rounds are timed with tracing off unless ``--trace 1``; then
every op gets a span, kept in memory and written to ``--spans`` as JSON
lines when the sweep ends, and the summary carries the per-layer metrics
made from them.

Between calls, at most every ``REF_EVERY_S`` seconds, the worker times a
fixed pure-Python loop (``reference_loop``) outside every round time. Those
samples tell ``run.py`` how fast the CPU the calls ran on was at the time.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import layers
import workloads


REF_LOOP_N = 50_000
REF_EVERY_S = 0.1


def monotonic() -> float:
    """A clock shared by every process on the machine, for the set-up time."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that calls no braidgate code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - t0


class Reference:
    """Samples of ``reference_loop``, taken at most every ``REF_EVERY_S`` seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -REF_EVERY_S

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.samples.append(reference_loop())
            self.last = time.perf_counter()


def _call(op):
    try:
        return op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def _run(ops, r, ref, spans=None):
    """Call every op once; return the outputs and the summed time of the calls."""
    outs, busy = [], 0.0
    for op in ops:
        ref.maybe_sample()
        t0 = time.perf_counter()
        out = _call(op)
        t1 = time.perf_counter()
        busy += t1 - t0
        if spans is not None:
            span = {"name": op.span, "round": r, "start": t0, "end": t1,
                    "parent": f"round-{r}", **op.tags}
            if op.counts is not None and not isinstance(out, Exception):
                span.update(op.counts(out))
            spans.append(span)
        outs.append(out)
    return outs, busy


def _check(ops, outs, tally) -> None:
    for op, out in zip(ops, outs):
        tally["attempted"] += 1
        if isinstance(out, Exception):
            tally["failed"] += 1
            tally["errors"].append(f"{op.span} {op.tags}: {out!r}")
            continue
        for problem in op.check(out):
            tally["problems"].append(f"{op.span} {op.tags}: {problem}")


def sweep(workload: str, seed: int, size: str, trace: bool, workdir: str,
          setup_only: bool = False) -> dict:
    plan = workloads.build(workload, seed, size, workdir, trace)
    first_call_at = monotonic()
    if setup_only:
        plan.close()
        return {"first_call_at": first_call_at}
    round_s, ref = [], Reference()
    spans = [] if trace else None
    tally = {"attempted": 0, "failed": 0, "problems": [], "errors": []}
    try:
        for r, ops in enumerate(plan.rounds):
            t0 = time.perf_counter()
            outs, busy = _run(ops, r, ref, spans)
            round_s.append(busy)
            if trace:
                spans.append({"name": "round", "round": r, "start": t0,
                              "end": time.perf_counter(), "parent": None})
                _check(plan.probes[r], _run(plan.probes[r], r, ref, spans)[0], tally)
            _check(ops, outs, tally)
    finally:
        plan.close()
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    summary = {
        "first_call_at": first_call_at,
        "round_s": round_s,
        "ref_s": ref.samples,
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "n_problems": len(tally["problems"]),
        "problems": tally["problems"][:20],
        "errors": tally["errors"][:20],
    }
    if trace:
        summary["layers"] = layers.layer_metrics(workload, spans)
        summary["spans"] = spans
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=["full", "tiny"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    summary = sweep(args.workload, args.seed, args.size, bool(args.trace), args.workdir,
                    args.setup_only)
    spans = summary.pop("spans", None)
    if spans is not None and args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
