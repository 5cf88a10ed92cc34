"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/paired_bench.py --parent REF --workload W --seeds S [S ...] \
        --seconds T [--json PATH]

Run it from the root of a braidgate checkout. The parent is exported with
``git archive REF`` into a temporary directory, removed on exit. For each
seed, ``perfbench/run.py --trace 0`` runs once in the parent's tree and once
in the working tree, with the side that goes first alternating from seed to
seed. For every end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles, the pairs the change won (ties count for
neither side), whether the change's median is within the metric's bound of
the parent's, and whether a gain is shown: the change wins at least nine
tenths of the pairs and its median is better than the parent's by more than
the parent's interquartile range. The same summary, with every run's
metrics, is written as JSON (by default ``.perfbench/paired-W.json``).

A run that exits non-zero, or whose last line of stdout is not a JSON
result with ``metrics``, ``correct`` and ``failed``, ends the series: its
exit code and the last 20 lines of its stderr, and for a malformed result
that last line as ``malformed``, are printed and kept in the JSON as
``failed_run``, the pairs completed before it are summarized with
``all_correct`` false, and the tool exits 1.

Stopping the tool while a run is under way can leave a ``perfbench/worker.py``
running: ``perfbench/run.py`` starts its worker in a session of its own and
does not stop it when it is itself terminated, so the worker lives on for up
to ``SWEEP_TIMEOUT_S`` = 150 s. Find it and stop it by pid. The mend belongs
in ``perfbench/``, which changes only together with the benchmark.

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """The per-metric summary of ``pairs`` of (parent, change) metric dicts,
    for ``metrics`` as listed under ``end_to_end`` in ``BENCHMARK.json``
    (each with ``name``, ``better`` of "lower" or "higher", and ``bound``, the
    fraction by which it may worsen)."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        gain = sign * (pmed - cmed)
        out[name] = {
            "unit": m.get("unit", ""),
            "parent": {"median": pmed, "q1": pq1, "q3": pq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "relative": (cmed - pmed) / pmed if pmed else None,
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "within_bound": -gain <= m["bound"] * abs(pmed),
            "gain_shown": wins >= 0.9 * len(pairs) and gain > pq3 - pq1,
        }
    return out


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its parsed result line, or,
    if it exits non-zero, its ``exit_code`` and ``stderr_tail``, the last 20
    lines of its stderr. A run that exits 0 without a result, a JSON object
    with ``metrics``, ``correct`` and ``failed``, on its last line of stdout
    gives those two and ``malformed``, that line ("" if there is none)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    failed = {"exit_code": proc.returncode, "stderr_tail": proc.stderr.splitlines()[-20:]}
    if proc.returncode:
        return failed
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if isinstance(result, dict) and {"metrics", "correct", "failed"} <= result.keys():
        return result
    return {**failed, "malformed": last}


def export(ref: str, dest: str) -> None:
    """The files of commit ``ref`` written under ``dest``."""
    archive = subprocess.run(["git", "archive", ref], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--json", help="summary path (default .perfbench/paired-WORKLOAD.json)")
    args = ap.parse_args(argv)
    # a terminated run still removes the parent's tree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    runs, failed = [], None
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as parent:
        export(args.parent, parent)
        for i, seed in enumerate(args.seeds):
            sides = [("parent", parent), ("change", os.getcwd())]
            result = {}
            for side, tree in sides if i % 2 == 0 else sides[::-1]:
                result[side] = run(tree, args.workload, seed, args.seconds)
                if "exit_code" in result[side]:
                    failed = {"seed": seed, "side": side, **result[side]}
                    malformed = (f" with a malformed last line {failed['malformed']!r}"
                                 if "malformed" in failed else "")
                    print(f"seed {seed} {side}: exited {failed['exit_code']}{malformed}; "
                          "its stderr ends:", *failed["stderr_tail"], sep="\n    ", flush=True)
                    break
                print(f"seed {seed} {side}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result[side]["metrics"].items()),
                    flush=True)
            if failed:
                break
            runs.append({"seed": seed, "first": "parent" if i % 2 == 0 else "change", **result})
    pairs = [tuple({k: v["value"] for k, v in r[side]["metrics"].items()}
                   for side in ("parent", "change")) for r in runs]
    summary = summarize(pairs, metrics) if pairs else {}
    print(f"{args.workload}, {len(pairs)} pairs, parent {args.parent}: "
          "median (q1-q3), parent -> change")
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"  {name}: {p['median']:.4g} ({p['q1']:.4g}-{p['q3']:.4g}) -> "
              f"{c['median']:.4g} ({c['q1']:.4g}-{c['q3']:.4g}) {s['unit']}; "
              f"change won {s['wins']}/{s['pairs']}; within bound: {s['within_bound']}; "
              f"gain shown: {s['gain_shown']}")
    ok = not failed and all(r[side]["correct"] and not r[side]["failed"]
                            for r in runs for side in ("parent", "change"))
    print(f"  every run correct with no failed operation: {ok}")
    path = args.json or os.path.join(".perfbench", f"paired-{args.workload}.json")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"parent": args.parent, "workload": args.workload, "seconds": args.seconds,
                   "all_correct": ok, "summary": summary, "runs": runs, "failed_run": failed},
                  fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
