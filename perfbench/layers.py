"""Per-layer metrics of one traced sweep, made from its spans.

Round 0 is cold (every cache of the process empty); rounds 1.. are warm.
``*_cold_s`` sums round-0 calls, ``*_busy_s`` sums every call of the
sweep, and a per-call metric in ms or us is the median over warm rounds.
"""

from __future__ import annotations

import statistics

CLI_SUBCOMMANDS = ("random", "construct", "entangle", "separability", "generators", "ybe",
                   "ybe_algebraic", "braid")

# Metric name -> unit, by the workload whose traced sweep measures it.
METRICS = {
    "sep-ladder": {
        "segre.verdict_cold_s": "s",
        "segre.calls": "count",
        "segre.verdict_warm_us": "us",
        "segre.oracle_us": "us",
        "segre.busy_s": "s",
    },
    "gates": {
        "entangler.certify_cold_s": "s",
        "entangler.certify_warm_ms": "ms",
        "entangler.construct_us": "us",
        "entangler.phase_gate_us": "us",
        "entangler.apply_us": "us",
        "entangler.busy_s": "s",
        "tensorops.unitary_ms": "ms",
        "tensorops.kron_ms": "ms",
        "braid.ybe_busy_s": "s",
        "braid.ybe_top_ms": "ms",
        "braid.algebraic_busy_s": "s",
        "braid.relations_busy_s": "s",
        "braid.relations_top_ms": "ms",
        "braid.relations_reported": "count",
    },
    "cli": {
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        **{f"cli.{sub}_ms": "ms" for sub in CLI_SUBCOMMANDS},
        "serialize.parse_ms": "ms",
        "serialize.emit_ms": "ms",
        "cli.stdout_bytes": "bytes",
        "cli.stderr_bytes": "bytes",
    },
}


def _durations(spans, name, warm=None, **tags):
    out = []
    for s in spans:
        if s["name"] != name or any(s.get(k) != v for k, v in tags.items()):
            continue
        if warm is not None and (s["round"] > 0) != warm:
            continue
        out.append(s["end"] - s["start"])
    return out


def _per_round(spans, key):
    """Sum of the count ``key`` over the spans of each round."""
    rounds = {}
    for s in spans:
        if key in s:
            rounds[s["round"]] = rounds.get(s["round"], 0) + s[key]
    return rounds


def layer_metrics(workload: str, spans: list[dict]) -> dict:
    def med(name, **tags):
        return statistics.median(_durations(spans, name, warm=True, **tags))

    def total(*names, warm=None):
        return sum(sum(_durations(spans, n, warm=warm)) for n in names)

    if workload == "sep-ladder":
        seen, cold = set(), 0.0
        for s in spans:
            key = tuple(s.get("dims", ()))
            if s["name"] == "segre.is_fully_separable" and s["round"] == 0 and key not in seen:
                seen.add(key)
                cold += s["end"] - s["start"]
        names = ("segre.is_fully_separable", "segre.rank1_oracle")
        return {
            "segre.verdict_cold_s": cold,
            "segre.calls": sum(1 for s in spans if s["name"] in names and s["round"] == 0),
            "segre.verdict_warm_us": med(names[0]) * 1e6,
            "segre.oracle_us": med(names[1]) * 1e6,
            "segre.busy_s": total(*names),
        }
    if workload == "gates":
        entangler = ("entangler.construct_entangler", "entangler.phase_gate",
                     "entangler.apply_entangler", "entangler.certify_entangler")
        return {
            "entangler.certify_cold_s": total("entangler.certify_entangler", warm=False),
            "entangler.certify_warm_ms": med("entangler.certify_entangler") * 1e3,
            "entangler.construct_us": med("entangler.construct_entangler") * 1e6,
            "entangler.phase_gate_us": med("entangler.phase_gate") * 1e6,
            "entangler.apply_us": med("entangler.apply_entangler") * 1e6,
            "entangler.busy_s": total(*entangler),
            "tensorops.unitary_ms": med("tensorops.is_unitary") * 1e3,
            "tensorops.kron_ms": med("tensorops.kron") * 1e3,
            "braid.ybe_busy_s": total("braid.check_yang_baxter"),
            "braid.ybe_top_ms": med("braid.check_yang_baxter", top=True) * 1e3,
            "braid.algebraic_busy_s": total("braid.check_algebraic_yang_baxter"),
            "braid.relations_busy_s": total("braid.check_braid_relations"),
            "braid.relations_top_ms": med("braid.check_braid_relations", top=True) * 1e3,
            "braid.relations_reported": _per_round(spans, "reported")[0],
        }
    interp = med("cli.interpreter")
    out = {
        "cli.interpreter_ms": interp * 1e3,
        "cli.import_ms": (med("cli.import") - interp) * 1e3,
        **{f"cli.{sub}_ms": med(f"cli.{sub}") * 1e3 for sub in CLI_SUBCOMMANDS},
        "serialize.parse_ms": med("serialize.parse") * 1e3,
        "serialize.emit_ms": med("serialize.emit") * 1e3,
    }
    for key in ("stdout_bytes", "stderr_bytes"):
        out[f"cli.{key}"] = statistics.median(_per_round(spans, key).values())
    return out
