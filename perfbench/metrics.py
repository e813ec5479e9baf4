"""Metric names, units and the arithmetic that turns samples into metrics.

Standard library only: ``run.py`` imports this module without numpy.
"""

from __future__ import annotations

import statistics

#: End-to-end metrics: name -> unit.  Printed for every workload, untraced.
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Public functions the loops call, as ``<module>.<function>`` span names.
LAYER_CALLS = (
    "generate.random_state",
    "pauli.pauli_coords",
    "states.gram",
    "states.standard_form",
    "states.lu_equivalent",
    "classify.classify",
    "sep.sep_feasible",
    "oracle.brute_force_sep",
    "oracle.numeric_symmetry_search",
    "seeds.symmetry_audit",
    "protocols.locc_reach_protocol",
    "protocols.locc_convert_step",
    "protocols.sep_map_confined",
    "protocols.sep_map_disjoint",
    "protocols.sep_map_from_witness",
    "protocols.validate_povm",
    "protocols.simulate_branches",
    "statefile.protocol_to_json",
    "statefile.protocol_from_json",
)

#: ``construction`` labels of the protocols the package builds.
CONSTRUCTIONS = (
    "sep-disjoint",
    "sep-confined",
    "sep-witness",
    "locc-one-round",
    "locc-two-stage",
    "locc-nine-outcome",
    "locc-convert-step",
)

#: CLI subcommands as the ``cli`` workload names them (``sep-decide-oracle``
#: is ``sep-decide --oracle``), plus the bare import of the CLI module.
CLI_SPANS = (
    "import",
    "generate",
    "check-generic",
    "standard-form",
    "lu-equiv",
    "classify",
    "sep-decide",
    "sep-decide-oracle",
    "synth-protocol",
    "verify-protocol",
    "symmetry-audit",
)

#: Counters gathered from the outputs of each worker's first round, so they
#: repeat exactly for a given seed: name -> unit.
COUNTERS = {
    "sep.feasible_ratio": "ratio",
    "sep.vertices": "count",
    "oracle.abstain_ratio": "ratio",
    "oracle.agree_ratio": "ratio",
    "oracle.als_converged_ratio": "ratio",
    "classify.warnings": "count",
    "protocols.branches": "count",
    "statefile.bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in a fixed order."""
    out: dict[str, str] = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.busy_s"] = "s"
        out[f"{name}.p50_ms"] = "ms"
    out["sep.sep_feasible.feasible.p50_ms"] = "ms"
    out["sep.sep_feasible.infeasible.p50_ms"] = "ms"
    for label in CONSTRUCTIONS:
        out[f"protocols.{label}.p50_ms"] = "ms"
    for name in CLI_SPANS:
        out[f"cli.{name}.p50_ms"] = "ms"
    out.update(COUNTERS)
    out["bench.trace_overhead"] = "ratio"
    return out


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten of
    the samples beyond it: the sample of rank ``n - 11`` counting from zero,
    which is percentile ``100 (n - 11) / (n - 1)`` under linear interpolation.
    Below 21 samples it falls back to the median."""
    n = len(values)
    if n < 21:
        return 50.0, quantile(values, 0.5)
    return 100.0 * (n - 11) / (n - 1), sorted(values)[n - 11]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[tuple[str, float, float, str | None]],
) -> dict[str, float]:
    """Per-layer metrics from ``(name, duration_s, self_s, tag)`` records.

    Layers a workload never calls report zero calls and zero times.
    """
    durations: dict[str, list[float]] = {}
    busy: dict[str, float] = {}
    for name, duration, self_s, tag in spans:
        durations.setdefault(name, []).append(duration)
        busy[name] = busy.get(name, 0.0) + self_s
        if name == "sep.sep_feasible" and tag:
            durations.setdefault(f"{name}.{tag}", []).append(duration)
        elif name.startswith("protocols.") and tag in CONSTRUCTIONS:
            durations.setdefault(f"protocols.{tag}", []).append(duration)

    def p50_ms(key: str) -> float:
        values = durations.get(key)
        return statistics.median(values) * 1e3 if values else 0.0

    out: dict[str, float] = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = len(durations.get(name, ()))
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
        out[f"{name}.p50_ms"] = p50_ms(name)
    for verdict in ("feasible", "infeasible"):
        out[f"sep.sep_feasible.{verdict}.p50_ms"] = p50_ms(f"sep.sep_feasible.{verdict}")
    for label in CONSTRUCTIONS:
        out[f"protocols.{label}.p50_ms"] = p50_ms(f"protocols.{label}")
    for name in CLI_SPANS:
        out[f"cli.{name}.p50_ms"] = p50_ms(f"cli.{name}")
    return out


def counter_metrics(tally: dict[str, float]) -> dict[str, float]:
    """The :data:`COUNTERS` from the summed first-round tallies of all workers."""
    return {
        "sep.feasible_ratio": ratio(tally.get("sep_feasible", 0), tally.get("sep_calls", 0)),
        "sep.vertices": tally.get("vertices", 0),
        "oracle.abstain_ratio": ratio(tally.get("oracle_abstain", 0), tally.get("oracle_calls", 0)),
        "oracle.agree_ratio": ratio(
            tally.get("oracle_agree", 0),
            tally.get("oracle_calls", 0) - tally.get("oracle_abstain", 0),
        ),
        "oracle.als_converged_ratio": ratio(tally.get("als_converged", 0), tally.get("als_starts", 0)),
        "classify.warnings": tally.get("warnings", 0),
        "protocols.branches": tally.get("branches", 0),
        "statefile.bytes": tally.get("bytes", 0),
    }


def trace_overhead(by_kind: list[dict[str, list[float]]]) -> float:
    """Traced over untraced time for the same mix of operations, minus one.

    Each worker gives, per operation kind, [traced seconds, traced count,
    untraced seconds, untraced count].  Both sides are weighted by the kind's
    total count, so a different traced and untraced mix cancels out.
    """
    pooled: dict[str, list[float]] = {}
    for worker in by_kind:
        for kind, sums in worker.items():
            acc = pooled.setdefault(kind, [0.0, 0, 0.0, 0])
            for i, value in enumerate(sums):
                acc[i] += value
    traced = plain = 0.0
    for on_s, on_n, off_s, off_n in pooled.values():
        if on_n and off_n:
            traced += (on_n + off_n) * on_s / on_n
            plain += (on_n + off_n) * off_s / off_n
    return traced / plain - 1.0 if plain else 0.0


def audit_totals_error(tally: dict[str, float]) -> str | None:
    """Criterion 4's aggregate gate: the oracle abstains on under 1 % of calls."""
    calls = tally.get("oracle_calls", 0)
    if calls and tally.get("oracle_abstain", 0) >= 0.01 * calls:
        return f"oracle abstained on {tally['oracle_abstain']} of {calls} calls"
    return None
