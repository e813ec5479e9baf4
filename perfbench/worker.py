"""One fresh worker process of a benchmark run.

Usage (from ``run.py``): ``python3 perfbench/worker.py '<config json>'``.

The worker sets up its workload (import, input generation through
``qutritlocc.generate``, untimed warm-up), then runs a fixed number of whole
rounds of the workload as a closed loop, one operation at a time.  It prints
one JSON object with the samples, the checks' verdicts and, when traced, its
spans.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Callable

import reference
from spans import Tracer, self_times


def _build(cfg: dict, tracer: Tracer, workdir: Path):
    """Return (distinct rounds, warm-up ops) for the configured workload."""
    import numpy as np

    import workloads

    rng = np.random.default_rng([cfg["seed"], cfg["worker"]])
    name, tiny = cfg["workload"], cfg["tiny"]
    if name == "cli":
        ops, warm = workloads.build_cli(rng, tiny, workdir)
        return [ops], warm
    build, count = workloads.ROUND_BUILDERS[name]
    rounds = [build(tracer, rng, tiny) for _ in range(1 if tiny else min(count, cfg["rounds"]))]
    # one untimed call of each operation kind warms numpy's dispatch and the
    # package's lazily built tables (the audit's candidate cache among them)
    first = {}
    for op in rounds[0]:
        first.setdefault(op.kind, op)
    return rounds, [replace(op, run=op.warm) if op.warm else op for op in first.values()]


def _environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(
    rounds: list[list],
    count: int,
    tracer: Tracer,
    calibrate: Callable[[str], float],
    *,
    trace: bool = False,
    worker: int = 0,
    inject_abstention: bool = False,
) -> dict:
    """Run ``count`` whole rounds, cycling through ``rounds``, one operation
    at a time; time and check each operation.

    The number of operations is fixed by ``count``, never by how fast they
    run, so that every run of a workload measures the same mix and the tail
    percentile falls on the same operation.  Checks add to a fresh tally per
    operation: the tallies of the first round are the repeatable counters,
    those of every round are the totals that the run-wide gates read.

    ``calibrate`` times a reference kernel by name.  Every kernel that an
    operation of ``rounds`` names is timed before the first operation, after
    each ``reference.CALIBRATE_EVERY_S[kernel]`` of operations and after the
    last.  Operation ``i`` ran between the samples ``brackets[i]`` and
    ``brackets[i] + 1`` of its kernel ``kernels[i]``.
    """
    names = sorted({op.kernel for ops in rounds for op in ops})
    samples = {name: [calibrate(name)] for name in names}
    since = dict.fromkeys(names, 0.0)
    latencies: list[float] = []
    kernels: list[str] = []
    brackets: list[int] = []
    failures: list[str] = []
    failed = 0
    tally: Counter = Counter()
    totals: Counter = Counter()
    # operation kind -> [traced seconds, traced count, untraced seconds, untraced count]
    by_kind: dict[str, list[float]] = {}
    for rnd in range(count):
        for index, op in enumerate(rounds[rnd % len(rounds)]):
            # a traced run traces every other operation, alternating
            # between rounds, so that each kind is traced half the time
            traced = trace and (worker + rnd + index) % 2 == 0
            tracer.enabled = traced
            tracer.op += 1
            t0 = time.perf_counter()
            try:
                out = tracer.call("bench.op", op.run, tracer, tag=op.kind)
                error = None
            except Exception as exc:  # counted as a failed operation
                out, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            kernels.append(op.kernel)
            brackets.append(len(samples[op.kernel]) - 1)
            sums = by_kind.setdefault(op.kind, [0.0, 0, 0.0, 0])
            sums[0 if traced else 2] += t1 - t0
            sums[1 if traced else 3] += 1
            if error is None:
                if inject_abstention and rnd > 0 and op.kind == "cross":
                    # the oracle abstains on every cross-check after the first round
                    out = (out[0], replace(out[1], feasible=None))
                seen: Counter = Counter()
                error = op.check(out, seen)
                totals.update(seen)
                if rnd == 0:
                    tally.update(seen)
            if error is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(error)
            for name in names:
                since[name] += t1 - t0
                if since[name] >= reference.CALIBRATE_EVERY_S[name]:
                    samples[name].append(calibrate(name))
                    since[name] = 0.0
    if latencies:
        for name in names:
            samples[name].append(calibrate(name))
    return {
        "latencies_s": latencies,
        "kernels": kernels,
        "brackets": brackets,
        "samples": samples,
        "failed": failed,
        "failures": failures,
        "tally": dict(tally),
        "totals": dict(totals),
        "by_kind": by_kind,
    }


def run(cfg: dict) -> dict:
    os.sched_setaffinity(0, {cfg["cpu"]})
    tracer = Tracer()
    tracer.enabled = bool(cfg["trace"])
    with tempfile.TemporaryDirectory(prefix=f"{cfg['workload']}-", dir=cfg["tmp_root"]) as tmp:
        workdir = Path(tmp)
        rounds, warm = _build(cfg, tracer, workdir)
        tracer.enabled = False
        for op in warm:
            op.run(tracer)
        # the inputs built above are the benchmark's, not the program's:
        # keep the collector from rescanning them during timed operations
        gc.collect()
        gc.freeze()
        ops = rounds[0]
        if cfg["inject_wrong_verdict"]:
            original = ops[0].check
            # flip the expected verdict of the first operation: a right
            # output now fails its check, a wrong one passes
            ops[0] = replace(
                ops[0],
                check=lambda out, tally: None if original(out, tally) else "injected wrong expected verdict",
            )

        setup_s = time.perf_counter() - cfg["spawn"]
        with reference.Calibrator() as calibrator:
            setup_kernel_s = statistics.median(
                calibrator(reference.SETUP_KERNEL) for _ in range(reference.SETUP_SAMPLES)
            )
            measured = measure(
                rounds, cfg["rounds"] if cfg["measure"] else 0, tracer, calibrator,
                trace=bool(cfg["trace"]), worker=cfg["worker"], inject_abstention=cfg["inject_abstention"],
            )
        tracer.enabled = bool(cfg["trace"])
        if cfg["trace"] and cfg["workload"] == "cli":
            import workloads

            for _ in range(3):
                workloads.cli_import_probe(tracer, workdir)

    who = resource.RUSAGE_CHILDREN if cfg["workload"] == "cli" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "setup_scaled_s": setup_s * reference.REFERENCE_S[reference.SETUP_KERNEL] / setup_kernel_s,
        "scaled_s": reference.scale(
            measured["latencies_s"], measured["kernels"], measured["brackets"], measured["samples"],
        ),
        "tail_scaled_s": reference.scale_to_slow_end(
            measured["latencies_s"], measured["kernels"], measured["samples"],
        ),
        "rounds": cfg["rounds"],
        **measured,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if cfg["trace"]:
        spans = tracer.spans
        result["spans"] = [
            s.as_list() + [own] for s, own in zip(spans, self_times(spans))
        ]
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
