"""qutritlocc benchmark: four closed-loop workloads, timed from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each run starts ``WORKERS`` fresh worker processes one after another (never
two at once), each pinned to one CPU.  Each sets up its workload from its own
seed and runs a fixed number of whole rounds, sized by ``--seconds``; the run
pools their samples.  ``SETUP_ONLY`` more processes then only set up.
``setup_s`` is the median over every process, ``peak_rss_mb`` over the
workers that measured.  End-to-end times are at reference speed
(``reference.py``).  With ``--trace 0`` the last
line of standard output is the end-to-end metrics; with ``--trace 1`` it is
the per-layer metrics, and every span is written to
``.perfbench_out/trace-<workload>-<seed>.json``.  The exit code is 0 only
when every output check passed.
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
from pathlib import Path

from metrics import (
    END_TO_END,
    audit_totals_error,
    counter_metrics,
    layer_metrics,
    per_layer_units,
    quantile,
    ratio,
    tail,
    trace_overhead,
)
from reference import REFERENCE_S

WORKLOADS = ("decide", "audit", "synthesize", "cli")
DEFAULT_SEED = 20151110
DEFAULT_SECONDS = 20
#: Workers per run, one after another.  Each is pinned to one CPU, round
#: robin, so that every run spreads its measuring time over the CPUs of a
#: two-CPU machine in the same proportions: on a shared machine the CPUs can
#: differ in speed by a third.
WORKERS = 2

#: Processes per run, after the workers, that set up as a worker does and
#: then end, so that ``setup_s`` is the median of three set-ups.
SETUP_ONLY = 1

#: BLAS and OpenMP threads per process, set before numpy is first imported.
#: One thread keeps a worker on one core of the machine's two and makes the
#: timings independent of what else runs on the other.
BLAS_THREADS = "1"

#: Whole rounds per worker at the default ``--seconds``.  On the reference
#: machine a run then measures about 20 s (``audit`` 14 s, whose eight rounds
#: put ``latency_tail_ms`` inside its eight ``symmetry_audit`` calls; ``cli``
#: 35 s, as one round is 15 processes).  The count scales with ``--seconds``
#: and never with how fast the rounds run, so that a faster or slower program
#: is measured on the same operations.
ROUNDS_PER_WORKER = {"decide": 8, "audit": 4, "synthesize": 72, "cli": 3}

#: A run is stopped as overrun after this margin for the workers' set-up plus
#: five times ``--seconds``: 160 s at the default, inside the 180 s a run at
#: that size must end within.
DEADLINE_MARGIN_S = 60
DEADLINE_PER_SECOND = 5

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    return env


def rounds_per_worker(workload: str, seconds: float) -> int:
    """Whole rounds each worker runs: fixed by the workload and ``--seconds``."""
    return max(1, round(ROUNDS_PER_WORKER[workload] * seconds / DEFAULT_SECONDS))


def deadline_s(seconds: float) -> float:
    """Wall time after which a run is stopped as overrun."""
    return DEADLINE_MARGIN_S + DEADLINE_PER_SECOND * seconds


def _run_worker(cfg: dict, env: dict[str, str], timeout: float) -> dict:
    cfg = dict(cfg, spawn=time.perf_counter())
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {cfg['worker']} overran the run's deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {cfg['worker']} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    inject_wrong_verdict: bool = False,
    inject_abstention: bool = False,
) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the summary lines."""
    OUT_DIR.mkdir(exist_ok=True)
    env = _worker_env()
    workers = 1 if tiny else WORKERS
    cpus = sorted(os.sched_getaffinity(0))
    rounds = rounds_per_worker(workload, seconds)
    deadline = time.monotonic() + deadline_s(seconds)
    results = []
    setups = []
    # set-up time is an end-to-end metric, reported untraced only
    for worker in range(workers + (0 if tiny or trace else SETUP_ONLY)):
        cfg = {
            "workload": workload,
            "seed": seed,
            "worker": worker,
            "cpu": cpus[worker % len(cpus)],
            "trace": int(trace),
            "tiny": tiny,
            "rounds": rounds,
            "measure": worker < workers,
            "tmp_root": str(OUT_DIR),
            "inject_wrong_verdict": inject_wrong_verdict and worker == 0,
            "inject_abstention": inject_abstention,
        }
        result = _run_worker(cfg, env, deadline - time.monotonic())
        setups.append(result)
        if cfg["measure"]:
            results.append(result)

    latencies = [x for r in results for x in r["scaled_s"]]
    tail_latencies = [x for r in results for x in r["tail_scaled_s"]]
    raw = [x for r in results for x in r["latencies_s"]]
    attempted = len(latencies)
    failed = sum(r["failed"] for r in results)
    tally: dict[str, float] = {}
    totals: dict[str, float] = {}
    for r in results:
        for key, value in r["tally"].items():
            tally[key] = tally.get(key, 0) + value
        for key, value in r["totals"].items():
            totals[key] = totals.get(key, 0) + value
    problems = [msg for r in results for msg in r["failures"]]
    total_error = audit_totals_error(totals)
    if total_error:
        problems.append(total_error)
    correct = failed == 0 and not problems

    tail_p, tail_s = tail(tail_latencies)
    speeds = []
    for kernel in sorted(results[0]["samples"]):
        seen = [x for r in results for x in r["samples"][kernel]]
        speeds.append(
            f"{kernel} {REFERENCE_S[kernel] / statistics.median(seen):.3f} of its reference "
            f"{REFERENCE_S[kernel] * 1e3:g} ms over {len(seen)} samples"
        )
    lines = [
        f"# workload {workload}: seed {seed}, {workers} workers x {rounds} rounds, "
        f"{attempted} operations in {sum(raw):.3g} s; {len(setups)} set-ups",
        f"# times are at reference speed; the machine ran the {', '.join(speeds)}",
        f"# unscaled: ops_per_s {ratio(attempted, sum(raw)):.6g} 1/s, latency_p50_ms "
        f"{quantile(raw, 0.5) * 1e3:.6g} ms, latency_tail_ms {tail(raw)[1] * 1e3:.6g} ms, "
        f"setup_s {statistics.median(r['setup_s'] for r in setups):.6g} s",
        f"# env: python {results[0]['env']['python']}, numpy {results[0]['env']['numpy']}, "
        f"{results[0]['env']['blas']}, nproc {os.cpu_count()}, BLAS threads {BLAS_THREADS}, "
        f"workers pinned to CPUs {[cpus[w % len(cpus)] for w in range(workers)]}",
        f"# fail_ratio {ratio(failed, attempted):.6g} ratio ({failed} of {attempted})",
        f"# latency_tail_ms is p{tail_p:.4g} over {attempted} samples",
    ]
    lines += [f"# check failed: {msg}" for msg in problems[:10]]

    if not trace:
        values = {
            "ops_per_s": ratio(attempted, sum(latencies)),
            "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "setup_s": statistics.median(r["setup_scaled_s"] for r in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        units = END_TO_END
    else:
        spans = [s for r in results for s in r["spans"]]
        values = layer_metrics([(s[0], s[2] - s[1], s[6], s[5]) for s in spans])
        values.update(counter_metrics(tally))
        values["bench.trace_overhead"] = trace_overhead([r["by_kind"] for r in results])
        units = per_layer_units()
        trace_file = OUT_DIR / f"trace-{workload}-{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload,
            "seed": seed,
            "fields": ["name", "start", "end", "parent", "op", "tag", "self_s"],
            "workers": [r["spans"] for r in results],
        }))
        lines.append(f"# {len(spans)} spans written to {trace_file.relative_to(ROOT)}")
    if workload == "decide":
        share = ratio(tally.get("sep_feasible", 0), tally.get("sep_calls", 0))
        lines.append(f"# decide feasible share {share:.4f} of {tally.get('sep_calls', 0)} sep_feasible calls")
    lines += [f"{name} {values[name]!r} {unit}" for name, unit in units.items()]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one worker and the smallest round of each workload (self-tests)")
    parser.add_argument("--inject-wrong-verdict", action="store_true",
                        help="flip one expected verdict, to show that checks fail the run (self-tests)")
    parser.add_argument("--inject-abstention", action="store_true",
                        help="make the oracle abstain after each worker's first round (self-tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "qutritlocc" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'qutritlocc'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, lines = run_workload(
                name, args.seed, args.seconds, bool(args.trace),
                tiny=args.tiny,
                inject_wrong_verdict=args.inject_wrong_verdict,
                inject_abstention=args.inject_abstention,
            )
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        if len(names) == 1:
            combined = result
            break
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
