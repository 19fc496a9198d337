#!/usr/bin/env python3
"""The horus benchmark: simulated federations, timed end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload reference --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

A workload is a set of config files in ``bench/configs``; the seed becomes
each config's ``master_seed``. One pass sets every simulation of the workload
up (config load, ``Simulation``, ``warm_up``) and runs its config's rounds
through ``run_round``. Passes repeat, whole, for about ``--seconds``, and
every round is checked (see ``checks.py``) outside the timed interval.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs pairs of an
untraced and a traced pass (see ``spans.py``) and reports the per-layer
metrics; the two passes must yield identical round records.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Records and spans go
to ``bench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: more were measured slower on small machines, and the
# setting must be made before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import dataclasses
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / "bench_out"


# workload -> its simulations' config files; each runs its config's rounds a pass
WORKLOADS = {
    "reference": ("reference.yaml",),
    "crowd": ("crowd.yaml",),
    "baselines": (
        "baselines-krum.yaml", "baselines-median.yaml", "baselines-trimmed_mean.yaml",
    ),
}


def import_horus():
    """Import horus from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "horus" / "__init__.py").is_file():
        sys.exit(f"bench: no horus package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import horus

    if Path(horus.__file__).resolve().parent != src / "horus":
        sys.exit(f"bench: imported horus from {horus.__file__}, not {src}")


KERNEL = calibrate.Kernel()


def scale(before: float, after: float) -> float:
    """Factor that takes an interval between two kernel runs to reference speed."""
    return calibrate.REFERENCE_S / (0.5 * (before + after))


@dataclasses.dataclass
class PassResult:
    setup_s: float = 0.0  # wall time
    setup_scaled_s: float = 0.0  # scaled by the calibration kernel (calibrate.py)
    round_s: list = dataclasses.field(default_factory=list)  # wall times
    round_scale: list = dataclasses.field(default_factory=list)  # each round's factor
    records: list = dataclasses.field(default_factory=list)
    final_accuracy: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    check_failures: list = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0  # the process's peak so far, read at the end of the pass


def run_pass(configs: tuple[str, ...], seed: int) -> PassResult:
    """Set up and run every simulation of the workload once.

    The calibration kernel runs right before and right after each set-up and
    each round, outside the timed interval; the interval's scale factor is
    ``REFERENCE_S`` over the mean of the two kernel times.

    A round fails when ``run_round`` raises or a check rejects its outputs.
    After a raise the simulation's state is unknown, so its remaining rounds
    count as attempted and failed.
    """
    from horus.config import load_config
    from horus.sim import Simulation

    import checks

    res = PassResult()
    calls: list = []
    with checks.capturing(calls):
        for name in configs:
            gc.collect()  # the previous simulation's garbage, outside the timing
            before = KERNEL()
            t0 = time.perf_counter()
            cfg = load_config(BENCH / "configs" / name, seed_override=seed)
            sim = Simulation(cfg)
            sim.warm_up()
            took = time.perf_counter() - t0
            res.setup_s += took
            res.setup_scaled_s += took * scale(before, KERNEL())
            if cfg.workers > 1:
                sys.exit("bench: spans assume one thread; configs must set workers <= 1")
            for done in range(cfg.rounds):
                calls.clear()
                res.attempted += 1
                before = KERNEL()
                t0 = time.perf_counter()
                try:
                    result = sim.run_round()
                except Exception:  # a round that raises is a failed operation
                    res.round_s.append(time.perf_counter() - t0)
                    res.round_scale.append(scale(before, KERNEL()))
                    traceback.print_exc(file=sys.stderr)
                    left = cfg.rounds - done - 1
                    res.attempted += left
                    res.failed += 1 + left
                    break
                res.round_s.append(time.perf_counter() - t0)
                res.round_scale.append(scale(before, KERNEL()))
                problems = checks.check_round(sim, result, calls)
                if problems:
                    res.failed += 1
                    res.check_failures.append(
                        {"config": name, "round": result.metrics.round,
                         "problems": problems[:5]}
                    )
                res.records.append(result.metrics.to_record())
                res.final_accuracy[name] = result.metrics.global_accuracy
            del sim
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return res


def run_record(args) -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # older numpy without mode="dicts"
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def repeat(step, seconds: float) -> list:
    """Call ``step`` at least once and until ``seconds`` have gone by.

    A further call starts only when it is expected to end less than half a
    call after the deadline, so a run lasts about ``seconds`` in all.
    """
    out = []
    start = time.perf_counter()
    while True:
        out.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(out) >= seconds:
            return out


def e2e(configs: tuple[str, ...], seed: int, seconds: float):
    """Passes for ``seconds``; tracing off.

    Every pass runs the same rounds on the same inputs. Each round's time is
    its median over the passes of its wall time scaled to reference speed
    (see ``calibrate.py``); ``round_ms`` and ``rounds_per_s`` are taken over
    those times, and ``setup_s`` is the median of the passes' scaled set-up.
    Returns the metrics, every pass, and the problems found: passes whose
    round records differ.
    """
    passes = repeat(lambda: run_pass(configs, seed), seconds)
    problems = []
    if any(p.records != passes[0].records for p in passes):
        problems.append("passes of one seed produced different round records")
    rounds = [
        statistics.median(samples)
        for samples in zip(*([t * f for t, f in zip(p.round_s, p.round_scale)]
                             for p in passes))
    ]
    metrics = {
        "setup_s": (statistics.median(p.setup_scaled_s for p in passes), "s"),
        "round_ms": (1e3 * statistics.median(rounds), "ms"),
        "rounds_per_s": (len(rounds) / sum(rounds), "rounds/s"),
        # after the first pass: later passes only repeat it, and the heap
        # they leave behind is the benchmark's, not the workload's
        "peak_rss_mb": (passes[0].peak_rss_mb, "MB"),
    }
    return metrics, passes, problems


def traced(configs: tuple[str, ...], seed: int, seconds: float, out_stem: str):
    """Pairs of a plain and a traced pass for ``seconds``.

    Returns the per-layer metrics of all traced passes, every pass, and the
    problems found: records that differ between the plain and the traced
    pass, or self times that do not add up to the round time.
    """
    from spans import Recorder

    recorder = Recorder()

    def pair():
        plain = run_pass(configs, seed)
        with recorder.installed():
            return plain, run_pass(configs, seed)

    pairs = repeat(pair, seconds)
    plain = [p for p, _ in pairs]
    traced_passes = [t for _, t in pairs]
    problems = []
    if any(p.records != t.records for p, t in pairs):
        problems.append("traced round records differ from the untraced ones")
    updates = sum(len(r["participants"]) for p in traced_passes for r in p.records)
    metrics, accounting = recorder.layer_metrics(
        simulations=len(traced_passes) * len(configs), updates=updates
    )
    problems += accounting
    untraced_ms = 1e3 * statistics.median(t for p in plain for t in p.round_s)
    traced_ms = 1e3 * statistics.median(t for p in traced_passes for t in p.round_s)
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    if recorder.missing:
        print(f"bench: untraced sites (not found): {recorder.missing}", file=sys.stderr)
    recorder.dump(OUT / f"{out_stem}-spans.jsonl")
    return metrics, plain + traced_passes, problems


def run_all(args) -> int:
    """Each workload in a process of its own, then one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_horus()
    record = run_record(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    configs = WORKLOADS[args.workload]
    if args.trace:
        metrics, passes, problems = traced(configs, args.seed, args.seconds, stem)
    else:
        metrics, passes, problems = e2e(configs, args.seed, args.seconds)

    check_failures = [f for p in passes for f in p.check_failures]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not check_failures and not problems
    record.update(
        passes=len(passes),
        pass_setup_s=[p.setup_s for p in passes],
        pass_setup_scaled_s=[p.setup_scaled_s for p in passes],
        pass_round_ms=[1e3 * statistics.median(p.round_s) for p in passes],
        pass_kernel_ms=[1e3 * calibrate.REFERENCE_S / statistics.median(p.round_scale)
                        for p in passes],
        pass_peak_rss_mb=[p.peak_rss_mb for p in passes],
        rounds_per_pass=passes[0].attempted,
        final_global_accuracy=passes[-1].final_accuracy,
        check_failures=check_failures[:20],
        problems=problems,
    )
    print(json.dumps({"run_record": record}))
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:{width}s} {value:14.4f} {unit}")
    print(f"{args.workload:10s} rounds attempted {attempted}, failed {failed}, "
          f"checks {'passed' if correct else 'FAILED'}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, **result,
                   "pass_round_s": [p.round_s for p in passes],
                   "pass_round_scale": [p.round_scale for p in passes]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
