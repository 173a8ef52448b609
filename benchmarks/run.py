"""Seeded closed-loop benchmark of billiardflow's find, sweep and check paths.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload find_small --seed 1 --seconds 20 --trace 0

One caller issues one public-API call at a time and starts the next only when
the previous one returns.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer split from an in-memory
span trace, plus microbenchmarks of single layers.  Call timings are rescaled to
the reference machine speed (see ``speed.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A full record (environment, wall times, tail percentile, missing layers) goes
to ``.bench_out/``, and traced runs write their spans there too.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: fresh-interpreter set-ups timed per run; setup_s is their median
SETUP_PROBES = 5
#: the tail is the call time with this many calls slower than it
TAIL_BEYOND = 10


def load_program():
    """Import billiardflow from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "billiardflow" / "__init__.py").is_file():
        raise ImportError(f"no billiardflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import billiardflow
    if Path(billiardflow.__file__).resolve().parent != SRC / "billiardflow":
        raise ImportError(f"imported billiardflow from {billiardflow.__file__}")
    return billiardflow


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall times of fresh interpreters that import the package and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the call time with TAIL_BEYOND calls slower
    than it; the median when there are too few calls for that to exceed it."""
    ordered = sorted(times)
    rank = len(ordered) - 1 - TAIL_BEYOND
    if rank <= (len(ordered) - 1) / 2:
        return 50.0, statistics.median(ordered)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


class Tally:
    """Call times and gate outcomes of a sequence of operations."""

    def __init__(self):
        self.calls: list[tuple[float, float]] = []     # (start, wall time)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, op, tracer=None) -> tuple[float, float]:
        """Time one call (traced when a tracer is given), then gate its results."""
        if tracer is not None:
            tracer.start()
        start = time.perf_counter()
        try:
            out = op.call()
            error = None
        except Exception as exc:   # noqa: BLE001 - a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.stop()
        self.calls.append((start, elapsed))
        per_result = [[error]] * op.results if error else op.gate(out)
        self.attempted += len(per_result)
        for problems in per_result:
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{op.label}: {'; '.join(problems)}")
        return start, elapsed


def measure(bf, workload: str, seed: int, seconds: float, probe: speed.SpeedProbe):
    """Untraced closed loop for ``seconds``: the tally, metrics and run info."""
    ops = workloads.make_ops(bf, workload, seed)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(itertools.cycle(ops), 1):
        probe.sample()
        tally.run(op)
        if i % workloads.PASS[workload] == 0 and time.perf_counter() >= deadline:
            break
    probe.sample(force=True)
    times = [probe.rescale(start, wall) for start, wall in tally.calls]
    pct, tail_value = tail(times)
    metrics = {
        "results_per_s": ((tally.attempted - tally.failed) / sum(times), "1/s"),
        "call_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    walls = [wall for _, wall in tally.calls]
    # reported but not gated: on check_scan it flipped between two levels
    # from run to run, a spread wider than any allowed bound (README.md)
    info = {"calls": len(times), "call_tail_s": tail_value, "tail_percentile": pct,
            "failed_frac": tally.failed / tally.attempted,
            "wall_results_per_s": (tally.attempted - tally.failed) / sum(walls),
            "wall_call_p50_s": statistics.median(walls),
            "wall_call_tail_s": tail(walls)[1]}
    return tally, metrics, info


def _median_time(fn, reps: int, inner: int = 1) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return statistics.median(samples)


def microbenchmarks(bf) -> dict:
    """Single-layer wall times on the flagship table, with no tracer active."""
    descriptor = workloads.limacon(4, 0.05)
    table = bf.make_boundary(descriptor)
    cs = bf.reparametrize_constant_speed(table)
    lifts = {p: bf.repeat_lift(bf.symmetric_birkhoff(4, 1), p // 4) for p in (12, 48, 192)}
    out = {}
    for p, lift in lifts.items():
        out[f"lagrangian.gradient_field.p{p}_us"] = (
            1e6 * _median_time(lambda: bf.gradient_field(cs, lift), 5, 100), "us")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out["spectral.hessian.p12_ms"] = (
            1e3 * _median_time(lambda: bf.hessian(cs, lifts[12]), 7, 3), "ms")
        out["spectral.hessian.p192_ms"] = (
            1e3 * _median_time(lambda: bf.hessian(cs, lifts[192]), 5), "ms")
    out["geometry.reparametrize_constant_speed.ms"] = (
        1e3 * _median_time(lambda: bf.reparametrize_constant_speed(table), 9), "ms")
    out["geometry.make_boundary.ms"] = (
        1e3 * _median_time(lambda: bf.make_boundary(descriptor), 9, 2), "ms")
    out["geometry.convexity_margin.ms"] = (
        1e3 * _median_time(lambda: bf.convexity_margin(table), 9, 4), "ms")
    return out


def layer_metrics(summary: dict, ops: int, factor: float) -> dict:
    """Per-operation self times (rescaled by ``factor``) and call counts,
    and the flow ratios."""
    self_s, calls = summary["self_s"], summary["calls"]
    out = {}
    for layer in tracing.SITES:
        out[f"{layer}.self_s"] = (factor * self_s[layer] / ops, "s")
        out[f"{layer}.calls"] = (calls[layer] / ops, "count")
    steps = summary["steps_accepted"]
    out["flow.steps_accepted"] = (steps / ops, "count")
    out["flow.rhs_per_step"] = (summary["kernel_in_flow"] / steps if steps else 0.0, "count")
    out["flow.step_us"] = (1e6 * factor * summary["span_s"][tracing.STEPS_LAYER] / steps
                           if steps else 0.0, "us")
    return out


def measure_traced(bf, workload: str, seed: int, seconds: float, probe: speed.SpeedProbe):
    """Microbenchmarks, then each operation untraced and traced in turn.

    The pairs alternate which side runs first; the traced side gives the
    per-layer split and the ratio of the two sides the tracing overhead.
    Layer times are rescaled by the run's median calibration sample.
    """
    deadline = time.perf_counter() + seconds
    probe.sample(force=True)
    micro = microbenchmarks(bf)
    ops = workloads.make_ops(bf, workload, seed)
    tally = Tally()
    sides = {False: [], True: []}
    with tracing.Tracer() as tracer:
        for i, op in enumerate(itertools.cycle(ops)):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                probe.sample()
                sides[with_trace].append(tally.run(op, tracer if with_trace else None))
            if (i + 1) % workloads.PASS[workload] == 0 and time.perf_counter() >= deadline:
                break
        pairs = i + 1
    probe.sample(force=True)
    plain, traced = (sum(probe.rescale(*call) for call in sides[key]) for key in (False, True))
    factor = probe.median_factor()
    metrics = {name: (factor * value, unit) for name, (value, unit) in micro.items()}
    metrics.update(layer_metrics(tracing.summarize(tracer.spans), pairs, factor))
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "1")
    metrics["gate.failed_frac"] = (tally.failed / tally.attempted, "1")
    info = {"traced_calls": pairs, "missing_sites": tracer.missing,
            "missing_layers": tracer.missing_layers(), "spans": len(tracer.spans),
            "speed_factor": factor}
    return tally, metrics, info, tracer.spans


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` files, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(), "seed": seed}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import the package, build the inputs and exit (times set-up)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bf = load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.make_ops(bf, args.workload, args.seed)
        return 0

    setups = time_setups(args.workload, args.seed)
    probe = speed.SpeedProbe()
    if args.trace:
        tally, metrics, info, spans = measure_traced(bf, args.workload, args.seed,
                                                     args.seconds, probe)
    else:
        tally, metrics, info = measure(bf, args.workload, args.seed, args.seconds, probe)
        metrics["setup_s"] = (statistics.median(setups), "s")
        spans = None
    info.update(setup_wall_s=setups, calibration_s=probe.durations, problems=tally.problems)

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed), "info": info,
              "correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": tracing.Span._fields, "spans": [list(s) for s in spans]}) + "\n")

    print("env " + json.dumps(record["env"]))
    print("info " + json.dumps({k: v for k, v in info.items()
                                if k not in ("problems", "calibration_s")}))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
