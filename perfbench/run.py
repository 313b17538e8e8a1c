#!/usr/bin/env python3
"""Benchmark of the isoperim library on four seeded, closed-loop workloads.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

One process, one caller: each operation is issued when the previous one has
returned. Workloads are defined in ``workloads.py``; the names, units and
bounds of the metrics live in ``BENCHMARK.json`` at the repository root.

``--trace 0`` runs whole rounds of operations until the next round would end
after ``--seconds``, and reports the end-to-end metrics. ``--trace 1`` runs a
fixed number of rounds twice on identical inputs, first untraced and then
with every module boundary wrapped (``tracing.py``), and reports per-layer
counts and self times plus the tracing overhead; its counters repeat exactly
for a given seed. Every operation's output is checked outside the timed
region; an operation that raises or fails its check is counted as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread: TrigSeries.__call__ is a matrix-vector product and
# numpy links a threaded OpenBLAS. The library runs with its own defaults, so
# no thread count is passed to it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ISOPERIM_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# extra set-ups in child processes, besides our own: one before the timed
# loop and two after it, so the median spans the run's drift in machine speed
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 1, 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="stop after this many operations (for quick tests)")
    p.add_argument("--setup-probe", action="store_true",
                   help="only time one set-up and print it (used internally)")
    return p.parse_args(argv)


def load_library():
    """Import isoperim from this checkout's src/, never from elsewhere."""
    if not (SRC / "isoperim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no isoperim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import isoperim
    if Path(isoperim.__file__).resolve().parent != (SRC / "isoperim").resolve():
        raise SystemExit(f"perfbench: imported isoperim from {isoperim.__file__}")
    return isoperim


def set_up(name: str, seed: int, tmp_dir: Path):
    """Import the library, generate the first round's inputs and build its
    domains. Returns (seconds taken, workloads module, workload, draws,
    context, first round)."""
    t0 = perf_counter()
    load_library()
    import workloads as wl
    if name not in wl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[name]
    tmp_dir.mkdir(parents=True, exist_ok=True)
    ctx = wl.Context(tmp_dir=str(tmp_dir))
    draws = wl.Draws(name, seed, workload.dims)
    first = workload.make_round(draws, 0, ctx)
    return perf_counter() - t0, wl, workload, draws, ctx, first


def probe_setup_times(args, count: int) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_op(wl, op, tracer=None):
    """Time one operation, then check it. Returns (seconds, error or None)."""
    error = None
    t0 = perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
        result = op.call()
    except Exception as exc:  # noqa: BLE001 - every failure is counted by type
        error = exc
    finally:
        if tracer is not None:
            tracer.active = False
    dt = perf_counter() - t0
    if error is None:
        try:
            op.check(result)
        except wl.CheckFailed as exc:
            error = exc
    if tracer is not None and op.output_path and os.path.exists(op.output_path):
        tracer.bytes_out += os.path.getsize(op.output_path)
    return dt, error


class Tally:
    def __init__(self):
        self.times = []
        self.errors = Counter()
        self.first_errors = {}

    def add(self, op, dt, error):
        self.times.append(dt)
        if error is not None:
            kind = type(error).__name__
            self.errors[kind] += 1
            self.first_errors.setdefault(kind, f"{op.label}: {error}")

    def merge(self, other: "Tally"):
        self.times += other.times
        self.errors += other.errors
        for kind, message in other.first_errors.items():
            self.first_errors.setdefault(kind, message)

    @property
    def attempted(self):
        return len(self.times)

    @property
    def failed(self):
        return sum(self.errors.values())


def timed_run(args, wl, workload, draws, ctx, first) -> Tally:
    tally = Tally()
    start = perf_counter()
    ops, r = first, 0
    while True:
        for op in ops:
            if args.ops is not None and tally.attempted >= args.ops:
                return tally
            tally.add(op, *run_op(wl, op))
        r += 1
        elapsed = perf_counter() - start
        # whole rounds only, so every run sees the same mix of inputs
        if elapsed * (r + 1) / r > args.seconds:
            return tally
        ops = workload.make_round(draws, r, ctx)


def traced_run(args, wl, workload, draws, ctx, first):
    """Returns (tally of both passes, per-layer values, report lines)."""
    import tracing
    rounds = [first] + [workload.make_round(draws, r, ctx)
                        for r in range(1, workload.trace_rounds)]
    plain_ops = [op for ops in rounds for op in ops][:args.ops]
    # fresh inputs for the traced pass, so no cached curve data carries over
    fresh = wl.Draws(args.workload, args.seed, workload.dims)
    traced_ops = [op for r in range(workload.trace_rounds)
                  for op in workload.make_round(fresh, r, ctx)][:args.ops]

    # untraced and traced copies alternate, so drift and warm-up hit both
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    for op_plain, op_traced in zip(plain_ops, traced_ops):
        plain.add(op_plain, *run_op(wl, op_plain))
        tracer.install()
        try:
            traced.add(op_traced, *run_op(wl, op_traced, tracer))
        finally:
            tracer.uninstall()

    values = tracer.metrics()
    values["trace.overhead"] = sum(traced.times) / sum(plain.times) - 1.0
    probes = wl.small_area_probes(draws) if workload.name == "oracle" else []
    probe_errors = Counter()
    for _, curve, area in probes:
        try:
            wl.profile.general_profile_oracle(curve, area)
        except Exception as exc:  # noqa: BLE001 - the known refusal, by type
            probe_errors[type(exc).__name__] += 1
    values["profile.small_area_failures"] = sum(probe_errors.values())
    values.update(tracing.line_counts(SRC))

    lines = [f"traced run: {traced.attempted} operations, each also run untraced;"
             f" untraced {sum(plain.times):.4f} s, traced {sum(traced.times):.4f} s"]
    if probes:
        lines.append(f"small-area probes: {len(probes)}, failed "
                     f"{json.dumps(dict(probe_errors), sort_keys=True)}")
    if tracer.absent:
        lines.append(f"absent boundary functions: {', '.join(tracer.absent)}")
    for name, by_type in tracer.error_breakdown().items():
        lines.append(f"{name} by type: {json.dumps(by_type, sort_keys=True)}")
    plain.merge(traced)
    return plain, values, lines


def timed_values(args, setup_s, wl, workload, draws, ctx, first):
    """Returns (tally, end-to-end values, report lines)."""
    setups = [setup_s] + probe_setup_times(args, SETUP_PROBES_BEFORE)
    tally = timed_run(args, wl, workload, draws, ctx, first)
    setups += probe_setup_times(args, SETUP_PROBES_AFTER)
    values = {
        "ops_per_s": (tally.attempted - tally.failed) / sum(tally.times),
        "op_p50_s": statistics.median(tally.times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [f"op_p50_s samples = {tally.attempted}",
             f"setup_s samples = {[round(t, 4) for t in setups]}"]
    return tally, values, lines


def blas_threads() -> str:
    """Thread count reported by each loaded OpenBLAS, read via ctypes."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return "unknown"
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append(f"{Path(path).name}={fn()}")
                break
    return ",".join(found) or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def declared_metrics(key: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main(argv=None) -> int:
    args = parse_args(argv)
    tmp_dir = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        setup_s, wl, workload, draws, ctx, first = set_up(args.workload, args.seed,
                                                          tmp_dir)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        return report(args, setup_s, wl, workload, draws, ctx, first)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_dir.parent.rmdir()
        except OSError:
            pass


def report(args, setup_s, wl, workload, draws, ctx, first) -> int:
    print(f"workload {workload.name}: operation = {workload.unit}; seed {args.seed}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        tally, values, lines = traced_run(args, wl, workload, draws, ctx, first)
        declared = declared_metrics("per_layer")
    else:
        tally, values, lines = timed_values(args, setup_s, wl, workload, draws,
                                            ctx, first)
        declared = declared_metrics("end_to_end")
    lines.append(f"fail_ratio = {tally.failed / tally.attempted:.6g} 1 "
                 f"({tally.failed} of {tally.attempted} operations)")
    lines += [f"failed {kind} x{tally.errors[kind]}, first: {message}"
              for kind, message in tally.first_errors.items()]
    metrics = {}
    for name, unit in declared.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"{name} = {values[name]:.6g} {unit}")
        else:
            lines.append(f"{name}: absent (its boundary functions no longer exist)")
    print("\n".join(lines))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
