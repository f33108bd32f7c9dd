"""The interlock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of workloads.py as a closed loop: one caller, and each
pass starts when the previous pass and its output checks have ended.
Passes repeat while the next one is expected to end within --seconds, and
there are at least two of them.  Every output of every pass is checked; an
operation that fails counts in `failed`.

With --trace 0 the metrics are `wall_s` (median pass), `setup_s` and
`peak_rss_mb`.  `setup_s` is the median over fresh interpreters that import
interlock and warm the workload up; two of them run before each pass, so
that they sample the same stretch of time as the passes, and at least six
in all.  Both times are scaled to a host of fixed speed: each pass and each
set-up, less the gauge's own time, is divided by the slowdown of the host
gauged while it ran (see gauge.py), and the times as measured are printed
beside them.  `peak_rss_mb` is this process's peak resident memory when
the first pass's calls have returned, before its outputs are read back and
checked, so the checker's own memory does not count.  With --trace 1 every
other pass runs with spans around each module's public functions, and the
metrics are the per-layer ones of tracing.py plus `trace.overhead_s`, the
traced minus the untraced median pass, both as measured.  The spans are written to
.perfbench_out/spans_<workload>_seed<N>.csv.  Every metric's unit is the
one BENCHMARK.json declares.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit 1 when an operation failed, 2 when the interlock sources or
the workload are missing.  --record writes the digests of the run's first
pass into reference.json instead of checking against it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
PROBES_PER_PASS = 2
MIN_PROBES = 6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Pass:
    wall: float
    slowdown: float | None
    problems: dict
    digests: dict
    spans: list | None

    @property
    def scaled(self) -> float:
        return self.wall / self.slowdown


def metric_units() -> dict[str, str]:
    """Every metric's unit, as BENCHMARK.json declares it."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def process_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no thread count in /proc/self/status")


def machine_facts() -> dict:
    import numpy
    import scipy

    import interlock

    try:
        import numba  # noqa: F401
        numba = True
    except ImportError:
        numba = False
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "numba_imports": numba,
        "interlock_backend": interlock.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads": process_threads(),
    }


def time_setup(workload: str, parent: Path) -> tuple[float, float]:
    """One set-up in a fresh interpreter: its time, less the gauge's own,
    and the host's slowdown while it ran."""
    workdir = tempfile.mkdtemp(dir=parent)
    t0 = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, workdir],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - t0
    shutil.rmtree(workdir)
    gauged = json.loads(probe.stdout.splitlines()[-1])
    return elapsed - gauged["spent"], gauged["slowdown"]


def run_passes(wl, workload: str, seconds: float, reference: dict, traced: bool,
               workdir: Path):
    """Checked passes until the next one would end after `seconds`; in a
    traced run the odd passes are untraced and the even ones traced.  An
    untraced run also times PROBES_PER_PASS set-ups before each pass, and
    enough after the last to make MIN_PROBES; their time does not count
    against `seconds`.

    Returns the passes, the set-up times and the peak resident memory in
    MB when the first pass's calls returned.  Each pass writes into a fresh
    directory under `workdir`, and the caller removes them all after the
    last pass, so that deleting one pass's files does not load the disk
    while the next pass writes its own."""
    from gauge import Sampler
    from tracing import Tracer

    passes, cycles, setup = [], [], []
    peak_rss_mb = None
    while True:
        if not traced:
            setup += [time_setup(workload, workdir) for _ in range(PROBES_PER_PASS)]
        tracer = Tracer() if traced and len(passes) % 2 else None
        sampler = None if traced else Sampler()
        out = Path(tempfile.mkdtemp(dir=workdir))
        began = time.perf_counter()
        with tracer or contextlib.nullcontext(), sampler or contextlib.nullcontext():
            t0 = time.perf_counter()
            calls = wl.run(out)
            wall = time.perf_counter() - t0
        if sampler:
            wall -= sampler.spent
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems, digests = wl.check(calls, out, reference)
        cycles.append(time.perf_counter() - began)
        passes.append(Pass(wall, sampler.slowdown() if sampler else None,
                           problems, digests, tracer.spans if tracer else None))
        if len(passes) >= 2 and sum(cycles) + statistics.median(cycles) > seconds:
            break
    while not traced and len(setup) < MIN_PROBES:
        setup.append(time_setup(workload, workdir))
    return passes, setup, peak_rss_mb


def layer_results(passes: list[Pass], workload: str, seed: int, units: dict) -> dict:
    import tracing

    traced = [p for p in passes if p.spans is not None]
    untraced = [p.wall for p in passes if p.spans is None]
    per_pass = [tracing.layer_metrics(p.spans) for p in traced]
    for name in per_pass[0]:
        if units[name] == "count" and len({m[name] for m in per_pass}) > 1:
            print(f"warning: {name} differs between traced passes", file=sys.stderr)
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced_wall = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)
    spans_path = WORK / f"spans_{workload}_seed{seed}.csv"
    tracing.write_spans([p.spans for p in traced], spans_path)
    print(
        f"trace.overhead_s {metrics['trace.overhead_s']:.4f} s (median traced pass "
        f"{traced_wall:.4f} s over {len(traced)}, untraced "
        f"{statistics.median(untraced):.4f} s over {len(untraced)})"
    )
    print(f"spans of {len(traced)} traced passes in {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this run's output digests into reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "interlock" / "__init__.py").is_file():
        print(f"error: no interlock sources in {SRC}", file=sys.stderr)
        return 2
    # One process generates the load; BLAS adds no threads of its own.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import workloads

    units = metric_units()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    reference = {} if args.record else json.loads(REFERENCE.read_text())
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl = workloads.make(args.workload)
        wl.prepare(args.seed, tmp)
        workloads.warm_up(args.workload, Path(tempfile.mkdtemp(dir=tmp)))
        passes, setup, peak_rss_mb = run_passes(
            wl, args.workload, args.seconds, reference, bool(args.trace), tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = [found for p in passes for found in p.problems.values()]
    attempted, failed = len(results), sum(1 for found in results if found)
    for number, p in enumerate(passes, start=1):
        for op, found in p.problems.items():
            for problem in found:
                print(f"pass {number} {op}: {problem}", file=sys.stderr)

    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed")
    print(f"failed_frac {failed / attempted} ({failed}/{attempted} operations)")
    if args.trace:
        metrics = layer_results(passes, args.workload, args.seed, units)
    else:
        metrics = {
            "wall_s": statistics.median(p.scaled for p in passes),
            "setup_s": statistics.median(t / slowdown for t, slowdown in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"wall_s {metrics['wall_s']:.4f} s (median of {len(passes)} passes; as measured "
              f"{', '.join(f'{p.wall:.4f}' for p in passes)} s, host slowdown "
              f"{', '.join(f'{p.slowdown:.4f}' for p in passes)})")
        print(f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup)} fresh interpreters; "
              f"as measured {statistics.median(t for t, _ in setup):.4f} s)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (after the first pass's calls)")

    if args.record:
        if failed:
            print("error: not recording the digests of a failed run", file=sys.stderr)
            return 1
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        stored.setdefault(wl.reference_key, {}).update(passes[0].digests)
        REFERENCE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(passes[0].digests)} digests in {REFERENCE.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
