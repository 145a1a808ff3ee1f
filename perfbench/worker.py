"""One measured process of a benchmark run; started by run.py.

The first statements import chaincover from this checkout's src/ and fill
the lazy tables the workload reads. With --setup-only the process prints
the moment that is done and stops, so the parent can time set-up from its
own clock. Otherwise it runs passes of the workload and prints one JSON
line with their results.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 30 --trace 0
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import chaincover  # noqa: E402  (this import is the measured set-up)

#: largest poset size whose strict-order table a workload reads
TABLE_SIZE = {"sweep": 4, "witness": 4, "instances": -1}


def fill_tables(workload: str):
    """Fill the lazy tables the workload reads, as its first pass would."""
    for n in range(TABLE_SIZE[workload] + 1):
        chaincover.poset._strict_order_masks(n)


if __name__ == "__main__" and "--setup-only" in sys.argv:
    fill_tables(sys.argv[sys.argv.index("--workload") + 1])
    print(time.perf_counter())
    sys.exit(0)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from calibrate import Clock  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest pool child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _pass_record(p: workloads.PassResult) -> dict:
    return {
        "wall_s": p.wall_s, "raw_wall_s": p.raw_wall_s, "call_s": p.call_s,
        "attempted": p.attempted, "failed": p.failed, "checks": p.checks,
        "problems": p.problems,
    }


def map_enum_seconds(profile: spans.Profile) -> tuple[float, list[str]]:
    """Time count_monotone_maps over the pairs sweep_pair visited.

    Each distinct pair is enumerated once and its time is weighted by how
    often the sweeps visited it. The count must equal the maps sweep_pair
    checked there.
    """
    total = 0.0
    problems = []
    for (ns, s_up, nr, r_up, allow_top, maps), visits in spans.sweep_pair_calls(profile):
        s_arr = np.array(s_up, dtype=np.int64)
        r_arr = np.array(r_up, dtype=np.int64)
        t0 = time.perf_counter()
        count = chaincover._kernels.count_monotone_maps(ns, s_arr, nr, r_arr, allow_top)
        total += (time.perf_counter() - t0) * visits
        if count != maps:
            problems.append(f"count_monotone_maps gives {count} maps where sweep_pair checked {maps}")
    return total, problems


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str = "full",
        ref: dict | None = None, out_dir: Path | None = None) -> dict:
    """Run passes of one workload and return their results.

    Untraced, at least two passes run, and another starts while half a
    pass of mean length still fits in `seconds`, so a run ends within half
    a pass of `seconds` unless two passes take longer. Traced, one untraced
    pass is followed by one traced pass, and the per-layer metrics come
    from the traced one.
    """
    size = workloads.SIZES[size_name]
    ref = workloads.load_reference() if ref is None else ref
    inputs = workloads.prepare(workload, seed, size)
    with Clock(workloads.CPUS[workload]) as clock:
        if trace:
            return run_traced(workload, seed, size, ref, inputs, clock, out_dir)
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(_pass_record(workloads.run_pass(workload, size, ref, inputs, clock)))
            elapsed = time.perf_counter() - start
            if len(passes) >= 2 and elapsed + elapsed / len(passes) / 2 > seconds:
                break
    return {"passes": passes, "peak_rss_mb": peak_rss_mb()}


def run_traced(workload, seed, size, ref, inputs, clock, out_dir) -> dict:
    out_dir = Path(out_dir if out_dir is not None else ROOT / ".perfbench")
    out_dir.mkdir(parents=True, exist_ok=True)
    span_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=out_dir))
    try:
        plain = workloads.run_pass(workload, size, ref, inputs, clock)
        # refill the tables under the tracer, so set-up work shows too
        chaincover.poset._strict_order_masks.cache_clear()
        tracer = spans.Tracer(span_dir)
        tracer.install()
        try:
            fill_tables(workload)
            traced = workloads.run_pass(workload, size, ref, inputs, clock)
        finally:
            tracer.uninstall()
        profile = tracer.collect()
    finally:
        shutil.rmtree(span_dir, ignore_errors=True)
    enum_s, enum_problems = map_enum_seconds(profile)
    traced.failed += len(enum_problems)
    traced.problems.extend(enum_problems)
    (out_dir / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps(profile.summary(), indent=2) + "\n"
    )
    return {
        "passes": [_pass_record(plain), _pass_record(traced)],
        "layers": spans.layer_metrics(profile, enum_s, traced.wall_s - plain.wall_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    fill_tables(args.workload)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba_enabled": bool(chaincover._kernels.NUMBA_ENABLED),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
