"""Benchmark of chaincover: one run of one workload, measured from outside.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): sweep, witness, instances. The run imports
chaincover from this checkout's src/ with the interpreted kernels
(CHAINCOVER_NO_NUMBA=1), so parent and change each measure their own code.

Set-up is timed in fresh interpreters from spawn until `import chaincover`
and the workload's lazy tables are done, SETUP_SAMPLES times, and reported
as the median. A measuring process then starts passes of the workload
until --seconds have gone by and reports medians over passes. Every time is calibrated to
nominal host speed (calibrate.py); the summary line gives the raw medians.
Every output is checked; a mismatch or an exception is one failed
operation, and any failure makes the exit code 1.

With --trace 1 the run reports per-layer metrics from one traced pass
instead (spans.py), plus the tracing overhead against one untraced pass.

Output: an `env` line, a `summary` line, and as the last line one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sweep", "witness", "instances")

#: fresh interpreters timed for set-up
SETUP_SAMPLES = 9

#: a run must end within this many seconds, whatever the workload does
TIME_LIMIT = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["CHAINCOVER_NO_NUMBA"] = "1"
    return env


def _spawn(args: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    """Run a worker as a new process group; kill the whole group on timeout."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise RuntimeError(f"worker ran past the {TIME_LIMIT:.0f} s limit") from None
    return started, subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def setup_samples(workload: str, left) -> tuple[list[float], list[float]]:
    """Calibrated and raw set-up times of SETUP_SAMPLES fresh interpreters."""
    clock = Clock()
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        started, proc = _spawn(["--setup-only", "--workload", workload], left())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        raw.append(float(_last_line(proc.stdout)) - started)
        scaled.append(raw[-1] * clock.factor())
    return scaled, raw


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n calls beyond it.

    99 for the 2200 calls of an instances pass; 68 for the 32 calls of a
    sweep pass. Never below the median.
    """
    return max(50, int(100 * (1 - 10 / n)))


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: dict, setup_s: list[float]) -> dict:
    """End-to-end metrics: medians over the passes of one run.

    Every pass makes the same calls in the same order, so each call's
    latency is taken as its median over the passes, and the percentiles
    are over those per-call medians.
    """
    passes = result["passes"]

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    calls = [statistics.median(c) for c in zip(*(p["call_s"] for p in passes))]
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (med(lambda p: p["wall_s"]), "s"),
        "checks_per_s": (med(lambda p: p["checks"] / p["wall_s"]), "1/s"),
        "calls_per_s": (med(lambda p: len(p["call_s"]) / p["wall_s"]), "1/s"),
        "call_p50_ms": (1e3 * statistics.median(calls), "ms"),
        "call_tail_ms": (1e3 * percentile(calls, tail_percentile(len(calls))), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def summarize(result: dict, setup_s: list[float], trace: bool) -> tuple[dict, int]:
    """The result line, and the exit code: 1 when any operation failed."""
    attempted = sum(p["attempted"] for p in result["passes"])
    failed = sum(p["failed"] for p in result["passes"])
    metrics = result["layers"] if trace else end_to_end(result, setup_s)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return line, 0 if failed == 0 else 1


def source_digest() -> str:
    """sha256 over the package sources, naming the code that was measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chaincover").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit_hash() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; tiny is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "chaincover" / "__init__.py").is_file():
        print(f"error: no chaincover package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def left() -> float:
        return TIME_LIMIT - (time.perf_counter() - started)

    try:
        setup_s, raw_setup_s = ([], []) if args.trace else setup_samples(args.workload, left)
        _, proc = _spawn(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size],
            left(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        result = json.loads(_last_line(proc.stdout))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = {
        **result["env"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_hash(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
    }
    line, code = summarize(result, setup_s, bool(args.trace))
    problems = [msg for p in result["passes"] for msg in p["problems"]]
    summary = {
        "fail_ratio": line["failed"] / line["attempted"] if line["attempted"] else 0.0,
        "passes": len(result["passes"]),
        "calls_per_pass": [len(p["call_s"]) for p in result["passes"]],
        "tail_percentile": tail_percentile(len(result["passes"][0]["call_s"])),
        "wall_s": [p["wall_s"] for p in result["passes"]],
        "raw_wall_s": [p["raw_wall_s"] for p in result["passes"]],
        "setup_samples": len(setup_s),
        "raw_setup_s": raw_setup_s,
        "problems": problems[:20],
    }
    print("env " + json.dumps(env))
    print("summary " + json.dumps(summary))
    print(json.dumps(line))
    for msg in problems[:20]:
        print(f"failed: {msg}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
