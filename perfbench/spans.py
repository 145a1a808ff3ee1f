"""Span tracing for the benchmark, installed from outside the package.

`Tracer.install` replaces chosen chaincover functions with wrappers that
record one span per call (name, start, end, parent span) and a call count.
Every module binding of a function is replaced, so `from .x import f`
copies are traced too, and calls between kernel functions go through the
wrapper because the interpreted kernels look each other up as module
globals. Generator functions get one span per resume, so their time is the
time spent inside the generator. `uninstall` restores every binding.

Spans stay in memory as flat arrays. Fork-pool children start with empty
arrays and write them to one file per pid after each pool task; the parent
merges those files with its own spans when the run ends. Pool workers are
terminated rather than joined, so a file written at exit would be lost.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

#: (module, attribute, span name). "Poset.from_leq_matrix" is a classmethod.
TRACED = (
    ("_kernels", "sweep_pair", "kernels.sweep_pair"),
    ("_kernels", "eval_theorem", "kernels.eval_theorem"),
    ("_kernels", "search_pair", "kernels.search_pair"),
    ("_kernels", "property_bits", "kernels.property_bits"),
    ("_kernels", "_goal_met", "kernels.goal_met"),
    ("theorems", "exhaustive_verify", "theorems.exhaustive_verify"),
    ("theorems", "sweep_pairs", "theorems.sweep_pairs"),
    ("theorems", "instance_from_raw", "theorems.instance_from_raw"),
    ("theorems", "verify", "theorems.verify"),
    ("theorems", "_sweep_chunk", "theorems.pool_task"),
    ("search", "search_witness", "search.search_witness"),
    ("search", "shrink", "search.shrink"),
    ("search", "_shrink_candidates", "search.shrink_candidates"),
    ("search", "goal_holds", "search.goal_holds"),
    ("search", "flags_hold", "search.flags_hold"),
    ("search", "_search_chunk", "search.pool_task"),
    ("specmap", "make_spectral_map", "specmap.make_spectral_map"),
    ("specmap", "check_property", "specmap.check_property"),
    ("specmap", "maximal_D_chains", "specmap.maximal_D_chains"),
    ("poset", "Poset.from_leq_matrix", "poset.from_leq_matrix"),
    ("poset", "enumerate_chains", "poset.enumerate_chains"),
    ("poset", "_strict_order_masks", "poset.strict_order_masks"),
    ("rings", "spec", "rings.spec"),
    ("rings", "enumerate_homs", "rings.enumerate_homs"),
    ("rings", "to_spectral_map", "rings.to_spectral_map"),
    ("rings", "check_kernel_LO_lemma", "rings.kernel_lemma"),
    ("rings", "check_extension_LO_lemma", "rings.extension_lemma"),
    ("document", "parse_instance", "document.parse_instance"),
    ("document", "serialize_instance", "document.serialize_instance"),
    ("document", "serialize_report", "document.serialize_report"),
    ("document", "build_check_report", "document.build_check_report"),
    ("document", "build_verify_report", "document.build_verify_report"),
    ("document", "build_search_report", "document.build_search_report"),
    ("cli", "main", "cli.main"),
    ("cli", "estimate_sweep_cost", "cli.estimate_sweep_cost"),
)

#: span names that run as pool tasks; a child writes its spans after each
POOL_TASKS = ("theorems.pool_task", "search.pool_task")

#: per-layer metrics: name -> (unit, the end-to-end metric and workload it
#: should move). Names and units must match BENCHMARK.json.
LAYER_METRICS = {
    "kernels.sweep_pair.calls": ("count", "checks_per_s on sweep; wall_s on witness"),
    "kernels.sweep_pair.maps": ("count", "checks_per_s on sweep; wall_s on witness"),
    "kernels.sweep_pair.self_s": ("s", "checks_per_s on sweep; wall_s on witness"),
    "kernels.eval_theorem.calls": ("count", "checks_per_s on sweep; wall_s on witness"),
    "kernels.eval_theorem.s": ("s", "checks_per_s on sweep; wall_s on witness"),
    "kernels.map_enum_s": ("s", "checks_per_s on sweep; wall_s on witness"),
    "kernels.search_pair.calls": ("count", "wall_s on witness"),
    "kernels.search_pair.self_s": ("s", "wall_s on witness"),
    "kernels.property_bits.calls": ("count", "wall_s on witness"),
    "kernels.property_bits.s": ("s", "wall_s on witness"),
    "kernels.goal_eval_ratio": ("ratio", "wall_s on witness"),
    "theorems.exhaustive_verify.s": ("s", "wall_s on witness"),
    "theorems.sweep_pairs.s": ("s", "wall_s on witness"),
    "theorems.replays": ("count", "wall_s on witness"),
    "theorems.replay.s": ("s", "wall_s on witness"),
    "theorems.verify.calls": ("count", "call_p50_ms on instances"),
    "theorems.verify.s": ("s", "call_p50_ms on instances"),
    "theorems.pool.overhead_s": ("s", "wall_s on witness"),
    "search.search_witness.s": ("s", "wall_s on witness"),
    "search.shrink.s": ("s", "wall_s on witness"),
    "search.shrink.accept_ratio": ("ratio", "wall_s on witness"),
    "search.goal_holds.calls": ("count", "wall_s on witness"),
    "search.goal_holds.s": ("s", "wall_s on witness"),
    "search.flags_hold.calls": ("count", "wall_s on witness"),
    "search.pool.overhead_s": ("s", "wall_s on witness"),
    "specmap.make_spectral_map.calls": ("count", "call_p50_ms on instances; wall_s on witness"),
    "specmap.make_spectral_map.s": ("s", "call_p50_ms on instances; wall_s on witness"),
    "specmap.check_property.calls": ("count", "call_p50_ms on instances; wall_s on witness"),
    "specmap.check_property.s": ("s", "call_p50_ms on instances; wall_s on witness"),
    "specmap.maximal_D_chains.s": ("s", "wall_s on witness"),
    "poset.from_leq_matrix.calls": ("count", "calls_per_s on instances"),
    "poset.from_leq_matrix.s": ("s", "calls_per_s on instances"),
    "poset.enumerate_chains.s": ("s", "wall_s on witness"),
    "poset.strict_order_masks.s": ("s", "setup_s on sweep"),
    "rings.spec.calls": ("count", "calls_per_s on instances"),
    "rings.spec.s": ("s", "calls_per_s on instances"),
    "rings.spec.distinct_ratio": ("ratio", "calls_per_s on instances"),
    "rings.enumerate_homs.s": ("s", "calls_per_s on instances"),
    "rings.to_spectral_map.calls": ("count", "calls_per_s on instances"),
    "rings.to_spectral_map.s": ("s", "calls_per_s on instances"),
    "rings.lemma.s": ("s", "calls_per_s on instances"),
    "document.parse_instance.s": ("s", "call_p50_ms on instances"),
    "document.serialize.s": ("s", "call_p50_ms on instances; no move on sweep"),
    "document.build_report.s": ("s", "call_p50_ms on instances; no move on sweep"),
    "document.report_bytes": ("bytes", "call_p50_ms on instances; no move on sweep"),
    "cli.main.s": ("s", "wall_s on sweep"),
    "cli.estimate_sweep_cost.s": ("s", "wall_s on sweep"),
    "trace.overhead_s": ("s", "none: traced wall minus untraced wall of one pass"),
}


def _sweep_pair_key(args, result):
    _tid, _waive, ns, s_up, nr, r_up, allow_top = args
    return (int(ns), [int(x) for x in s_up], int(nr), [int(x) for x in r_up],
            bool(allow_top), int(result[0]))


#: span name -> function(args, result) giving a JSON-able record to count
_RECORDERS = {
    "kernels.sweep_pair": _sweep_pair_key,
    "rings.spec": lambda args, result: str(args[0]),
    "document.serialize_report": lambda args, result: len(result.encode()),
}


class _PoolShim:
    """Stands in for `multiprocessing` in a traced module to time pools."""

    def __init__(self, tracer: "Tracer", owner: str):
        self._tracer = tracer
        self._owner = owner

    def get_context(self, method=None):
        ctx = multiprocessing.get_context(method)
        return SimpleNamespace(
            Pool=lambda processes: _TimedPool(self._tracer, self._owner, ctx, processes)
        )


class _TimedPool:
    """A pool whose wall time, from fork to terminate, is recorded."""

    def __init__(self, tracer, owner, ctx, processes):
        self._tracer = tracer
        self._owner = owner
        # children inherit the id at fork and tag their task spans with it
        tracer.pool_id = len(tracer.pools)
        self._start = time.perf_counter()
        self._pool = ctx.Pool(processes)

    def __enter__(self):
        self._pool.__enter__()
        return self._pool

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.pools.append((self._owner, time.perf_counter() - self._start))
            self._tracer.pool_id = -1


class Tracer:
    """In-memory spans for one process tree; see the module docstring."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.names = [name for _, _, name in TRACED]
        self.pools: list[tuple[str, float]] = []
        self.pool_id = -1
        self._restore: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self):
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.calls = [0] * len(self.names)
        self.records = {name: Counter() for name in _RECORDERS}

    def _after_fork(self):
        if self._restore:
            self._reset()

    # -- installing ---------------------------------------------------------

    def install(self):
        import chaincover

        modules = {
            name: sys.modules[f"chaincover.{name}"]
            for name in ("_kernels", "theorems", "search", "specmap", "poset",
                         "rings", "document", "cli")
        }
        namespaces = [chaincover, *modules.values()]
        for idx, (mod_name, attr, span_name) in enumerate(TRACED):
            module = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(original.__func__, idx, span_name))
                self._restore.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, idx, span_name)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapped)
        for owner in ("theorems", "search"):
            module = modules[owner]
            self._restore.append((module, "mp", module.mp))
            module.mp = _PoolShim(self, owner)

    def uninstall(self):
        for ns, key, original in reversed(self._restore):
            setattr(ns, key, original)
        self._restore.clear()

    def _wrap(self, fn, idx: int, span_name: str):
        recorder = _RECORDERS.get(span_name)
        flush = span_name in POOL_TASKS
        perf = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[idx] += 1
                gen = fn(*args, **kwargs)
                while True:
                    span = tracer._open(idx, perf())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span, perf())
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[idx] += 1
            span = tracer._open(idx, perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, perf())
            if recorder is not None:
                tracer.records[span_name][json.dumps(recorder(args, result))] += 1
            if flush and os.getpid() != tracer._pid:
                tracer.write_spans()
            return result

        return wrapper

    def _open(self, idx: int, now: float) -> int:
        span = len(self.start)
        self.name_idx.append(idx)
        self.parent.append(self.stack[-1])
        self.start.append(now)
        self.end.append(now)
        self.stack.append(span)
        return span

    def _close(self, span: int, now: float):
        self.end[span] = now
        self.stack.pop()

    # -- writing and merging --------------------------------------------------

    def write_spans(self):
        """Write this process's spans to `spans-<pid>.npz` in out_dir."""
        meta = {
            "pool_id": self.pool_id,
            "calls": self.calls,
            "records": {name: list(counter.items()) for name, counter in self.records.items()},
        }
        # a pid can be reused by a later pool, never within one
        stem = f"spans-{os.getpid()}-pool{self.pool_id + 1}"
        path = self.out_dir / f"{stem}.npz"
        tmp = self.out_dir / f"{stem}.tmp.npz"
        np.savez(
            tmp,
            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )
        os.replace(tmp, path)

    def collect(self) -> "Profile":
        """Write the parent's spans, then merge every process's file."""
        self.write_spans()
        profile = Profile(self.names, self.pools)
        for path in sorted(self.out_dir.glob("spans-*.npz")):
            if path.name.endswith(".tmp.npz"):
                continue
            with np.load(path, allow_pickle=False) as data:
                profile.add(
                    data["name_idx"], data["parent"], data["start"], data["end"],
                    json.loads(str(data["meta"])),
                )
            path.unlink()
        return profile


class Profile:
    """Per-name totals merged over the processes of one traced pass."""

    def __init__(self, names: list[str], pools: list[tuple[str, float]]):
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        n = len(names)
        self.calls = np.zeros(n, dtype=np.int64)
        self.total = np.zeros(n)
        self.self_time = np.zeros(n)
        self.pools = pools
        self.pool_busy: dict[int, list[float]] = {}
        #: (child name, parent name) -> [spans, seconds]
        self.edges: Counter = Counter()
        self.edge_time: Counter = Counter()
        self.records = {name: Counter() for name in _RECORDERS}

    def add(self, name_idx, parent, start, end, meta):
        n = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child_sum = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_dur = dur - child_sum
        self.calls += np.asarray(meta["calls"], dtype=np.int64)
        self.total += np.bincount(name_idx, weights=dur, minlength=n)
        self.self_time += np.bincount(name_idx, weights=self_dur, minlength=n)
        parent_name = np.where(has_parent, name_idx[np.maximum(parent, 0)], -1)
        pairs = name_idx.astype(np.int64) * (n + 1) + (parent_name + 1)
        keys, inverse = np.unique(pairs, return_inverse=True)
        counts = np.bincount(inverse)
        times = np.bincount(inverse, weights=dur)
        for key, c, t in zip(keys.tolist(), counts.tolist(), times.tolist()):
            child, par = divmod(key, n + 1)
            edge = (self.names[child], self.names[par - 1] if par else None)
            self.edges[edge] += c
            self.edge_time[edge] += t
        if meta["pool_id"] >= 0:
            busy = float(dur[np.isin(name_idx, [self.index[t] for t in POOL_TASKS])].sum())
            self.pool_busy.setdefault(meta["pool_id"], []).append(busy)
        for name, items in meta["records"].items():
            self.records[name].update(dict(items))

    def summary(self) -> dict:
        """Calls, total and self seconds for every span name."""
        return {
            name: {
                "calls": int(self.calls[i]),
                "total_s": float(self.total[i]),
                "self_s": float(self.self_time[i]),
            }
            for i, name in enumerate(self.names)
        }

    def n(self, name: str) -> int:
        return int(self.calls[self.index[name]])

    def s(self, *names: str) -> float:
        return float(sum(self.total[self.index[name]] for name in names))

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.index[name]])

    def under(self, child: str, parent: str) -> tuple[int, float]:
        """Spans of `child` whose nearest traced caller is `parent`."""
        return self.edges[(child, parent)], self.edge_time[(child, parent)]

    def pool_overhead(self, owner: str) -> float:
        """Parallel wall time minus the busiest worker's busy time, summed."""
        total = 0.0
        for pool_id, (pool_owner, wall) in enumerate(self.pools):
            if pool_owner == owner:
                total += wall - max(self.pool_busy.get(pool_id, [0.0]))
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: Profile, map_enum_s: float, overhead_s: float) -> dict:
    """Every LAYER_METRICS value from a merged profile."""
    shrinks = p.n("search.shrink")
    accepted = p.n("search.shrink_candidates") - shrinks
    tried = p.under("search.flags_hold", "search.shrink")[0] - shrinks
    replays, replay_s = p.under("theorems.instance_from_raw", "theorems.exhaustive_verify")
    replay_s += p.under("theorems.verify", "theorems.exhaustive_verify")[1]
    spec_calls = p.n("rings.spec")
    values = {
        "kernels.sweep_pair.calls": p.n("kernels.sweep_pair"),
        "kernels.sweep_pair.maps": sum(
            json.loads(key)[-1] * n for key, n in p.records["kernels.sweep_pair"].items()
        ),
        "kernels.sweep_pair.self_s": p.self_s("kernels.sweep_pair"),
        "kernels.eval_theorem.calls": p.n("kernels.eval_theorem"),
        "kernels.eval_theorem.s": p.s("kernels.eval_theorem"),
        "kernels.map_enum_s": map_enum_s,
        "kernels.search_pair.calls": p.n("kernels.search_pair"),
        "kernels.search_pair.self_s": p.self_s("kernels.search_pair"),
        "kernels.property_bits.calls": p.n("kernels.property_bits"),
        "kernels.property_bits.s": p.s("kernels.property_bits"),
        "kernels.goal_eval_ratio": _ratio(p.n("kernels.goal_met"), p.n("kernels.property_bits")),
        "theorems.exhaustive_verify.s": p.s("theorems.exhaustive_verify"),
        "theorems.sweep_pairs.s": p.s("theorems.sweep_pairs"),
        "theorems.replays": replays,
        "theorems.replay.s": replay_s,
        "theorems.verify.calls": p.n("theorems.verify"),
        "theorems.verify.s": p.s("theorems.verify"),
        "theorems.pool.overhead_s": p.pool_overhead("theorems"),
        "search.search_witness.s": p.s("search.search_witness"),
        "search.shrink.s": p.s("search.shrink"),
        "search.shrink.accept_ratio": _ratio(accepted, tried),
        "search.goal_holds.calls": p.n("search.goal_holds"),
        "search.goal_holds.s": p.s("search.goal_holds"),
        "search.flags_hold.calls": p.n("search.flags_hold"),
        "search.pool.overhead_s": p.pool_overhead("search"),
        "specmap.make_spectral_map.calls": p.n("specmap.make_spectral_map"),
        "specmap.make_spectral_map.s": p.s("specmap.make_spectral_map"),
        "specmap.check_property.calls": p.n("specmap.check_property"),
        "specmap.check_property.s": p.s("specmap.check_property"),
        "specmap.maximal_D_chains.s": p.s("specmap.maximal_D_chains"),
        "poset.from_leq_matrix.calls": p.n("poset.from_leq_matrix"),
        "poset.from_leq_matrix.s": p.s("poset.from_leq_matrix"),
        "poset.enumerate_chains.s": p.s("poset.enumerate_chains"),
        "poset.strict_order_masks.s": p.s("poset.strict_order_masks"),
        "rings.spec.calls": spec_calls,
        "rings.spec.s": p.s("rings.spec"),
        "rings.spec.distinct_ratio": _ratio(len(p.records["rings.spec"]), spec_calls),
        "rings.enumerate_homs.s": p.s("rings.enumerate_homs"),
        "rings.to_spectral_map.calls": p.n("rings.to_spectral_map"),
        "rings.to_spectral_map.s": p.s("rings.to_spectral_map"),
        "rings.lemma.s": p.s("rings.kernel_lemma", "rings.extension_lemma"),
        "document.parse_instance.s": p.s("document.parse_instance"),
        "document.serialize.s": p.s("document.serialize_instance", "document.serialize_report"),
        "document.build_report.s": p.s(
            "document.build_check_report", "document.build_verify_report",
            "document.build_search_report",
        ),
        "document.report_bytes": sum(
            json.loads(key) * n for key, n in p.records["document.serialize_report"].items()
        ),
        "cli.main.s": p.s("cli.main"),
        "cli.estimate_sweep_cost.s": p.s("cli.estimate_sweep_cost"),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}


def sweep_pair_calls(p: Profile):
    """Distinct (ns, s_up, nr, r_up, allow_top, maps) sweep_pair calls, with counts."""
    return [(json.loads(key), n) for key, n in p.records["kernels.sweep_pair"].items()]
