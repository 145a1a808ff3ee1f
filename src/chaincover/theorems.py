"""Theorem verifiers over finite spectral-map instances.

Each verifier decides one implication or biconditional about chain covering
behavior on a single instance, and `exhaustive_verify` sweeps it over every
monotone map between all posets within a size bound. Verifiers with
hypotheses treat an instance that misses them as conforming (the implication
is vacuously true there); `waive_hypotheses` forces the conclusion to be
evaluated anyway, which is how known counterexamples to the unhypothesized
statements are exhibited.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import sys
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import islice, product

from . import _kernels as K
from ._kernels import _raw_up
from .poset import (
    POSET_ENUM_BOUND,
    BoundExceeded,
    _poset_from_strict_rows,
    _strict_order_masks,
)
from .specmap import TOP, SpectralMap, make_spectral_map


#: one member per entry of the kernel's theorem table, valued by its name
TheoremId = Enum("TheoremId", [(name, name) for name in K.THEOREMS], module=__name__)

#: each theorem's hypothesis names; the empty tuple marks biconditionals,
#: which are checked on every instance unconditionally
HYPOTHESES: dict[TheoremId, tuple[str, ...]] = {t: K.THEOREMS[t.value][0] for t in TheoremId}

THEOREM_STATEMENTS: dict[TheoremId, str] = {
    TheoremId.T_COVER_MAXCHAIN: (
        "unitary + GU + GD + SGB: the image of every maximal chain of r is a "
        "maximal chain of s"
    ),
    TheoremId.C_PERFECT_MAXCHAIN: (
        "unitary + INC + GU + GD + SGB: the contraction restricted to any "
        "maximal chain of r is a bijection onto a maximal chain of s"
    ),
    TheoremId.L_LO_EXISTENCE: (
        "LO holds iff every nonempty chain D has a nonempty maximal D-chain"
    ),
    TheoremId.P_LAYERS: (
        "layer 1 equals LO+INC; layers 1-2 equal LO+INC+GU+GD; layers 1-3 "
        "equal LO+INC+GU+GD+SGB"
    ),
    TheoremId.P_MINI_GD: (
        "GD holds iff on every nonempty maximal D-chain each member of D "
        "sits above the contraction of some chain member"
    ),
    TheoremId.P_MINI_GU: (
        "GU holds iff on every nonempty maximal D-chain each member of D "
        "sits below the contraction of some chain member"
    ),
    TheoremId.P_MINI_SGB: (
        "SGB holds iff across every proper cut of every nonempty maximal "
        "D-chain each member of D is bracketed by a contraction"
    ),
    TheoremId.C_GGD: (
        "GD + SGB: the map has GGD, and every maximal D-chain through a lift "
        "of max D covers D"
    ),
    TheoremId.C_GGU_DUAL: (
        "GU + SGB: the map has SCLO, and every maximal D-chain through a lift "
        "of min D covers D"
    ),
    TheoremId.T_MAXDCHAIN_COVERS: (
        "GD + GU + SGB hold together iff every nonempty maximal D-chain of "
        "every nonempty chain D is a cover of D"
    ),
    TheoremId.T_PERFECT_COVER: (
        "LO + INC + GU + GD + SGB: every maximal D-chain is a perfect cover "
        "of its D"
    ),
    TheoremId.C_EQUIVALENT: (
        "layers 1-3, the five properties, every maximal D-chain being a "
        "perfect maximal cover, and |C| = |D| throughout are equivalent"
    ),
    TheoremId.L_MAXCOVER_MAXCHAIN: (
        "unitary: a maximal cover of a maximal chain of s is a maximal chain "
        "of r"
    ),
    TheoremId.C_MAXDCHAIN_MAXCHAIN: (
        "unitary + GD + GU + SGB: every nonempty maximal D-chain over a "
        "maximal chain of s is a maximal cover and a maximal chain of r"
    ),
    TheoremId.C_EXISTS_MAXCHAIN_COVER: (
        "unitary + LO + GD + GU + SGB: every maximal chain of s has a "
        "maximal cover that is a maximal chain of r"
    ),
    TheoremId.X_KO_SCLO_EQ_GU: (
        "unitary: SCLO and GU decide each other (exploratory)"
    ),
}

_CLAUSES: dict[tuple[TheoremId, int], str] = {
    (TheoremId.T_COVER_MAXCHAIN, 1): "a maximal chain of r contracts into TOP",
    (TheoremId.T_COVER_MAXCHAIN, 2): "the image of a maximal chain is not a chain",
    (TheoremId.T_COVER_MAXCHAIN, 3): "the image of a maximal chain is not maximal",
    (TheoremId.C_PERFECT_MAXCHAIN, 1): "a maximal chain of r contracts into TOP",
    (TheoremId.C_PERFECT_MAXCHAIN, 2): "the image of a maximal chain is not a chain",
    (TheoremId.C_PERFECT_MAXCHAIN, 3): "the image of a maximal chain is not maximal",
    (TheoremId.C_PERFECT_MAXCHAIN, 4): "the contraction is not injective on a maximal chain",
    (TheoremId.L_LO_EXISTENCE, 1): "LO holds but some nonempty D has only the empty maximal D-chain",
    (TheoremId.L_LO_EXISTENCE, 2): "every nonempty D has a nonempty maximal D-chain but LO fails",
    (TheoremId.P_LAYERS, 1): "layer 1 disagrees with LO + INC",
    (TheoremId.P_LAYERS, 2): "layers 1-2 disagree with LO + INC + GU + GD",
    (TheoremId.P_LAYERS, 3): "layers 1-3 disagree with LO + INC + GU + GD + SGB",
    (TheoremId.P_MINI_GD, 1): "GD holds but the lower-contraction condition fails",
    (TheoremId.P_MINI_GD, 2): "the lower-contraction condition holds but GD fails",
    (TheoremId.P_MINI_GU, 1): "GU holds but the upper-contraction condition fails",
    (TheoremId.P_MINI_GU, 2): "the upper-contraction condition holds but GU fails",
    (TheoremId.P_MINI_SGB, 1): "SGB holds but some cut leaves a member of D unbracketed",
    (TheoremId.P_MINI_SGB, 2): "every cut brackets every member of D but SGB fails",
    (TheoremId.C_GGD, 1): "GGD fails",
    (TheoremId.C_GGD, 2): "a maximal D-chain through a lift of max D is not a cover",
    (TheoremId.C_GGU_DUAL, 1): "SCLO fails",
    (TheoremId.C_GGU_DUAL, 2): "a maximal D-chain through a lift of min D is not a cover",
    (TheoremId.T_MAXDCHAIN_COVERS, 1): "GD + GU + SGB hold but some nonempty maximal D-chain is not a cover",
    (TheoremId.T_MAXDCHAIN_COVERS, 2): "all nonempty maximal D-chains cover but GD, GU or SGB fails",
    (TheoremId.T_PERFECT_COVER, 1): "a maximal D-chain is not a cover",
    (TheoremId.T_PERFECT_COVER, 2): "a maximal D-chain covers but is not perfect",
    (TheoremId.L_MAXCOVER_MAXCHAIN, 1): "a maximal cover of a maximal chain of s is not a maximal chain of r",
    (TheoremId.C_MAXDCHAIN_MAXCHAIN, 1): "a nonempty maximal D-chain over a maximal chain is not a cover",
    (TheoremId.C_MAXDCHAIN_MAXCHAIN, 2): "a nonempty maximal D-chain over a maximal chain is not a maximal chain of r",
    (TheoremId.C_EXISTS_MAXCHAIN_COVER, 1): "some maximal chain of s has no maximal cover that is a maximal chain of r",
    (TheoremId.X_KO_SCLO_EQ_GU, 1): "SCLO holds but GU fails",
    (TheoremId.X_KO_SCLO_EQ_GU, 2): "GU holds but SCLO fails",
}

#: ids verified by the acceptance-level sweeps; the exploratory id is
#: checked by its own tests but kept out of default verification runs.
CORE_THEOREMS: tuple[TheoremId, ...] = tuple(
    t for t in TheoremId if t is not TheoremId.X_KO_SCLO_EQ_GU
)


@dataclass
class Counterexample:
    """A replayable violating instance with a clause description."""

    smap: SpectralMap
    theorem: TheoremId
    waived: bool
    detail: dict


@dataclass(slots=True)
class Verdict:
    theorem: TheoremId | str
    holds: bool
    instances_checked: int
    counterexample: Counterexample | None
    note: str | None = None


def clause_text(theorem: TheoremId, code: int) -> str:
    if theorem is TheoremId.C_EQUIVALENT:
        bits = code - 1
        names = ("layers 1-3", "five properties", "perfect maximal covers", "|C| = |D|")
        held = ", ".join(n for k, n in enumerate(names) if bits >> k & 1)
        failed = ", ".join(n for k, n in enumerate(names) if not bits >> k & 1)
        return f"equivalent conditions disagree: {held} hold while {failed} fail"
    return _CLAUSES.get((theorem, code), f"clause {code}")


def _unmet(names, bits: int) -> list[str]:
    # the hypothesis names whose flags `bits` misses
    return [name for name in names if not bits & K.HYPOTHESIS_BITS[name]]


def unmet_hypotheses(m: SpectralMap, theorem: TheoremId) -> list[str]:
    names, need, *_ = K.THEOREMS[theorem._value_]
    bits = m.facts.bits
    return [] if bits & need == need else _unmet(names, bits)


def _note(key) -> str:
    value, missing, waive_hypotheses = key
    state = "hypotheses waived: " if waive_hypotheses else "hypothesis unmet: "
    return state + ", ".join(_unmet(K.THEOREMS[value][0], ~missing))


#: (theorem value, missing hypothesis flags, waive_hypotheses) -> the note
#: of a verdict on an instance that misses those flags
_NOTES = K._FilledTable(_note)


def verify(m: SpectralMap, theorem: TheoremId, waive_hypotheses: bool = False) -> Verdict:
    """Check one theorem on one instance.

    An instance missing the hypotheses yields holds=True with a note, unless
    waive_hypotheses is set, in which case the conclusion is evaluated on
    its own. The clause code is K.eval_theorem's, and each note is made
    once per (theorem, missing flags, waive_hypotheses) and then shared.
    """
    f = m.facts
    bits = f.bits
    value = theorem._value_
    need = K.THEOREMS[value][1]
    note = None
    if bits & need != need:
        note = _NOTES[value, need & ~bits, waive_hypotheses]
    code = K.eval_theorem(value, waive_hypotheses, f.s, f.r, f.cmap, bits, f.allowed)
    counterexample = None
    if code != 0:
        counterexample = Counterexample(
            smap=m,
            theorem=theorem,
            waived=waive_hypotheses,
            detail={"code": code, "clause": clause_text(theorem, code)},
        )
    return Verdict(
        theorem=theorem,
        holds=code == 0,
        instances_checked=1,
        counterexample=counterexample,
        note=note,
    )


def instance_from_raw(s_rows, r_rows, vec) -> SpectralMap:
    """Object-level instance for a raw enumeration triple.

    Index normalization may permute elements, so the assignment is carried
    over by the generated labels rather than by position.
    """
    s = _poset_from_strict_rows(tuple(s_rows))
    r = _poset_from_strict_rows(tuple(r_rows))
    ns_raw = len(s_rows)
    assignment: list = [None] * r.n
    for raw_q, v in enumerate(vec):
        obj_q = r.index(f"e{raw_q}")
        assignment[obj_q] = TOP if v == ns_raw else s.index(f"e{v}")
    return make_spectral_map(s, r, assignment)


def _replay(s_list, r_list, allow_top: bool, pair_idx: int, map_idx: int) -> SpectralMap:
    """The instance of map `map_idx` of labeled pair `pair_idx`, as a sweep or
    search reports it: the pair of s_list[i] and r_list[j] has the index
    i * len(r_list) + j."""
    s_pos, r_pos = divmod(pair_idx, len(r_list))
    s_rows, r_rows = s_list[s_pos], r_list[r_pos]
    vec = K.monotone_maps(
        len(s_rows), _raw_up(s_rows), len(r_rows), _raw_up(r_rows), allow_top
    )[map_idx]
    return instance_from_raw(s_rows, r_rows, vec)


def pool_plan(items: list, jobs: int) -> list[list]:
    """Round-robin chunks of `items` for up to `jobs` workers, the caller one of them.

    No more workers start than there are CPUs this process may run on,
    since more only add start-up.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    workers = max(1, min(jobs, cpus, len(items)))
    return [items[k::workers] for k in range(workers)]


@functools.cache
def _map_estimate(s_rows, r_rows, allow_top: bool) -> float:
    """Rough count of the monotone maps r -> s (+ TOP) of raw strict rows.

    Every assignment, thinned by the chance that a uniform one keeps a
    covering pair of r in order, once per covering pair; exact when r is
    an antichain, the case with the most maps. The pairs are read from the
    posets' records in K._RECORDS. Each search and each split
    sweep asks again for its class pairs, so the estimates are kept for
    the process: at most one per class pair within POSET_ENUM_BOUND and
    allow_top, since callers pass each class's least member.
    """
    values = len(s_rows) + allow_top
    if not values:
        return float(not r_rows)
    s, r = K._RECORDS[s_rows], K._RECORDS[r_rows]
    # ordered pairs v <= w among the values; TOP lies over every value
    ordered = len(s_rows) + len(s.strict_order[2]) + allow_top * values
    return values ** len(r_rows) * (ordered / values**2) ** len(r.hasse)


def class_pairs(s_list: list, r_list: list, allow_top: bool) -> list:
    """(map estimate, s positions, r positions) of each pair of isomorphism classes.

    The positions of a class are those of its members in `s_list` or
    `r_list`, ascending, so the least labeled member of a class pair is the
    pair of its first positions, whose index is s position * len(r_list) +
    r position. The estimate is `_map_estimate` of that member. Class pairs
    come in the order of their least members' indices. The class keys are
    the `iso` of the posets' records in K._RECORDS, which forked workers
    inherit.
    """
    records = K._RECORDS

    def members(rows_list):
        classes = defaultdict(list)  # class -> its positions in rows_list
        for pos, rows in enumerate(rows_list):
            classes[records[rows].iso].append(pos)
        return list(classes.values())

    r_members = members(r_list)
    return [
        (_map_estimate(s_list[s_pos[0]], r_list[r_pos[0]], allow_top), s_pos, r_pos)
        for s_pos in members(s_list)
        for r_pos in r_members
    ]


def deal_class_pairs(pairs: list, jobs: int) -> list[list]:
    """Chunks of (s positions, r positions) class pairs for up to `jobs` workers.

    `pairs` are entries of class_pairs. They are dealt round robin
    (pool_plan) in descending order of their map estimates, so the costly
    ones are spread over the workers, and each chunk lists its class pairs
    in ascending order of their least labeled members. Every member of a
    class pair violates, or hits, or none does, so the first class pair of
    a chunk that does holds the chunk's least such labeled pair. The deal
    is deterministic: every sweep or search over the same class pairs gives
    a child the same ones, whose orbit entries the caller holds after the
    first (run_chunks).
    """
    pairs = sorted(pairs, key=lambda pair: pair[0], reverse=True)
    # positions ascend and classes are disjoint, so the lists sort by their
    # least members
    return [sorted((s_pos, r_pos) for _, s_pos, r_pos in part) for part in pool_plan(pairs, jobs)]


def _handback(job):
    """(task(payload), the K._ORBITS and K._FACTS entries made meanwhile,
    as (key, entry)) of a pool job (task, payload). Orbit entries never
    change, so the new ones are the tail the task added; a fact entry is
    replaced when it grows, so the new ones are not the objects they were."""
    task, payload = job
    start = len(K._ORBITS)
    facts = dict(K._FACTS)
    result = task(payload)
    made = [(key, entry) for key, entry in K._FACTS.items() if facts.get(key) is not entry]
    return result, list(islice(K._ORBITS.items(), start, None)), made


class _ForkPool:
    """One forked child per job, as a context manager; the part of
    `multiprocessing.Pool` that run_chunks uses.

    `map_async(func, jobs)` forks a child for each job, which inherits the
    job through the fork: nothing is pickled on the way in, and no pool
    thread has to win the interpreter lock before a child starts. The child
    pickles (True, func(job)) or (False, the exception) to a pipe and ends
    with os._exit, so no stdio buffer or exit handler of the caller runs in
    it. `get()` reads the pipes in job order and reaps each child; it raises
    a child's exception in the caller, and ChildProcessError for a child
    that ended without a result, such as one killed by a signal. Leaving the
    `with` block kills and reaps every child not reaped yet, on every exit
    path. `processes` is the job count; each job gets its own child.
    """

    def __init__(self, processes: int):
        self._children: list = []  # (pid, read end of its pipe), in job order

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._children:
            pid, pipe = self._children.pop()
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)

    def map_async(self, func, jobs):
        for job in jobs:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                status = 1
                try:
                    try:
                        out = (True, func(job))
                    except BaseException as exc:
                        out = (False, exc)
                    with open(write, "wb") as pipe:
                        pickle.dump(out, pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            self._children.append((pid, open(read, "rb")))
        return self

    def get(self) -> list:
        results = []
        while self._children:
            pid, pipe = self._children[0]
            data = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del self._children[0]
            if code:
                how = f"signal {-code}" if code < 0 else f"status {code}"
                raise ChildProcessError(f"pool child {pid} ended by {how} without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results


class _StartMethods:
    """The part of multiprocessing's API that run_chunks uses.

    `get_context(method).Pool(n)` opens a pool of n workers. Like the
    multiprocessing module, the object is itself a context, here fork's:
    "fork" gives it back, with _ForkPool as its Pool. Any other method is
    multiprocessing's own context, and only then is multiprocessing
    imported: neither `import chaincover` nor a sweep or search on Linux
    loads it.
    """

    Pool = _ForkPool

    def get_context(self, method: str):
        if method == "fork":
            return self
        import multiprocessing

        return multiprocessing.get_context(method)


#: the start methods sweeps and searches open their pools through; a module
#: attribute, read at call time, so a benchmark's tracer can time the pools
mp = _StartMethods()


def run_chunks(task, payloads: list, mp) -> list:
    """`task` of each payload, in order; the caller runs the first.

    With more than one payload, `mp.get_context(method).Pool(n)` opens a
    pool of n children, one fewer than the payloads, which runs the rest
    meanwhile, each through _handback. Callers pass their module's `mp`,
    read at call time. On Linux the method is fork and the pool a
    _ForkPool: each child is forked with its payload and starts on it at
    once, while the caller runs its own. Fork does not exist on Windows and
    is unsafe on macOS, which spawn, through multiprocessing, whose
    children import the package afresh and receive their payloads pickled.
    The caller adds the K._ORBITS and K._FACTS entries a child made to its
    own, so the next pool, of this or of a later sweep or search, forks from
    a caller that holds them and its children make none of them again. If
    the caller's own chunk raises, the children are killed.
    """
    if len(payloads) == 1:
        return [task(payloads[0])]
    method = "fork" if sys.platform.startswith("linux") else "spawn"
    with mp.get_context(method).Pool(len(payloads) - 1) as pool:
        rest = pool.map_async(_handback, [(task, payload) for payload in payloads[1:]])
        first = task(payloads[0])
        handed = rest.get()
    orbits = K._ORBITS
    for _, entries, facts in handed:
        for key, entry in entries:
            orbits.setdefault(key, entry)
        # chunks share no pair, so a child's fact entry supersedes the caller's
        K._FACTS.update(facts)
    return [first, *(result for result, _, _ in handed)]


def _sweep_chunk(args):
    """Maps in a chunk's labeled pairs, and its first violation (pair, map, code) or None.

    The chunk is a list of (s positions, r positions) products: the class
    pairs of deal_class_pairs, or for one worker the product of all
    positions. Each product's labeled pairs are walked in ascending order,
    one sweep_pair call each, so the first violation found is the chunk's
    least, and the least over all chunks is the same for any number of
    chunks. After it the chunk only counts the maps of its later pairs.
    The memo settles the members of a clean class after the first. The
    posets' records come from the process-wide K._RECORDS.
    """
    tid, waive, allow_top, s_list, r_list, chunk = args
    maps = 0
    first = None
    memo: dict = {}
    records = K._RECORDS
    width = len(r_list)
    count_only = False
    for s_positions, r_positions in chunk:
        r_records = [(r_pos, records[r_list[r_pos]]) for r_pos in r_positions]
        for s_pos in s_positions:
            s = records[s_list[s_pos]]
            ns = s.n
            for r_pos, r in r_records:
                count, first_bad, code = K.sweep_pair(
                    tid, waive, ns, s, r.n, r, allow_top,
                    memo=memo, count_only=count_only,
                )
                maps += count
                if first_bad >= 0:
                    first = (s_pos * width + r_pos, first_bad, code)
                    count_only = True
    return maps, first


def labeled_posets(least: int, most: int) -> list[tuple[int, ...]]:
    """Strict up rows of every labeled poset of least..most elements, in order."""
    return [rows for n in range(least, most + 1) for rows in _strict_order_masks(n)]


def sweep_pairs(max_s: int, max_r: int):
    """Canonical (s, r) pair stream for exhaustive sweeps."""
    s_list, r_list = labeled_posets(0, max_s), labeled_posets(0, max_r)
    return [(idx, *pair) for idx, pair in enumerate(product(s_list, r_list))]


def _check_bounds(kind: str, least: int, max_s: int, max_r: int, size_bound: int):
    """Raise BoundExceeded, before enumerating, unless both bounds lie in least..size_bound."""
    if not least <= max_s <= size_bound or not least <= max_r <= size_bound:
        raise BoundExceeded(
            f"{kind} bounds must lie in {least}..{size_bound}, got ({max_s}, {max_r})"
        )


def exhaustive_verify(
    theorem: TheoremId,
    max_s: int = 3,
    max_r: int = 4,
    allow_top: bool = True,
    waive_hypotheses: bool = False,
    jobs: int = 1,
) -> Verdict:
    """Check a theorem on every instance within the size bounds.

    Instances are all monotone maps between all labeled posets with at most
    max_s and max_r elements. The verdict reports the full instance count
    and, on failure, the first counterexample in canonical enumeration
    order, independent of the worker count. A worker stops evaluating at
    its first violation and only counts the maps of its later pairs.

    The pairs are numbered as in sweep_pairs, but never listed: one worker
    walks the product of all s and r positions. With `jobs` > 1 the caller
    is one of the workers, and the pairs of isomorphism classes are dealt
    between them (deal_class_pairs). Each call opens its own pool
    (run_chunks), whose children hand back the orbit entries and facts
    they make, so the sweep of the next theorem over the same bounds forks
    with every entry of this one.
    """
    _check_bounds("sweep", 0, max_s, max_r, POSET_ENUM_BOUND)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    s_list, r_list = labeled_posets(0, max_s), labeled_posets(0, max_r)

    chunks = [[(range(len(s_list)), range(len(r_list)))]]
    if jobs > 1:
        dealt = deal_class_pairs(class_pairs(s_list, r_list, allow_top), jobs)
        if len(dealt) > 1:
            chunks = dealt
    payloads = [
        (theorem.value, waive_hypotheses, allow_top, s_list, r_list, chunk) for chunk in chunks
    ]
    results = run_chunks(_sweep_chunk, payloads, mp)
    total = sum(maps for maps, _ in results)
    first = min((first for _, first in results if first is not None), default=None)

    counterexample = None
    note = None
    if first is not None:
        pair_idx, map_idx, _ = first
        m = _replay(s_list, r_list, allow_top, pair_idx, map_idx)
        replay = verify(m, theorem, waive_hypotheses)
        if replay.holds:
            raise AssertionError(
                f"sweep violation for {theorem.name} did not replay on the "
                f"object level (pair {pair_idx}, map {map_idx})"
            )
        counterexample = replay.counterexample
        note = f"first violation at pair {pair_idx}, map {map_idx}"

    return Verdict(
        theorem=theorem,
        holds=first is None,
        instances_checked=total,
        counterexample=counterexample,
        note=note,
    )


def estimate_sweep_cost(max_s: int, max_r: int, allow_top: bool) -> dict:
    """Cheap upper bound on sweep size, for the CLI bound gate.

    Every assignment of each labeled pair, summed per pair of sizes from
    the number of labeled posets of each size. Raises BoundExceeded, as
    exhaustive_verify does, before enumerating anything: the labeled posets
    of a size past POSET_ENUM_BOUND take minutes or more to list.
    """
    _check_bounds("sweep", 0, max_s, max_r, POSET_ENUM_BOUND)
    counts = [len(_strict_order_masks(n)) for n in range(max(max_s, max_r) + 1)]
    extra = 1 if allow_top else 0
    upper = sum(
        counts[ns] * counts[nr] * (ns + extra) ** nr
        for ns in range(max_s + 1)
        for nr in range(max_r + 1)
    )
    return {
        "poset_pairs": sum(counts[: max_s + 1]) * sum(counts[: max_r + 1]),
        "map_upper_bound": upper,
    }
