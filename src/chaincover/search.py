"""Witness search over the instance space, with greedy shrinking.

A witness is an instance meeting a set of property flags together with a
violation goal. The search reports the first witness in the canonical order
of the exhaustive sweeps over nonempty poset pairs, but scans each pair of
isomorphism classes once, on its least labeled member: the flags and the
goals are invariant under relabeling, so every member of a class pair hits
or none does. Adjoined-TOP assignments enter the space only when the flags
ask for a non-unitary map, so degenerate all-TOP instances cannot shadow
structural witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as K
from .poset import POSET_ENUM_BOUND, Poset, _normalized_poset, covering_pairs, enumerate_chains
from .specmap import (
    PROPERTY_BITS,
    TOP,
    NotMonotone,
    SpectralMap,
    check_LO,
    make_spectral_map,
    maximal_D_chains,
)
from .theorems import (
    _check_bounds,
    _replay,
    class_pairs,
    labeled_posets,
    mp,
    pool_plan,
    run_chunks,
)

_FLAG_BITS = {**PROPERTY_BITS, "UNITARY": K.PROP_UNITARY}

#: estimated maps (_map_estimate, summed over the class pairs a search
#: scans whose least member has no orbit entry yet) per extra worker before
#: a search opens a pool. Measured at jobs=2 on a shared 2-vCPU Linux host
#: against the fork pool, each search cold in a fresh interpreter, medians
#: of 3 (BENCH_fork_pool.json, `crossover`): of the searches that scan their
#: whole space, the caller won at 602, 4,114 and 9,304 estimated maps (49
#: against 61 ms at 9,304) and the pool at 2,293 and from 12,493 (92 against
#: 124 ms) to 149,672 (0.62 against 1.09 s). Of the searches that hit
#: early, 17 of 18 ran 2-9 ms faster in the caller, at every size; no
#: estimate foresees an early hit.
MAPS_PER_FORK = 10_000

GOALS = {
    "lo-fails": K.GOAL_LO_FAILS,
    "maximal-dchain-not-cover": K.GOAL_MAXDCHAIN_NOT_COVER,
    "maximal-dchain-not-perfect-cover": K.GOAL_MAXDCHAIN_NOT_PERFECT,
}


@dataclass(frozen=True)
class WitnessSearchSpec:
    """What to search for.

    required: property flags the witness must satisfy, e.g. "GU" or "!LO".
    goal: name of the violation predicate from GOALS.
    d_size: restrict the goal to chains D of this size (chain goals only).
    seed: recorded in reports; the scan itself is exhaustive and ordered.
    """

    required: frozenset
    goal: str
    max_s: int
    max_r: int
    d_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "required", frozenset(self.required))
        for flag in sorted(self.required):
            name = flag[1:] if flag.startswith("!") else flag
            if name not in _FLAG_BITS:
                raise ValueError(f"unknown property flag {flag!r}")
            if name != flag and name in self.required:
                # no map meets both, so the scan could only report no witness
                raise ValueError(f"property flag {name!r} is both required and forbidden")
        if self.goal not in GOALS:
            raise ValueError(f"unknown goal {self.goal!r}")
        if self.max_s < 1 or self.max_r < 1:
            raise ValueError("search bounds must be at least 1")
        if self.d_size is not None and self.d_size < 1:
            raise ValueError("d_size must be at least 1")
        if self.d_size is not None and self.goal == "lo-fails":
            # the goal reads no chain, so the report would record an unused size
            raise ValueError("d_size applies to chain goals only, not to 'lo-fails'")


def _flag_masks(required) -> tuple[int, int]:
    need = 0
    forbid = 0
    for flag in required:
        if flag.startswith("!"):
            forbid |= _FLAG_BITS[flag[1:]]
        else:
            need |= _FLAG_BITS[flag]
    return need, forbid


def flags_hold(m: SpectralMap, required) -> bool:
    need, forbid = _flag_masks(required)
    bits = m.facts.bits
    return bits & need == need and bits & forbid == 0


def goal_holds(m: SpectralMap, goal: str, d_size: int | None = None) -> bool:
    """Object-level mirror of the kernel goal predicates."""
    if goal == "lo-fails":
        return not check_LO(m)
    if goal not in GOALS:
        raise ValueError(f"unknown goal {goal!r}")
    for d in enumerate_chains(m.s_poset, include_empty=False):
        if d_size is not None and len(d) != d_size:
            continue
        dset = set(d.members)
        for c in maximal_D_chains(m, d):
            img = {m.assignment[q] for q in c.members}
            if goal == "maximal-dchain-not-cover" and img != dset:
                return True
            if goal == "maximal-dchain-not-perfect-cover" and (
                img != dset or len(c) != len(d)
            ):
                return True
    return False


def _search_chunk(args):
    """The least hit (pair index, map index) of a chunk's class pairs, in a
    list, or the empty list.

    The chunk lists class pairs by their least labeled member, as (pair
    index, s rows, r rows) in ascending pair index. Every member of a class
    pair hits or none does, and no member's index is below the least
    member's, so the first class pair of the chunk that hits holds the
    chunk's least hitting labeled pair, and it is scanned on that very
    labeling: its first hitting orbit representative is the pair's exact
    first hitting map (search_pair). The least over all chunks is the same
    for any number of chunks.
    """
    need, forbid, goal_id, goal_size, allow_top, pairs = args
    records = K._RECORDS
    for pair_idx, s_rows, r_rows in pairs:
        s, r = records[s_rows], records[r_rows]
        _, hit = K.search_pair(s.n, s, r.n, r, allow_top, need, forbid, goal_id, goal_size)
        if hit >= 0:
            return [(pair_idx, hit)]
    return []


def search_witness(
    spec: WitnessSearchSpec,
    jobs: int = 1,
    do_shrink: bool = True,
) -> SpectralMap | None:
    """First instance meeting the flags and the goal, shrunk, or None.

    The outcome is the first hit of a scan of every monotone map between
    nonempty posets within the bounds, in canonical order: the pair of the
    s poset at position i and the r poset at position j has the index
    i * len(r_list) + j, and within a pair the maps are in monotone_maps
    order. So it is deterministic and does not depend on the worker count.
    The search scans each pair of isomorphism classes (class_pairs) once,
    on its least labeled member, and the first hit is the least such member
    among the class pairs that hit (_search_chunk). With a `d_size`, s
    classes without a chain of that size are left out.

    With `jobs` > 1, class pairs are dealt to the workers in descending
    order of their map estimates (pool_plan), and the caller is one of the
    workers. A pool is opened only when the estimated maps reach
    MAPS_PER_FORK per extra worker, counting only the class pairs whose
    least member has no orbit entry in K._ORBITS yet: a pair with one costs
    no map enumeration, so a search over tables that an earlier sweep or
    search filled runs in the caller. Below that the work costs less than
    the pool. On Linux the pool forks each child with its class pairs
    (run_chunks), and the children hand back the orbit entries they build,
    which later searches and sweeps share.
    """
    _check_bounds("search", 1, spec.max_s, spec.max_r, POSET_ENUM_BOUND)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    need, forbid = _flag_masks(spec.required)
    goal_id = GOALS[spec.goal]
    goal_size = spec.d_size or 0
    allow_top = "!UNITARY" in spec.required

    s_list = labeled_posets(1, spec.max_s)
    r_list = labeled_posets(1, spec.max_r)
    records = K._RECORDS
    # a chain-goal witness needs a chain of d_size in s; raw rows are not in
    # linear-extension order, so the height is read off the maximal chains
    pairs = [
        pair
        for pair in class_pairs(s_list, r_list, allow_top)
        if not goal_size
        or max(c.bit_count() for c in records[s_list[pair[1][0]]].max_chains) >= goal_size
    ]
    # a class pair whose least member has an orbit entry costs no map
    # enumeration, in the caller or in a child forked from it
    orbits = K._ORBITS
    work = sum(
        estimate
        for estimate, s_pos, r_pos in pairs
        if (records[s_list[s_pos[0]]], records[r_list[r_pos[0]]], allow_top) not in orbits
    )
    workers = jobs
    if work < MAPS_PER_FORK * (jobs - 1):
        workers = 1 + int(work // MAPS_PER_FORK)
    pairs.sort(key=lambda pair: pair[0], reverse=True)
    method, dealt = pool_plan(pairs, workers)
    width = len(r_list)
    payloads = [
        (need, forbid, goal_id, goal_size, allow_top, sorted(
            (s_pos[0] * width + r_pos[0], s_list[s_pos[0]], r_list[r_pos[0]])
            for _, s_pos, r_pos in part
        ))
        for part in dealt
    ]
    parts = run_chunks(_search_chunk, payloads, lambda n: mp.get_context(method).Pool(n))
    hits = [hit for part in parts for hit in part]

    if not hits:
        return None
    pair_idx, map_idx = min(hits)
    s_pos, r_pos = divmod(pair_idx, width)
    witness = _replay(s_list[s_pos], r_list[r_pos], allow_top, map_idx)

    def predicate(m: SpectralMap) -> bool:
        return flags_hold(m, spec.required) and goal_holds(m, spec.goal, spec.d_size)

    if not predicate(witness):
        raise AssertionError("kernel search hit does not replay on the object level")
    if do_shrink:
        witness = shrink(witness, predicate)
    return witness


def _subposet(p: Poset, keep, cover: tuple[int, int] | None = None) -> Poset:
    """The order p induces on the indices `keep`, less the covering pair `cover`.

    Removing a covering pair keeps transitivity: any two-step path through
    a third element would disqualify it as a cover.
    """
    up = []
    for i in keep:
        row = p.up_masks[i]
        if cover is not None and i == cover[0]:
            row &= ~(1 << cover[1])
        up.append(sum(1 << new for new, j in enumerate(keep) if row >> j & 1))
    return _normalized_poset(tuple(p.labels[i] for i in keep), up)


def _with_r(m: SpectralMap, new_r: Poset) -> SpectralMap:
    """m on new_r, each element keeping the value of its label."""
    value = dict(zip(m.r_poset.labels, m.assignment))
    return make_spectral_map(m.s_poset, new_r, [value[lab] for lab in new_r.labels])


def _with_s(m: SpectralMap, new_s: Poset) -> SpectralMap:
    """m into new_s, each value moved to the index of its label."""
    labels = m.s_poset.labels
    return make_spectral_map(
        new_s, m.r_poset, [v if v is TOP else new_s.index(labels[v]) for v in m.assignment]
    )


def _shrink_candidates(m: SpectralMap):
    r, s = m.r_poset, m.s_poset
    if r.n > 1:
        for q in range(r.n):
            keep = [i for i in range(r.n) if i != q]
            yield lambda keep=keep: _with_r(m, _subposet(r, keep))
    if s.n > 1:
        used = {v for v in m.assignment if v is not TOP}
        for p in range(s.n):
            if p not in used:
                keep = [i for i in range(s.n) if i != p]
                yield lambda keep=keep: _with_s(m, _subposet(s, keep))
    for pair in covering_pairs(r):
        yield lambda pair=pair: _with_r(m, _subposet(r, range(r.n), pair))
    for pair in covering_pairs(s):
        yield lambda pair=pair: _with_s(m, _subposet(s, range(s.n), pair))


def shrink(m: SpectralMap, violation) -> SpectralMap:
    """Greedily reduce an instance while the violation predicate holds.

    Tries, in order: dropping an r element, dropping an uncontracted s
    element, removing a covering pair from r, removing one from s. Each
    accepted step restarts the scan, and posets never shrink to empty, so
    the result is a local minimum within the search space: no single step
    reduces it further.
    """
    if not violation(m):
        raise ValueError("shrink needs an instance on which the violation holds")
    changed = True
    while changed:
        changed = False
        for build in _shrink_candidates(m):
            try:
                candidate = build()
            except NotMonotone:
                continue
            if violation(candidate):
                m = candidate
                changed = True
                break
    return m
