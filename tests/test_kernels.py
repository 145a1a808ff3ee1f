"""Kernel-level tests: chain mask parity, the maximal-D-chain primitive
against a brute-force scan, the per-sweep isomorphism-class memo, and the
interpreter fallback.

The kernels run compiled when numba is importable and CHAINCOVER_NO_NUMBA
is unset; the same statements interpret as plain Python otherwise. The
fallback test runs a worker process with the flag flipped relative to this
process and requires identical answers from both paths.

The memo tests compare every memoized per-pair answer of a sweep or a
search with the same kernel called without a memo on that pair.
"""

import json
import os
import subprocess
import sys
from itertools import combinations, product

import numpy as np

from chaincover import _kernels as K
from chaincover.poset import (
    _strict_order_masks,
    enumerate_chains,
    enumerate_posets,
    maximal_chains,
)
from chaincover.search import GOALS, _flag_masks, _raw_up, _search_chunk
from chaincover.theorems import TheoremId, _sweep_chunk, sweep_pairs


def test_numba_flag_reflects_environment():
    env_off = os.environ.get("CHAINCOVER_NO_NUMBA", "") not in ("", "0")
    if env_off:
        assert not K.NUMBA_ENABLED
    else:
        try:
            import numba  # noqa: F401

            assert K.NUMBA_ENABLED
        except ImportError:
            assert not K.NUMBA_ENABLED


def test_chain_masks_match_object_enumeration():
    for p in enumerate_posets(4):
        comp = np.array(p.comp_masks, dtype=np.int64)
        kernel_masks = [int(x) for x in K._chain_masks(p.n, comp)]
        object_masks = [c.mask for c in enumerate_chains(p, include_empty=True)]
        assert kernel_masks == object_masks


def test_maximal_chain_masks_match_object_enumeration():
    for p in enumerate_posets(4):
        if p.n == 0:
            continue
        comp = np.array(p.comp_masks, dtype=np.int64)
        kernel_masks = sorted(int(x) for x in K._maximal_chain_masks(p.n, comp))
        object_masks = sorted(c.mask for c in maximal_chains(p))
        assert kernel_masks == object_masks


def _brute_force_maximal_chains(p, allowed):
    """Chains inside `allowed` with no one-element extension inside it."""
    members = [i for i in range(p.n) if allowed >> i & 1]

    def is_chain(subset):
        return all(p.leq[a, b] or p.leq[b, a] for a, b in combinations(subset, 2))

    found = []
    for k in range(len(members) + 1):
        for subset in combinations(members, k):
            if not is_chain(subset):
                continue
            if any(is_chain(subset + (x,)) for x in members if x not in subset):
                continue
            found.append(sum(1 << i for i in subset))
    return sorted(found, reverse=True)


def test_maximal_dchains_match_brute_force():
    # order included: callers that stop at the first defective chain report
    # the clause code of the first chain in descending mask order
    for n in range(5):
        for p in enumerate_posets(n):
            up = p.up_array()
            down = np.array(p.down_masks, dtype=np.int64)
            for allowed in range(1 << n):
                got = [int(c) for c in K._maximal_dchains(up, down, allowed)]
                assert got == _brute_force_maximal_chains(p, allowed), (p, allowed)


def _counting(monkeypatch, name):
    """Replace K.<name> by a wrapper that counts its calls."""
    real = getattr(K, name)
    calls = [0]

    def wrapper(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(K, name, wrapper)
    return calls


def test_memoized_sweep_matches_unmemoized_sweep(monkeypatch):
    pairs = sweep_pairs(3, 3)
    raw = [
        (len(s_rows), _raw_up(s_rows), len(r_rows), _raw_up(r_rows))
        for _, s_rows, r_rows in pairs
    ]
    violations = 0
    for theorem, waive in product(TheoremId, (False, True)):
        expected = [
            (idx, *(int(x) for x in K.sweep_pair(theorem.value, waive, *args, True)))
            for (idx, _, _), args in zip(pairs, raw)
        ]
        with monkeypatch.context() as m:
            loops = _counting(m, "_sweep_maps")
            got = _sweep_chunk((theorem.value, waive, True, pairs))
        assert got == expected, (theorem.name, waive)
        assert loops[0] < len(pairs), (theorem.name, waive)
        violations += sum(first_bad >= 0 for _, _, first_bad, _ in got)
    # waived sweeps violate, so violating classes are exercised too
    assert violations > 0


# (required flags, goal, d_size): the benchmark's witness searches
_SEARCHES = (
    ("UNITARY,LO,GU,GD,!SGB", "maximal-dchain-not-cover", 3),
    ("LO,GU,GD", "maximal-dchain-not-cover", None),
    ("UNITARY,LO,INC,GU,GD", "maximal-dchain-not-perfect-cover", None),
    ("GU", "lo-fails", None),
    ("LO,INC", "maximal-dchain-not-perfect-cover", None),
    ("!UNITARY,GU", "maximal-dchain-not-cover", None),
)


def test_memoized_search_matches_unmemoized_search(monkeypatch):
    nonempty = [rows for n in range(1, 4) for rows in _strict_order_masks(n)]
    pairs = [(idx, s, r) for idx, (s, r) in enumerate(product(nonempty, nonempty))]
    hits = 0
    scans = 0
    for required, goal, d_size in _SEARCHES:
        need, forbid = _flag_masks(required.split(","))
        allow_top = "!UNITARY" in required
        params = (allow_top, need, forbid, GOALS[goal], d_size or 0)

        def search(s_rows, r_rows, memo=None):
            count, hit = K.search_pair(
                len(s_rows), _raw_up(s_rows), len(r_rows), _raw_up(r_rows),
                *params, memo=memo,
            )
            return int(count), int(hit)

        expected = [search(s_rows, r_rows) for _, s_rows, r_rows in pairs]
        memo: dict = {}
        with monkeypatch.context() as m:
            loops = _counting(m, "_search_maps")
            got = [search(s_rows, r_rows, memo) for _, s_rows, r_rows in pairs]
        assert got == expected, required
        # one scan per hitting pair, one per class without a hit
        assert loops[0] == sum(hit >= 0 for _, hit in got) + len(memo), required
        scans += loops[0]

        first = [(idx, hit) for idx, (_, hit) in enumerate(expected) if hit >= 0][:1]
        chunk_args = (need, forbid, GOALS[goal], d_size or 0, allow_top, pairs)
        assert _search_chunk(chunk_args) == first, required
        hits += len(first)
    # some searches hit and some exhaust the space
    assert 0 < hits < len(_SEARCHES)
    assert scans < len(pairs) * len(_SEARCHES)


_WORKER = r"""
import json
from chaincover.poset import make_poset
from chaincover.search import WitnessSearchSpec, search_witness
from chaincover.specmap import make_spectral_map, properties_summary
from chaincover.theorems import TheoremId, exhaustive_verify
from chaincover import _kernels as K

out = {"numba": K.NUMBA_ENABLED}

v = exhaustive_verify(TheoremId.C_EQUIVALENT, 2, 3)
out["equiv"] = [v.holds, v.instances_checked]

v = exhaustive_verify(TheoremId.T_COVER_MAXCHAIN, 1, 2, waive_hypotheses=True)
out["waived"] = [v.holds, v.instances_checked, v.note,
                 v.counterexample.detail["code"]]

s = make_poset(["p1", "p2", "p3"], [("p1", "p2"), ("p2", "p3")])
r = make_poset(
    ["l1", "x1", "m2", "u2", "x3", "u3"],
    [("l1", "m2"), ("m2", "x3"), ("x1", "x3"), ("x1", "u2"), ("u2", "u3")],
)
to_s = {"l1": "p1", "x1": "p1", "m2": "p2", "u2": "p2", "x3": "p3", "u3": "p3"}
m = make_spectral_map(s, r, [s.index(to_s[lab]) for lab in r.labels])
out["witness_props"] = properties_summary(m)

spec = WitnessSearchSpec(required=frozenset({"GU"}), goal="lo-fails",
                         max_s=3, max_r=2)
w = search_witness(spec)
out["search"] = w.describe()

print(json.dumps(out))
"""


def _run_worker(no_numba: bool) -> dict:
    env = dict(os.environ)
    env["CHAINCOVER_NO_NUMBA"] = "1" if no_numba else "0"
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fallback_path_agrees_with_compiled_path():
    flipped = _run_worker(no_numba=K.NUMBA_ENABLED)
    here = {"numba": K.NUMBA_ENABLED}
    from chaincover.poset import make_poset
    from chaincover.search import WitnessSearchSpec, search_witness
    from chaincover.specmap import make_spectral_map, properties_summary
    from chaincover.theorems import TheoremId, exhaustive_verify

    v = exhaustive_verify(TheoremId.C_EQUIVALENT, 2, 3)
    here["equiv"] = [v.holds, v.instances_checked]
    v = exhaustive_verify(TheoremId.T_COVER_MAXCHAIN, 1, 2, waive_hypotheses=True)
    here["waived"] = [
        v.holds, v.instances_checked, v.note, v.counterexample.detail["code"],
    ]
    s = make_poset(["p1", "p2", "p3"], [("p1", "p2"), ("p2", "p3")])
    r = make_poset(
        ["l1", "x1", "m2", "u2", "x3", "u3"],
        [("l1", "m2"), ("m2", "x3"), ("x1", "x3"), ("x1", "u2"), ("u2", "u3")],
    )
    to_s = {
        "l1": "p1", "x1": "p1", "m2": "p2", "u2": "p2", "x3": "p3", "u3": "p3",
    }
    m = make_spectral_map(s, r, [s.index(to_s[lab]) for lab in r.labels])
    here["witness_props"] = properties_summary(m)
    spec = WitnessSearchSpec(
        required=frozenset({"GU"}), goal="lo-fails", max_s=3, max_r=2
    )
    here["search"] = search_witness(spec).describe()

    if K.NUMBA_ENABLED:
        assert flipped["numba"] is False
    for key in ("equiv", "waived", "witness_props", "search"):
        assert flipped[key] == here[key], key
