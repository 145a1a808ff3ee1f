"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The lines bypass output capture, so they stream with or without -s.

Criterion 4a shows that SGB cannot be dropped from the perfect-cover
theorem: a unitary map with LO, GU and GD but without SGB can have a
maximal D-chain over a 3-element chain D that does not cover D. The
exhaustive search within |s| <= 3, |r| <= 5 correctly finds no such
instance, because none exists there:

- d_size=3 and |s| <= 3 force s to be the 3-chain p1 < p2 < p3, and D = s.
- Every chain of r is then a D-chain, so a maximal D-chain C is a maximal
  chain of r.
- Suppose C misses a layer. GU at its top and GD at its bottom would extend
  C, so its top lies over p3 and its bottom over p1. C thus contains
  x1 < x3 over p1 and p3, and nothing over p2 is comparable to both.
- GU at x1 gives u2 > x1 over p2, and u2 is not below x3.
- GD at x3 gives m2 < x3 over p2, and m2 is not above x1.
- GU at u2 needs an element over p3 above u2. It cannot be x3, so it is a
  new element u3.
- GD at m2 needs an element over p1 below m2. It cannot be x1, so it is a
  new element l1.

That makes six elements upstairs, before SGB or unitarity is asked for.
The criterion asserts the empty result at (3, 5), then checks that the
kernel search finds the six-element instance in
sample_instances/sgb_necessity.json, that the hit replays to a witness, and
that shrinking keeps all six elements. tests/test_theorems.py,
TestMaximalChainWitnessBounds, confirms the empty result by a brute-force
oracle that uses none of chaincover's code.
"""

import contextlib
import io
import json
import pathlib
import time
from itertools import combinations

import numpy as np
import pytest

from chaincover import _kernels as K
from chaincover.cli import main as cli_main
from chaincover.document import build_verify_report, parse_instance, serialize_report
from chaincover.poset import enumerate_chains, enumerate_posets
from chaincover.rings import (
    Product,
    Zn,
    check_extension_LO_lemma,
    check_kernel_LO_lemma,
    enumerate_homs,
    make_hom,
    spec,
    to_spectral_map,
)
from chaincover.search import (
    GOALS,
    WitnessSearchSpec,
    _flag_masks,
    flags_hold,
    goal_holds,
    search_witness,
    shrink,
)
from chaincover.specmap import check_layer, properties_summary
from chaincover.theorems import TheoremId, exhaustive_verify, instance_from_raw, verify

BOUNDS = dict(max_s=3, max_r=4)
EQUIVALENCE_INSTANCES = 287430  # frozen from the canonical enumeration
SGB_NECESSITY_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "sample_instances"
    / "sgb_necessity.json"
)


_CONSOLE = None


@pytest.fixture(autouse=True)
def _live_console(capsys):
    # lets _report bypass capture so every line reaches the terminal
    global _CONSOLE
    _CONSOLE = capsys
    yield
    _CONSOLE = None


def _report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CONSOLE is None:
        print(line)
    else:
        with _CONSOLE.disabled():
            print(line, flush=True)


def test_criterion_1_equivalence_sweep():
    t0 = time.perf_counter()
    v1 = exhaustive_verify(TheoremId.C_EQUIVALENT, **BOUNDS, jobs=1)
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    v4 = exhaustive_verify(TheoremId.C_EQUIVALENT, **BOUNDS, jobs=4)
    t4 = time.perf_counter() - t0
    bounds = {"max_s": 3, "max_r": 4, "allow_top": True}
    r1 = serialize_report(build_verify_report(None, [v1], bounds=bounds))
    r4 = serialize_report(build_verify_report(None, [v4], bounds=bounds))
    ok = (
        v1.holds
        and v1.instances_checked == EQUIVALENCE_INSTANCES
        and t1 < 600
        and t4 < 180
        and r1 == r4
    )
    _report(
        "1",
        ok,
        f"C_EQUIVALENT holds on {v1.instances_checked} instances "
        f"(1 worker {t1:.1f}s, 4 workers {t4:.1f}s, reports identical: {r1 == r4})",
    )
    assert v1.holds and v4.holds
    assert v1.instances_checked == EQUIVALENCE_INSTANCES
    assert v4.instances_checked == EQUIVALENCE_INSTANCES
    assert t1 < 600 and t4 < 180
    assert r1 == r4


def test_criterion_2_maximal_chain_theorems():
    v_cover = exhaustive_verify(TheoremId.T_COVER_MAXCHAIN, **BOUNDS)
    v_perfect = exhaustive_verify(TheoremId.C_PERFECT_MAXCHAIN, **BOUNDS)
    ok = v_cover.holds and v_perfect.holds
    _report(
        "2",
        ok,
        f"T_COVER_MAXCHAIN and C_PERFECT_MAXCHAIN hold on "
        f"{v_cover.instances_checked} instances",
    )
    assert v_cover.holds, v_cover.note
    assert v_perfect.holds, v_perfect.note


def test_criterion_3_characterization_biconditionals():
    ids = (
        TheoremId.P_MINI_GD,
        TheoremId.P_MINI_GU,
        TheoremId.P_MINI_SGB,
        TheoremId.P_LAYERS,
        TheoremId.L_LO_EXISTENCE,
        TheoremId.T_MAXDCHAIN_COVERS,
    )
    verdicts = [exhaustive_verify(t, **BOUNDS) for t in ids]
    ok = all(v.holds for v in verdicts)
    _report(
        "3",
        ok,
        "six biconditional sweeps hold on "
        f"{verdicts[0].instances_checked} instances each",
    )
    for v in verdicts:
        assert v.holds, (v.theorem, v.note)


def _strict_rows(p) -> tuple[int, ...]:
    # raw enumeration encoding: each row holds the elements strictly above
    return tuple(up & ~(1 << i) for i, up in enumerate(p.up_masks))


def test_criterion_4a_sgb_necessity_witness():
    witness_spec = WitnessSearchSpec(
        required=frozenset({"UNITARY", "LO", "GU", "GD", "!SGB"}),
        goal="maximal-dchain-not-cover",
        max_s=3,
        max_r=5,
        d_size=3,
    )
    # the forcing argument in the module docstring rules out any witness here
    none_within_five = search_witness(witness_spec, jobs=4) is None

    doc = parse_instance(SGB_NECESSITY_PATH.read_text())
    s, r = doc.smap.s_poset, doc.smap.r_poset
    need, forbid = _flag_masks(witness_spec.required)
    _, hit = K.search_pair(
        s.n,
        s.up_array(),
        r.n,
        r.up_array(),
        False,
        need,
        forbid,
        GOALS[witness_spec.goal],
        witness_spec.d_size,
    )

    def is_witness(m) -> bool:
        return flags_hold(m, witness_spec.required) and goal_holds(
            m, witness_spec.goal, d_size=witness_spec.d_size
        )

    replayed = None
    if hit >= 0:
        vec = K.monotone_maps(s.n, s.up_array(), r.n, r.up_array(), False)[hit]
        replayed = instance_from_raw(_strict_rows(s), _strict_rows(r), vec)
    replays = replayed is not None and is_witness(replayed)
    document_holds = is_witness(doc.smap)
    shrunk_size = shrink(replayed, is_witness).r_poset.n if replays else None
    ok = none_within_five and replays and document_holds and shrunk_size == 6
    _report(
        "4a",
        ok,
        "no unitary LO+GU+GD+!SGB instance with a non-covering maximal "
        f"D-chain (|D|=3) within |s|<=3, |r|<=5: {none_within_five}; "
        f"six-element witness: kernel hit at map {hit}, replays: {replays}, "
        f"shrinks to {shrunk_size} r elements",
    )
    assert none_within_five, (
        "the search found a witness within |s|<=3, |r|<=5, which the forcing "
        "argument rules out"
    )
    assert hit >= 0, "the kernel search misses the six-element witness"
    assert replays, "the kernel hit does not replay to a witness"
    assert document_holds, "sgb_necessity.json is not a witness"
    assert shrunk_size == 6


def test_criterion_4b_minimal_lo_failure_witness():
    witness_spec = WitnessSearchSpec(
        required=frozenset({"GU"}), goal="lo-fails", max_s=3, max_r=3
    )
    witness = search_witness(witness_spec)
    ok = (
        witness is not None
        and witness.s_poset.n == 2
        and witness.s_poset.order_pairs() == []
        and witness.r_poset.n == 1
        and flags_hold(witness, witness_spec.required)
        and goal_holds(witness, witness_spec.goal)
    )
    _report(
        "4b",
        ok,
        "minimal GU witness with LO failing is the 2-antichain under a "
        "1-point poset and replays to its violation",
    )
    assert ok


def test_criterion_5_ring_regressions():
    reduction = to_spectral_map(make_hom(6, Zn(2), 1))
    props = properties_summary(reduction)
    layer1 = check_layer(reduction, 1)
    embedding = to_spectral_map(make_hom(2, Product((Zn(2), Zn(2))), (1, 0)))
    embed_props = properties_summary(embedding)
    waived = verify(embedding, TheoremId.T_COVER_MAXCHAIN, waive_hypotheses=True)
    ok = (
        props["GU"] is True
        and props["INC"] is True
        and props["GD"] is True
        and props["SGB"] is True
        and props["LO"] is False
        and layer1 is False
        and embed_props["unitary"] is False
        and not waived.holds
        and waived.counterexample.detail["code"] == 1
    )
    _report(
        "5",
        ok,
        "Z6->Z2 reports GU,INC,GD,SGB true and LO,layer-1 false; "
        "Z2->Z2xZ2 (e=(1,0)) is non-unitary and, waived, exhibits the "
        "maximal chain contracting into TOP",
    )
    assert ok
    assert "TOP" in waived.counterexample.detail["clause"]


def test_criterion_6_ideal_lemma_sweep():
    t0 = time.perf_counter()
    targets = [Zn(n) for n in range(2, 31)]
    targets += [
        Product((Zn(a), Zn(b)))
        for a in range(2, 31)
        for b in range(2, 31)
    ]
    kernel_checks = 0
    extension_checks = 0
    failures = []
    for m in range(2, 31):
        for target in targets:
            for hom in enumerate_homs(m, target):
                v = check_kernel_LO_lemma(hom)
                kernel_checks += 1
                if not v.holds:
                    failures.append(("kernel", hom.describe()))
                if hom.unitary:
                    v = check_extension_LO_lemma(hom)
                    extension_checks += 1
                    if not v.holds:
                        failures.append(("extension", hom.describe()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300
    _report(
        "6",
        ok,
        f"{kernel_checks} kernel-lemma and {extension_checks} "
        f"extension-lemma checks, zero violations, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]
    assert elapsed < 300


def _prime_ideal_table(limit: int) -> np.ndarray:
    """table[d] = primality of dZ_n by the defining pair condition.

    Membership of a product in dZ_n depends only on residues mod d, so the
    ab-scan over Z_n reduces to the d x d residue table.
    """
    table = np.zeros(limit + 1, dtype=bool)
    for d in range(2, limit + 1):
        residues = np.arange(d)
        in_ideal = (residues[:, None] * residues[None, :]) % d == 0
        member = residues == 0
        bad = in_ideal & ~member[:, None] & ~member[None, :]
        table[d] = not bad.any()
    return table


def test_criterion_7_oracle_equivalence():
    table = _prime_ideal_table(1000)
    spectrum_ok = True
    for n in range(2, 1001):
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        expected = sorted(d for d in divisors if table[d])
        got = sorted(
            int(label.split("Z")[0]) for label in spec(Zn(n)).labels
        )
        if got != expected:
            spectrum_ok = False
            break

    chains_ok = True
    checked = 0
    for size in range(6):
        for p in enumerate_posets(size):
            brute = sum(
                1
                for k in range(p.n + 1)
                for subset in combinations(range(p.n), k)
                if all(
                    p.leq[a, b] or p.leq[b, a] for a, b in combinations(subset, 2)
                )
            )
            if sum(1 for _ in enumerate_chains(p, include_empty=True)) != brute:
                chains_ok = False
                break
            checked += 1

    ok = spectrum_ok and chains_ok
    _report(
        "7",
        ok,
        f"spec(Zn(n)) matches the pair-condition oracle for n <= 1000; "
        f"chain counts match the power-set scan on {checked} posets",
    )
    assert spectrum_ok
    assert chains_ok


def _cli_stdout(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_8_deterministic_reports():
    verify_outputs = []
    for jobs in ("1", "4"):
        code, out = _cli_stdout([
            "verify", "--exhaustive", "--max-s", "2", "--max-r", "3",
            "--jobs", jobs,
        ])
        assert code == 0
        verify_outputs.append(out)
    search_outputs = []
    for jobs in ("1", "3"):
        code, out = _cli_stdout([
            "search", "--goal", "lo-fails", "--require", "GU,GD",
            "--max-s", "3", "--max-r", "3", "--jobs", jobs,
        ])
        assert code == 1
        search_outputs.append(out)
    ok = (
        verify_outputs[0] == verify_outputs[1]
        and search_outputs[0] == search_outputs[1]
    )
    _report(
        "8",
        ok,
        "verify and search reports are byte-identical across worker counts",
    )
    assert ok
    # and the search report's witness replays
    witness_doc = json.loads(search_outputs[0])["witness"]
    doc = parse_instance(json.dumps(witness_doc))
    assert goal_holds(doc.smap, "lo-fails")
