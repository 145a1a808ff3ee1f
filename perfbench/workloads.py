"""The three benchmark workloads, their seeded inputs and correctness gates.

Each workload has a `prepare` step that builds its inputs from the seed
outside the timed region, and a pass function that runs every input once
and checks every output. A pass is cut into segments of at least SEGMENT_S
seconds of calls, with a calibration between them (calibrate.py), and
returns a `PassResult`: calibrated and raw
wall time, the calibrated latency of each user-visible call, operations
attempted and failed, and theorem checks done.

- sweep: `chaincover verify --exhaustive --theorems <id> --jobs 1` through
  `cli.main`, once per theorem and bound: the sweeps `--theorems all` runs
  back to back, timed one by one. Seed-independent.
- witness: witness searches, waived exhaustive sweeps and shrinks, with a
  fork pool of JOBS workers where the program uses one.
- instances: object-level checks of seeded ring homomorphisms and random
  poset pairs, one instance at a time.

Functions of the program are looked up on their modules at call time, so a
tracer that replaces module attributes sees every call. The gates use
originals bound at import time instead, so checking an output adds no span
to a traced pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

import chaincover as cc
from chaincover import _kernels as K
from chaincover import cli
from chaincover import document as D
from chaincover import rings as R
from chaincover import search as S
from chaincover import theorems as T

WORKLOADS = ("sweep", "witness", "instances")

#: pool size of the witness workload: the CPU count of the reference host
JOBS = 2

#: CPUs the work of each workload runs on, and so the clock calibrates
CPUS = {"sweep": 1, "witness": JOBS, "instances": 1}

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: (required flags, goal, d_size): the first three exhaust the space with
#: no hit, the last three hit and shrink
SEARCHES = (
    ("UNITARY,LO,GU,GD,!SGB", "maximal-dchain-not-cover", 3),
    ("LO,GU,GD", "maximal-dchain-not-cover", None),
    ("UNITARY,LO,INC,GU,GD", "maximal-dchain-not-perfect-cover", None),
    ("GU", "lo-fails", None),
    ("LO,INC", "maximal-dchain-not-perfect-cover", None),
    ("!UNITARY,GU", "maximal-dchain-not-cover", None),
)

#: (required flags, goal) that seeded shrink inputs must meet
SHRINK_PREDICATES = (
    (("GU",), "lo-fails"),
    (("LO", "INC"), "maximal-dchain-not-perfect-cover"),
    (("!UNITARY",), "maximal-dchain-not-cover"),
)

#: seconds of calls between two calibrations
SEGMENT_S = 0.2

#: input sizes; "tiny" keeps the benchmark's own tests fast
SIZES = {
    "full": {
        "sweep_bounds": ((3, 3), (2, 4)),
        "search_bounds": (3, 4),
        "waived_bounds": (3, 3),
        "shrinks": 12,
        "shrink_r": (5, 7),
        "instances": 2200,
    },
    "tiny": {
        "sweep_bounds": ((1, 2),),
        "search_bounds": (2, 2),
        "waived_bounds": (1, 2),
        "shrinks": 2,
        "shrink_r": (3, 4),
        "instances": 24,
    },
}

_PROPERTY_BITS = {
    "LO": K.PROP_LO,
    "INC": K.PROP_INC,
    "GU": K.PROP_GU,
    "GD": K.PROP_GD,
    "SGB": K.PROP_SGB,
    "GB": K.PROP_GB,
    "unitary": K.PROP_UNITARY,
}

# gate-side originals, bound before any tracer is installed
_property_bits = K.property_bits
_verify = T.verify
_flags_hold = S.flags_hold
_goal_holds = S.goal_holds


class PassResult:
    """Outcome of one pass, with times scaled to nominal host speed."""

    def __init__(self, clock):
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.call_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.problems: list[str] = []
        self._clock = clock
        clock.restart()
        self._pending: list[float] = []
        self._segment_start = time.perf_counter()

    def record(self, seconds: float, ops: int, failed: int, problems=()):
        """One call: its raw latency, operations attempted and failed."""
        self._pending.append(seconds)
        self.attempted += ops
        self.failed += failed
        self.problems.extend(problems)

    def tick(self):
        """End the segment once it is SEGMENT_S long; call after each call."""
        if time.perf_counter() - self._segment_start >= SEGMENT_S:
            self.end_segment()

    def end_segment(self):
        """Calibrate, and scale the segment since the last one."""
        raw = time.perf_counter() - self._segment_start
        factor = self._clock.factor()
        self.raw_wall_s += raw
        self.wall_s += raw * factor
        self.call_s.extend(t * factor for t in self._pending)
        self._pending.clear()
        self._segment_start = time.perf_counter()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def bound_key(bounds) -> str:
    return ",".join(str(b) for b in bounds)


# ---------------------------------------------------------------------------
# sweep


def sweep_pass(size: dict, ref: dict, clock) -> PassResult:
    res = PassResult(clock)
    for max_s, max_r in size["sweep_bounds"]:
        key = bound_key((max_s, max_r))
        for theorem in T.TheoremId:
            argv = ["verify", "--exhaustive", "--theorems", theorem.name,
                    "--max-s", str(max_s), "--max-r", str(max_r), "--jobs", "1"]
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                elapsed = time.perf_counter() - t0
                problems, checks = check_sweep_report(key, theorem.name, code, buf.getvalue(), ref)
            except Exception as exc:  # a crash is a failed operation, not an abort
                res.record(time.perf_counter() - t0, 1, 1, [f"sweep {key} {theorem.name}: {exc!r}"])
            else:
                res.record(elapsed, 1, min(len(problems), 1), problems)
                res.checks += checks
            res.tick()
    res.end_segment()
    return res


def check_sweep_report(key: str, theorem: str, code: int, text: str, ref: dict):
    """(problems, checks) for the report of one theorem sweep."""
    want = ref["sweep"][key]
    (entry,) = json.loads(text)["theorems"]
    problems = []
    if not entry["holds"] or entry["instances_checked"] != want["instances_checked"]:
        problems.append(f"sweep {key}: {theorem} broke or miscounted")
    if code != 0:
        problems.append(f"sweep {key}: {theorem} exit code {code}")
    if sha256(text) != want["sha256"][theorem]:
        problems.append(f"sweep {key}: {theorem} report digest differs from the reference")
    return problems, entry["instances_checked"]


# ---------------------------------------------------------------------------
# witness


def search_key(required: str, goal: str, d_size) -> str:
    return f"{required}|{goal}|{d_size}"


def random_monotone_assignment(s, r, rng: random.Random, top_share: float) -> list:
    """A random order-preserving assignment r -> s + TOP.

    Element indices of a Poset follow a linear extension, so each element
    only has to sit above the values of its predecessors, and TOP always
    does.
    """
    assignment: list = []
    for q in range(r.n):
        below = [assignment[p] for p in range(q) if r.leq[p, q]]
        if any(v is cc.TOP for v in below):
            assignment.append(cc.TOP)
            continue
        fits = [v for v in range(s.n) if all(s.leq[b, v] for b in below)]
        if not fits or rng.random() < top_share:
            assignment.append(cc.TOP)
        else:
            assignment.append(rng.choice(fits))
    return assignment


def prepare_witness(seed: int, size: dict) -> list:
    """Seeded shrink inputs: random instances that meet a flag+goal predicate."""
    rng = random.Random(f"witness:{seed}")
    lo, hi = size["shrink_r"]
    inputs = []
    while len(inputs) < size["shrinks"]:
        flags, goal = SHRINK_PREDICATES[len(inputs) % len(SHRINK_PREDICATES)]
        s = cc.random_poset(rng.randint(1, 3), rng.randrange(2**32))
        r = cc.random_poset(rng.randint(lo, hi), rng.randrange(2**32))
        m = cc.make_spectral_map(s, r, random_monotone_assignment(s, r, rng, 0.2))
        if _flags_hold(m, flags) and _goal_holds(m, goal):
            inputs.append((m, flags, goal))
    return inputs


def witness_pass(size: dict, ref: dict, shrink_inputs: list, clock) -> PassResult:
    res = PassResult(clock)
    max_s, max_r = size["search_bounds"]
    search_ref = ref["search"][bound_key((max_s, max_r))]
    for required, goal, d_size in SEARCHES:
        key = search_key(required, goal, d_size)
        spec = S.WitnessSearchSpec(
            required=frozenset(required.split(",")), goal=goal,
            max_s=max_s, max_r=max_r, d_size=d_size,
        )
        t0 = time.perf_counter()
        try:
            witness = S.search_witness(spec, jobs=JOBS)
            text = D.serialize_report(D.build_search_report(spec, witness))
            elapsed = time.perf_counter() - t0
        except Exception as exc:
            res.record(time.perf_counter() - t0, 1, 1, [f"search {key}: {exc!r}"])
        else:
            want = search_ref[key]
            problems = []
            if (witness is not None) != want["found"] or sha256(text) != want["sha256"]:
                problems.append(f"search {key}: outcome or witness bytes differ from the reference")
            res.record(elapsed, 1, len(problems), problems)
        res.tick()

    bounds = size["waived_bounds"]
    waived_ref = ref["waived"][bound_key(bounds)]
    for theorem in T.TheoremId:
        t0 = time.perf_counter()
        try:
            verdict = T.exhaustive_verify(
                theorem, *bounds, waive_hypotheses=True, jobs=JOBS
            )
            text = D.serialize_report(D.build_verify_report(
                None, [verdict],
                bounds={"max_s": bounds[0], "max_r": bounds[1], "allow_top": True},
            ))
            elapsed = time.perf_counter() - t0
            problems = check_waived(theorem, verdict, text, waived_ref[theorem.name])
        except Exception as exc:
            res.record(time.perf_counter() - t0, 1, 1, [f"waived {theorem.name}: {exc!r}"])
        else:
            res.record(elapsed, 1, min(len(problems), 1), problems)
            res.checks += verdict.instances_checked
        res.tick()

    for m, flags, goal in shrink_inputs:
        t0 = time.perf_counter()
        try:
            out = S.shrink(m, lambda x: S.flags_hold(x, flags) and S.goal_holds(x, goal))
            elapsed = time.perf_counter() - t0
            problems = []
            if not (_flags_hold(out, flags) and _goal_holds(out, goal)):
                problems.append(f"shrink {flags} {goal}: result misses its predicate")
            if out.r_poset.n > m.r_poset.n or out.s_poset.n > m.s_poset.n:
                problems.append(f"shrink {flags} {goal}: result grew")
        except Exception as exc:
            res.record(time.perf_counter() - t0, 1, 1, [f"shrink {flags} {goal}: {exc!r}"])
        else:
            res.record(elapsed, 1, min(len(problems), 1), problems)
        res.tick()
    res.end_segment()
    return res


def check_waived(theorem, verdict, text: str, want: dict) -> list[str]:
    problems = []
    got = (verdict.holds, verdict.instances_checked, verdict.note)
    if got != (want["holds"], want["instances_checked"], want["note"]):
        problems.append(f"waived {theorem.name}: verdict {got} differs from the reference")
    if sha256(text) != want["sha256"]:
        problems.append(f"waived {theorem.name}: report digest differs from the reference")
    cx = verdict.counterexample
    if cx is not None and _verify(cx.smap, theorem, waive_hypotheses=True).holds:
        problems.append(f"waived {theorem.name}: counterexample does not replay")
    return problems


# ---------------------------------------------------------------------------
# instances


def _idempotents_killed_by(m: int, n: int) -> list[int]:
    return [e for e in range(n) if e * e % n == e and m * e % n == 0]


def prepare_instances(seed: int, size: dict) -> list:
    """Seeded ring homomorphisms and random poset pairs, alternating.

    Ring homs go Z_m -> Z_n or Z_a x Z_b with every modulus in 2..30; the
    idempotent is drawn here by brute force, independently of the package.
    Poset pairs have |s| <= 5 and |r| <= 6 and a random monotone map with
    TOP allowed.
    """
    rng = random.Random(f"instances:{seed}")
    inputs = []
    for k in range(size["instances"]):
        if k % 2 == 0:
            m = rng.randint(2, 30)
            if rng.random() < 0.5:
                target = R.Zn(rng.randint(2, 30))
                choices = _idempotents_killed_by(m, target.n)
                e = rng.choice(choices)
                expected_homs = len(choices)
            else:
                target = R.Product((R.Zn(rng.randint(2, 30)), R.Zn(rng.randint(2, 30))))
                per_factor = [_idempotents_killed_by(m, f.n) for f in target.factors]
                e = tuple(rng.choice(c) for c in per_factor)
                expected_homs = len(per_factor[0]) * len(per_factor[1])
            inputs.append(("ring", cc.make_hom(m, target, e), expected_homs))
        else:
            s = cc.random_poset(rng.randint(1, 5), rng.randrange(2**32))
            r = cc.random_poset(rng.randint(1, 6), rng.randrange(2**32))
            m = cc.make_spectral_map(s, r, random_monotone_assignment(s, r, rng, 0.15))
            inputs.append(("poset", m, None))
    return inputs


def instances_pass(inputs: list, clock) -> PassResult:
    res = PassResult(clock)
    for kind, item, expected_homs in inputs:
        t0 = time.perf_counter()
        try:
            if kind == "ring":
                homs = R.enumerate_homs(item.m, item.target)
                doc = D.document_for_hom(item)
            else:
                doc = D.document_for_map(item)
            text = cc.serialize_instance(doc)
            parsed = cc.parse_instance(text)
            again = cc.serialize_instance(parsed)
            check = D.build_check_report(parsed)
            verdicts = [cc.verify(parsed.smap, t) for t in T.TheoremId]
            D.serialize_report(D.build_verify_report(parsed, verdicts))
            lemmas = []
            if kind == "ring":
                lemmas.append(cc.check_kernel_LO_lemma(item))
                if item.unitary:
                    lemmas.append(cc.check_extension_LO_lemma(item))
            elapsed = time.perf_counter() - t0
            problems = []
            if again != text:
                problems.append(f"{kind} instance: document round trip changed bytes")
            broken = [v.theorem.name for v in verdicts if not v.holds]
            if broken:
                problems.append(f"{kind} instance: {', '.join(broken)} failed")
            if not all(v.holds for v in lemmas):
                problems.append(f"{kind} instance: an ideal lemma failed")
            if kind == "ring" and (item not in homs or len(homs) != expected_homs):
                problems.append(f"{kind} instance: enumerate_homs disagrees with brute force")
            disagree = property_disagreements(parsed.smap, check["properties"])
            if disagree:
                problems.append(
                    f"{kind} instance: properties_summary and property_bits disagree on {disagree}"
                )
        except Exception as exc:
            res.record(time.perf_counter() - t0, 1, 1, [f"{kind} instance: {exc!r}"])
        else:
            res.record(elapsed, 1, min(len(problems), 1), problems)
            res.checks += sum(v.instances_checked for v in verdicts)
        res.tick()
    res.end_segment()
    return res


def property_disagreements(smap, summary: dict) -> list[str]:
    bits = int(_property_bits(
        smap.s_poset.n, smap.s_poset.up_array(), smap.r_poset.n,
        smap.r_poset.up_array(), smap.cmap_array(),
    ))
    return [name for name, bit in _PROPERTY_BITS.items() if bool(bits & bit) != summary[name]]


# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, size: dict):
    if workload == "witness":
        return prepare_witness(seed, size)
    if workload == "instances":
        return prepare_instances(seed, size)
    return None


def run_pass(workload: str, size: dict, ref: dict, inputs, clock) -> PassResult:
    if workload == "sweep":
        return sweep_pass(size, ref, clock)
    if workload == "witness":
        return witness_pass(size, ref, inputs, clock)
    return instances_pass(inputs, clock)
