"""The benchmark's full-size report digests, read from perfbench/reference.json.

The sweep reports of `verify --exhaustive --theorems <id> --jobs 1` at (3, 3)
and (2, 4), run through cli.main, and the waived jobs=2 sweep reports at
(3, 3), must have the bytes whose sha256 the reference file pins. Only the
file is read; the benchmark's own code is not imported.
"""

import hashlib
import json
import os
import pathlib
import sys

import pytest

from chaincover import cli
from chaincover.document import build_verify_report, serialize_report
from chaincover.theorems import TheoremId, exhaustive_verify

REFERENCE = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text()
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("bounds", [(3, 3), (2, 4)])
def test_sweep_reports_match_the_reference_digests(capsys, bounds):
    max_s, max_r = bounds
    want = REFERENCE["sweep"][f"{max_s},{max_r}"]
    for theorem in TheoremId:
        argv = ["verify", "--exhaustive", "--theorems", theorem.name,
                "--max-s", str(max_s), "--max-r", str(max_r), "--jobs", "1"]
        assert cli.main(argv) == 0, theorem.name
        text = capsys.readouterr().out
        (entry,) = json.loads(text)["theorems"]
        assert entry["holds"] and entry["instances_checked"] == want["instances_checked"]
        assert _sha256(text) == want["sha256"][theorem.name], theorem.name


def test_waived_pool_reports_match_the_reference_digests(monkeypatch):
    # two usable CPUs, so jobs=2 forks a child on any host
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    want = REFERENCE["waived"]["3,3"]
    for theorem in TheoremId:
        verdict = exhaustive_verify(theorem, 3, 3, waive_hypotheses=True, jobs=2)
        text = serialize_report(build_verify_report(
            None, [verdict], bounds={"max_s": 3, "max_r": 3, "allow_top": True},
        ))
        ref = want[theorem.name]
        got = (verdict.holds, verdict.instances_checked, verdict.note)
        assert got == (ref["holds"], ref["instances_checked"], ref["note"]), theorem.name
        assert _sha256(text) == ref["sha256"], theorem.name
