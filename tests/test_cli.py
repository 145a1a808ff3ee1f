"""CLI tests: subcommands, exit codes, and report determinism."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import chaincover
from chaincover.cli import build_parser, main

SRC = str(pathlib.Path(chaincover.__file__).parents[1])
SAMPLES = pathlib.Path(__file__).parents[1] / "sample_instances"


@pytest.fixture
def z6z2_path(tmp_path):
    path = tmp_path / "z6z2.json"
    path.write_text('{"name": "z6-to-z2", "ring": "hom(m=6, target=Zn(2), e=1)"}\n')
    return str(path)


@pytest.fixture
def diamond_path(tmp_path):
    payload = {
        "s": {
            "labels": ["bot", "a", "b", "top"],
            "pairs": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]],
        },
        "r": {
            "labels": ["bot", "a", "b", "top"],
            "pairs": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]],
        },
        "map": {"bot": "bot", "a": "a", "b": "b", "top": "top"},
    }
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_identity_all_true(self, capsys, diamond_path):
        code, out, _ = run_cli(capsys, "check", diamond_path)
        assert code == 0
        report = json.loads(out)
        assert all(report["properties"].values())
        assert report["layers"] == {"1": True, "2": True, "3": True}

    def test_ring_instance_reports_without_judging(self, capsys, z6z2_path):
        code, out, _ = run_cli(capsys, "check", z6z2_path)
        assert code == 0
        report = json.loads(out)
        assert report["properties"]["LO"] is False
        assert report["properties"]["GU"] is True

    def test_text_mode(self, capsys, z6z2_path):
        code, out, _ = run_cli(capsys, "check", z6z2_path, "--text")
        assert code == 0
        assert "LO: false" in out
        assert "layer-1: false" in out

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"ring": "hom(m=6, target=Zn(2), e=1)"}'),
        )
        code, out, _ = run_cli(capsys, "check", "-")
        assert code == 0
        assert json.loads(out)["properties"]["unitary"] is True

    def test_max_layer(self, capsys, diamond_path):
        code, out, _ = run_cli(capsys, "check", diamond_path, "--max-layer", "5")
        assert code == 0
        assert list(json.loads(out)["layers"]) == ["1", "2", "3", "4", "5"]

    def test_max_layer_zero_reports_no_layer(self, capsys, diamond_path):
        code, out, _ = run_cli(capsys, "check", diamond_path, "--max-layer", "0")
        assert code == 0
        assert json.loads(out)["layers"] == {}

    def test_negative_max_layer_is_an_error(self, capsys, diamond_path):
        code, out, err = run_cli(capsys, "check", diamond_path, "--max-layer", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "max layer" in err

    def test_deep_nesting_is_a_syntax_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == "error: document nests too deeply (line 1, column 100000)\n"


class TestVerify:
    def test_instance_all_core(self, capsys, diamond_path):
        code, out, _ = run_cli(capsys, "verify", diamond_path)
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "instance"
        assert report["all_hold"] is True
        assert len(report["theorems"]) == 15

    def test_exhaustive_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--exhaustive", "--max-s", "2", "--max-r", "2",
            "--theorems", "C_EQUIVALENT",
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "exhaustive"
        assert report["bounds"] == {"max_s": 2, "max_r": 2, "allow_top": True}
        assert report["theorems"][0]["instances_checked"] == 91

    def test_no_top_shrinks_the_space(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--exhaustive", "--max-s", "2", "--max-r", "2",
            "--no-top", "--theorems", "C_EQUIVALENT",
        )
        assert code == 0
        assert json.loads(out)["theorems"][0]["instances_checked"] < 91

    def test_waived_violation_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--exhaustive", "--max-s", "1", "--max-r", "2",
            "--theorems", "T_COVER_MAXCHAIN", "--debug-waive-hypotheses",
        )
        assert code == 1
        report = json.loads(out)
        assert report["all_hold"] is False
        cx = report["theorems"][0]["counterexample"]
        assert cx["violation"]["waived"] is True

    def test_reports_byte_identical_across_jobs(self, capsys, monkeypatch, empty_orbits):
        # three usable CPUs, so jobs=3 really splits the classes three ways;
        # one process, a cold orbit table and the most jobs first, so later
        # runs read the entries that earlier children handed back
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        for flags, want_code in (
            ((), 0),
            (("--debug-waive-hypotheses",), 1),
            (("--debug-waive-hypotheses", "--no-top"), 1),
        ):
            outputs = set()
            for jobs in ("3", "2", "1"):
                code, out, _ = run_cli(
                    capsys, "verify", "--exhaustive", "--theorems", "all",
                    "--max-s", "3", "--max-r", "4", "--jobs", jobs, *flags,
                )
                assert code == want_code, (flags, jobs)
                outputs.add(out)
            assert len(outputs) == 1, flags

    def test_out_of_range_bound_exits_before_enumerating(self, capsys):
        # listing the labeled posets of nine elements would run for hours
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "verify", "--exhaustive", "--max-s", "9", "--max-r", "2"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == "error: sweep bounds must lie in 0..5, got (9, 2)\n"

    def test_unknown_theorem(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--exhaustive", "--theorems", "NOPE",
            "--max-s", "1", "--max-r", "1",
        )
        assert code == 2
        assert "unknown theorem" in err

    def test_needs_instance_or_exhaustive(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "instance document or --exhaustive" in err

    def test_instance_with_exhaustive_exits_two(self, capsys, diamond_path):
        code, out, err = run_cli(
            capsys, "verify", diamond_path, "--exhaustive", "--max-s", "1", "--max-r", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: verify takes an instance document or --exhaustive, not both\n"

    def test_seed_is_not_an_option(self, capsys):
        # only search reports a seed; verify has none to take
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "1", "--exhaustive", "--max-s", "1", "--max-r", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_cost_gate(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--exhaustive", "--max-s", "4", "--max-r", "5",
            "--theorems", "C_EQUIVALENT",
        )
        assert code == 2
        assert "--unsafe-bounds" in err

    def test_text_mode(self, capsys, diamond_path):
        code, out, _ = run_cli(
            capsys, "verify", diamond_path, "--theorems", "P_LAYERS", "--text"
        )
        assert code == 0
        assert "P_LAYERS: holds" in out
        assert "all hold" in out


class TestSearch:
    def test_witness_found_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--goal", "lo-fails", "--require", "GU",
            "--max-s", "3", "--max-r", "2",
        )
        assert code == 1
        report = json.loads(out)
        assert report["found"] is True
        assert report["witness"]["s"]["labels"] == ["e0", "e1"]
        assert report["witness"]["r"]["labels"] == ["e0"]
        assert report["witness"]["map"] == {"e0": "e0"}

    def test_no_witness_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--goal", "lo-fails", "--require", "LO",
            "--max-s", "2", "--max-r", "2",
        )
        assert code == 0
        assert json.loads(out)["found"] is False

    def test_reports_byte_identical_across_jobs(self, capsys):
        outputs = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "search", "--goal", "maximal-dchain-not-perfect-cover",
                "--require", "UNITARY", "--max-s", "2", "--max-r", "3",
                "--jobs", jobs,
            )
            outputs.append((code, out))
        assert outputs[0] == outputs[1]

    def test_out_of_range_bound_exits_before_enumerating(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "search", "--require", "GU", "--goal", "lo-fails",
            "--max-s", "9", "--max-r", "2",
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err == "error: search bounds must lie in 1..5, got (9, 2)\n"
        assert out == ""

    def test_bad_flag_name(self, capsys):
        code, _, err = run_cli(
            capsys, "search", "--goal", "lo-fails", "--require", "WHAT",
            "--max-s", "2", "--max-r", "2",
        )
        assert code == 2
        assert "error:" in err

    def test_contradictory_flags_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--require", "GU,!GU", "--goal", "lo-fails",
            "--max-s", "3", "--max-r", "5",
        )
        assert (code, out) == (2, "")
        assert err == "error: property flag 'GU' is both required and forbidden\n"
        code, out, err = run_cli(
            capsys, "search", "--require", "!!GU", "--goal", "lo-fails",
            "--max-s", "2", "--max-r", "2",
        )
        assert (code, out, err) == (2, "", "error: unknown property flag '!!GU'\n")

    def test_d_size(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--goal", "maximal-dchain-not-cover",
            "--require", "UNITARY,LO,GU,GD,!SGB", "--max-s", "3", "--max-r", "3",
            "--d-size", "3",
        )
        assert code == 0
        assert json.loads(out)["found"] is False

    def test_d_size_with_the_lo_goal_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--require", "GU", "--goal", "lo-fails", "--d-size", "3",
            "--max-s", "2", "--max-r", "2",
        )
        assert (code, out) == (2, "")
        assert err == "error: d_size applies to chain goals only, not to 'lo-fails'\n"

    def test_d_size_above_max_s_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--require", "GU", "--goal", "maximal-dchain-not-cover",
            "--d-size", "4", "--max-s", "3", "--max-r", "3",
        )
        assert (code, out, err) == (2, "", "error: --d-size 4 exceeds --max-s 3\n")


class TestSpec:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "spec", "Zn(12)")
        assert code == 0
        report = json.loads(out)
        assert report["labels"] == ["2Z12", "3Z12"]

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "spec", "Product(Zn(2),Zn(3))", "--text")
        assert code == 0
        assert "2Z2xZ3" in out and "Z2x3Z3" in out

    def test_bad_expression(self, capsys):
        code, _, err = run_cli(capsys, "spec", "Zn(nope)")
        assert code == 2
        assert "error:" in err

    def test_deep_nesting_is_a_syntax_error(self, capsys, tmp_path):
        ring = "Product(" * 5000 + "Zn(2)" + ")" * 5000
        path = tmp_path / "deep_ring.json"
        path.write_text(json.dumps({"ring": f"hom(m=2, target={ring}, e=1)"}))
        for argv in (("spec", ring), ("check", str(path))):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            # the column is where the stack ran out, inside the nesting
            assert err.startswith("error: ring expression nests too deeply (line 1, column ")

    def test_a_modulus_past_the_bound_exits_two(self, capsys):
        # a large prime would be factored by trial division up to its root
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "spec", "Product(Zn(2), Zn(1000000000000000003))")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            "error: ring modulus must be at most 1000000000,"
            " got 1000000000000000003 (line 1, column 19)\n"
        )
        assert run_cli(capsys, "spec", "Zn(1000000000)")[0] == 0

    def test_an_overlong_integer_exits_two(self, capsys):
        # int() would refuse 5,000 digits without a position
        code, out, err = run_cli(capsys, "spec", "Product(Zn(2), Zn(" + "9" * 5000 + "))")
        assert (code, out) == (2, "")
        assert err == "error: integer has more than 100 digits (line 1, column 19)\n"
        # a run of 100 digits is read, and refused as a modulus
        code, _, err = run_cli(capsys, "spec", "Zn(" + "9" * 100 + ")")
        assert code == 2 and err.startswith("error: ring modulus must be at most 1000000000,")

    def test_an_overlong_integer_in_a_document_exits_two(self, capsys, tmp_path):
        # json.loads would refuse 5,000 digits without a position; digits in
        # strings and a long float before them are not integers
        path = tmp_path / "seed.json"
        path.write_text(
            '{"name": "' + "7" * 5000 + '", "violation": {"x": 0.' + "5" * 5000 + "},\n"
            ' "seed": -' + "9" * 5000 + ', "ring": "hom(m=6, target=Zn(2), e=0)"}\n'
        )
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == "error: integer has more than 4300 digits (line 2, column 11)\n"


class TestRingPositions:
    """Errors inside a document's "ring" string are placed in the document."""

    def run_check(self, capsys, tmp_path, text):
        path = tmp_path / "ring.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        return err

    def test_syntax_error_in_the_ring_string(self, capsys, tmp_path):
        text = '{\n  "name": "bad",\n  "ring": "hom(m=6, target=Zn(2), e=oops)"\n}\n'
        err = self.run_check(capsys, tmp_path, text)
        assert err == "error: expected an integer (line 3, column 37)\n"
        # the grammar alone counts from the start of the expression
        code, _, err = run_cli(capsys, "spec", "Product(Zn(2),oops)")
        assert (code, err) == (2, "error: expected Zn or Product (line 1, column 15)\n")

    def test_a_string_with_escapes_reports_its_opening_quote(self, capsys, tmp_path):
        text = '{\n  "name": "bad",\n  "ring": "hom(m=6, target=Zn(2), e=\\u006fops)"\n}\n'
        err = self.run_check(capsys, tmp_path, text)
        assert err == "error: expected an integer (line 3, column 11)\n"

    def test_the_last_top_level_ring_member_counts(self, capsys, tmp_path):
        # a nested "ring" and an earlier object value are passed over
        text = (
            '{"violation": {"ring": "x"}, "ring": {"a": "b"},\n'
            ' "ring":\n   "hom(m=6, target=Zn(1), e=1)"}\n'
        )
        err = self.run_check(capsys, tmp_path, text)
        assert err == "error: cyclic ring modulus must be at least 2, got 1 (line 3, column 21)\n"

    def test_a_modulus_past_the_bound_is_placed_at_the_number(self, capsys, tmp_path):
        for ring, column in (
            ("hom(m=1000000000000000003, target=Zn(2), e=0)", 17),
            ("hom(m=2, target=Zn(1000000000000000003), e=0)", 30),
        ):
            start = time.perf_counter()
            err = self.run_check(capsys, tmp_path, json.dumps({"ring": ring}))
            assert time.perf_counter() - start < 1
            assert err == (
                "error: ring modulus must be at most 1000000000,"
                f" got 1000000000000000003 (line 1, column {column})\n"
            ), ring

    def test_hom_errors_are_placed_at_their_value(self, capsys, tmp_path):
        # the source modulus at m=, every other make_hom error at e=; the
        # string starts at column 12 of line 3
        for ring, message, column in (
            ("hom(m=1, target=Zn(2), e=0)", "source modulus must be at least 2, got 1", 18),
            ("hom(m=4, target=Zn(2), e=99999999999)",
             "e must be a residue modulo 2, got 99999999999", 37),
            ("hom(m=3, target=Zn(2), e=1)",
             "3 * 1 is nonzero in Zn(2), so no hom out of Zn(3) sends 1 there", 37),
            ("hom(m=6, target=Product(Zn(2),Zn(3)), e=( 1,2))",
             "(1, 2) is not idempotent in Product(Zn(2),Zn(3))", 52),
            ("hom(m=6, target=Product(Zn(2),Zn(3)), e= 1)",
             "e must have one component per product factor", 53),
        ):
            text = '{\n  "name": "bad",\n  "ring": "' + ring + '"\n}\n'
            err = self.run_check(capsys, tmp_path, text)
            assert err == f"error: {message} (line 3, column {column})\n", ring


class TestExportDot:
    def test_dot_output(self, capsys, z6z2_path):
        code, out, _ = run_cli(capsys, "export-dot", z6z2_path)
        assert code == 0
        assert out.startswith("digraph instance {")
        assert "style=dashed" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "export-dot", "/nonexistent/x.json")
        assert code == 2
        assert "error:" in err


class TestJobsEnv:
    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINCOVER_JOBS", "2")
        code, out, _ = run_cli(
            capsys, "verify", "--exhaustive", "--max-s", "2", "--max-r", "2",
            "--theorems", "P_LAYERS",
        )
        assert code == 0
        assert json.loads(out)["theorems"][0]["instances_checked"] == 91

    def test_env_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINCOVER_JOBS", "zero")
        code, _, err = run_cli(
            capsys, "verify", "--exhaustive", "--max-s", "1", "--max-r", "1"
        )
        assert code == 2
        assert "CHAINCOVER_JOBS" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINCOVER_JOBS", "zero")
        code, _, _ = run_cli(
            capsys, "verify", "--exhaustive", "--max-s", "1", "--max-r", "1",
            "--jobs", "1", "--theorems", "P_LAYERS",
        )
        assert code == 0


class TestDogfooding:
    def test_counterexample_dump_replays_through_check(self, capsys, tmp_path):
        # run a waived sweep, write its counterexample out, feed it back in
        code, out, _ = run_cli(
            capsys, "verify", "--exhaustive", "--max-s", "1", "--max-r", "2",
            "--theorems", "T_COVER_MAXCHAIN", "--debug-waive-hypotheses",
        )
        assert code == 1
        dump = json.loads(out)["theorems"][0]["counterexample"]
        path = tmp_path / "cx.json"
        path.write_text(json.dumps(dump) + "\n")
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 0
        code, out, _ = run_cli(
            capsys, "verify", str(path), "--theorems", "T_COVER_MAXCHAIN",
            "--debug-waive-hypotheses",
        )
        assert code == 1
        replay = json.loads(out)["theorems"][0]["counterexample"]
        assert replay["violation"]["code"] == dump["violation"]["code"]


class TestSharedParser:
    # each call's argv, among them an argparse error that exits 2
    CALLS = (
        ("verify", "--exhaustive", "--max-s", "2", "--max-r", "2", "--theorems", "all"),
        ("search", "--require", "GU", "--goal", "lo-fails", "--max-s", "2", "--max-r", "2"),
        ("verify", "--exhaustive", "--max-s", "two"),
        ("verify", "--exhaustive", "--max-s", "1", "--max-r", "2", "--text",
         "--theorems", "T_COVER_MAXCHAIN", "--debug-waive-hypotheses"),
    )

    def outcomes(self, capsys, fresh):
        out = []
        for argv in self.CALLS:
            if fresh:
                build_parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_one_parser_answers_like_fresh_ones(self, capsys):
        shared = self.outcomes(capsys, fresh=False)
        assert build_parser() is build_parser()
        assert shared == self.outcomes(capsys, fresh=True)
        assert [code for code, _, _ in shared] == [0, 1, 2, 1]
        assert "invalid int value: 'two'" in shared[2][2]


def _python(*args):
    """Run a fresh interpreter on the package sources; stdout on success."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


# prints [exit code, stdout] per argv of argv[2]; argv[1] == "block" hides numpy
_RUN_MAIN = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from chaincover.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


class TestWithoutNumpy:
    def test_import_leaves_numpy_unloaded(self):
        script = "import sys, chaincover, chaincover.cli; print('numpy' in sys.modules)"
        assert _python("-c", script) == "False\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="pools spawn off Linux")
    def test_fork_pools_leave_multiprocessing_unloaded(self):
        # a jobs=2 sweep forks its own pool, without multiprocessing
        script = (
            "import sys, chaincover.cli\n"
            "from chaincover import TheoremId, exhaustive_verify\n"
            "exhaustive_verify(TheoremId.C_GGD, 2, 3, waive_hypotheses=True, jobs=2)\n"
            "print('multiprocessing' in sys.modules)"
        )
        assert _python("-c", script) == "False\n"

    def test_cli_runs_with_numpy_blocked(self):
        doc = str(SAMPLES / "z6_to_z2.json")
        calls = [
            ["verify", "--exhaustive", "--theorems", "all", "--max-s", "2", "--max-r", "2"],
            ["search", "--require", "GU", "--goal", "lo-fails", "--max-s", "2", "--max-r", "2"],
            ["search", "--require", "UNITARY", "--goal", "maximal-dchain-not-perfect-cover",
             "--max-s", "2", "--max-r", "3"],
            ["check", doc],
            ["verify", "--theorems", "all", doc],
            ["spec", "Zn(12)"],
            ["export-dot", doc],
        ]
        blocked = json.loads(_python("-c", _RUN_MAIN, "block", json.dumps(calls)))
        loaded = json.loads(_python("-c", _RUN_MAIN, "load", json.dumps(calls)))
        assert blocked == loaded
        assert [code for code, _ in blocked] == [0, 1, 1, 0, 0, 0, 0]
