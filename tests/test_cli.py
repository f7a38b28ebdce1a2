"""CLI contract: outputs, exit codes, report determinism."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from matnorm import canonical_identity, trace_norm
from matnorm.cli import main
from matnorm.errors import InconsistencyError, InvalidInputError
from matnorm.serialize import complex_to_pairs
from matnorm.spaces import MAX_ID_DEPTH
from matnorm.suites import MAX_SUITE_N, run_suite

from helpers import OVERSIZED_ID_NAMES, OVERSIZED_IDS, forbid_bound_work, nested_id


DATA = Path(__file__).parent / "data"


def write_blocks(path, n, m, blocks):
    path.write_text(json.dumps({"n": n, "m": m, "blocks": complex_to_pairs(blocks)}))
    return str(path)


def write_coords(path, m, dim, coords):
    path.write_text(json.dumps({"m": m, "dim": dim, "coords": complex_to_pairs(coords)}))
    return str(path)


@pytest.fixture
def eye2_file(tmp_path):
    return write_blocks(tmp_path / "i2.json", 1, 2, np.eye(2).reshape(2, 2, 1, 1))


class TestNormCommand:
    def test_cmax_identity(self, eye2_file, capsys):
        assert main(["norm", "cmax", "2", eye2_file]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_cmin_identity(self, eye2_file, capsys):
        assert main(["norm", "cmin", "2", eye2_file]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_l1_coords(self, tmp_path, capsys):
        path = write_coords(tmp_path / "e.json", 1, 2, np.ones((1, 1, 2)))
        assert main(["norm", "l1:[cmax,cmax]", "1", path]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_twelve_significant_digits(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        coords = rng.standard_normal((2, 2, 1)) + 1j * rng.standard_normal((2, 2, 1))
        path = write_coords(tmp_path / "r.json", 2, 1, coords)
        assert main(["norm", "cmax", "2", path]) == 0
        out = capsys.readouterr().out.strip()
        expected = trace_norm(coords[:, :, 0])
        assert out == f"{expected:.12g}"

    def test_level_mismatch_exit_2(self, eye2_file, capsys):
        assert main(["norm", "cmax", "3", eye2_file]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_space_exit_2(self, eye2_file):
        assert main(["norm", "nope", "2", eye2_file]) == 2

    def test_bad_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["norm", "cmax", "1", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["norm", "cmax", "1", "/nonexistent/file.json"]) == 2

    def test_shape_mismatch_exit_2(self, tmp_path):
        path = write_blocks(tmp_path / "w.json", 2, 2, np.zeros((2, 2, 1, 1)))
        assert main(["norm", "op:2", "2", path]) == 2

    @pytest.mark.parametrize("sid", OVERSIZED_IDS, ids=OVERSIZED_ID_NAMES)
    def test_oversized_space_id_exit_2(self, sid, capsys):
        # the file's level-2 element fits every id here, so only the id can fail; these raised
        # RecursionError or int()'s ValueError: exit 4 with a traceback
        assert main(["norm", sid, "2", str(DATA / "element_cmax_m2.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_space_id_at_the_depth_bound(self, capsys):
        path = str(DATA / "element_cmax_m2.json")
        assert main(["norm", nested_id(MAX_ID_DEPTH), "2", path]) == 0
        assert capsys.readouterr().out.strip() == "4"
        assert main(["norm", nested_id(MAX_ID_DEPTH + 1), "2", path]) == 2

    def test_block_file_parsed_once(self, tmp_path, monkeypatch, capsys):
        import matnorm.cli as cli_mod

        load_json = cli_mod._load_json
        reads = []

        def counting(path):
            reads.append(path)
            return load_json(path)

        monkeypatch.setattr(cli_mod, "_load_json", counting)
        path = write_blocks(tmp_path / "flip.json", 2, 2, canonical_identity(2))
        assert main(["norm", "op:2", "2", path]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert reads == [path]


class TestHatBoundsCommand:
    def test_flip_bounds_text(self, tmp_path, capsys):
        path = write_blocks(tmp_path / "flip.json", 2, 2, canonical_identity(2))
        assert main(["hat-bounds", path, "--budget", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "lower=1 " in out and "upper=1 by rule realignment" in out

    def test_json_schema(self, tmp_path, capsys):
        path = write_blocks(tmp_path / "flip.json", 2, 2, canonical_identity(2))
        assert main(["hat-bounds", path, "--budget", "10", "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"n", "m", "lower", "upper", "rule", "certificate"}
        assert payload["n"] == 2 and payload["m"] == 2
        assert payload["lower"] <= payload["upper"] + 1e-9

    def test_n_mismatch_exit_2(self, tmp_path):
        path = write_blocks(tmp_path / "flip.json", 2, 2, canonical_identity(2))
        assert main(["hat-bounds", path, "--n", "3"]) == 2

    @pytest.mark.parametrize("n,m", [(True, True), (True, 1), (1, True), (1.0, 1), (1, 1.5)])
    def test_non_integer_sizes_exit_2(self, tmp_path, capsys, n, m):
        # a bool is an int to Python: {"n": true, "m": true} once ended in a traceback and exit 4
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"n": n, "m": m, "blocks": complex_to_pairs(np.ones((1, 1, 1, 1)))}))
        assert main(["hat-bounds", str(path)]) == 2
        assert "n and m must be positive integers" in capsys.readouterr().err

    def test_optimizer_config_json(self, tmp_path, capsys):
        path = write_blocks(tmp_path / "flip.json", 2, 2, canonical_identity(2))
        args = ["hat-bounds", path, "--budget", "5", "--seed", "3",
                "--opt-config", '{"restarts": 2, "iterations": 6}', "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"] <= 1.0 + 1e-9

    def test_bad_optimizer_config_exit_2(self, tmp_path):
        path = write_blocks(tmp_path / "flip.json", 2, 2, canonical_identity(2))
        assert main(["hat-bounds", path, "--opt-config", '{"bogus": 1}']) == 2
        assert main(["hat-bounds", path, "--opt-config", "not json"]) == 2

    @pytest.mark.parametrize("override", [
        '{"restarts": 1.5}', '{"iterations": "5"}', '{"stall_limit": null}',
        '{"iterations": -3}', '{"restarts": true}', '{"seed": 1}', '{"step_init": 0.1}',
        '{"restarts": 1000000000000000000}',
    ])
    def test_optimizer_override_validated_exit_2(self, tmp_path, capsys, override):
        path = write_blocks(tmp_path / "flip.json", 2, 2, canonical_identity(2))
        assert main(["hat-bounds", path, "--budget", "2", "--opt-config", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_subnormal_scale_blocks_exit_2(self, tmp_path, capsys):
        # below the smallest normal double the interval is not certified, so the input is refused
        path = write_blocks(tmp_path / "tiny.json", 2, 1, 1e-320 * canonical_identity(2)[:1, :1])
        assert main(["hat-bounds", path]) == 2
        err = capsys.readouterr().err
        assert "smallest normal double" in err and "Traceback" not in err

    def test_huge_integer_in_block_file_exit_2(self, tmp_path, capsys):
        # json refuses integer literals past 4,300 digits with a plain ValueError, not a JSONDecodeError
        path = tmp_path / "huge.json"
        path.write_text('{"n": ' + "7" * 5000 + ', "m": 1, "blocks": [[[[[1, 0]]]]]}')
        assert main(["hat-bounds", str(path)]) == 2
        err = capsys.readouterr().err
        assert "is not valid JSON" in err and "Traceback" not in err

    def test_restart_stack_past_its_bound_exit_2(self, tmp_path, capsys, monkeypatch):
        # op:17's stack of 10^4 restarts would take 11.8 GB: refused before any bound work
        forbid_bound_work(monkeypatch)
        path = write_blocks(tmp_path / "ones16.json", 16, 1, np.ones((1, 1, 16, 16)))
        assert main(["hat-bounds", path, "--opt-config", '{"restarts": 10000}']) == 2
        err = capsys.readouterr().err
        assert "restart stack" in err and "Traceback" not in err

    def test_huge_integer_in_optimizer_config_exit_2(self, tmp_path, capsys):
        path = write_blocks(tmp_path / "flip.json", 2, 2, canonical_identity(2))
        assert main(["hat-bounds", path, "--opt-config", '{"restarts": ' + "7" * 5000 + "}"]) == 2
        err = capsys.readouterr().err
        assert "bad optimizer config" in err and "Traceback" not in err

    def test_partial_override_builds_on_search_defaults(self, tmp_path, capsys):
        # restating one default must not reset the others
        rng = np.random.default_rng(102)
        u = rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))
        path = write_blocks(tmp_path / "g.json", 2, 3, u)
        outputs = []
        for extra in ([], ["--opt-config", '{"restarts": 2}']):
            assert main(["hat-bounds", path, "--seed", "2", "--json"] + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_inconsistency_exit_3(self, tmp_path, monkeypatch, capsys):
        import matnorm.cli as cli_mod

        def boom(*args, **kwargs):
            raise InconsistencyError("forced", lower=2.0, upper=1.0)

        monkeypatch.setattr(cli_mod, "hat_bounds", boom)
        path = write_blocks(tmp_path / "flip.json", 2, 2, canonical_identity(2))
        assert main(["hat-bounds", path]) == 3
        assert "forced" in capsys.readouterr().err

    def test_unexpected_error_exit_4(self, tmp_path, monkeypatch, capsys):
        import matnorm.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(cli_mod, "hat_bounds", boom)
        path = write_blocks(tmp_path / "flip.json", 2, 2, canonical_identity(2))
        assert main(["hat-bounds", path]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "internal error: RuntimeError('engine bug')" in err


class TestCheckedInExample:
    # blocks_n3_m2 is the default_rng(0) complex Gaussian at m = 2, n = 3, certified by an op:4 couple: its pull
    # has rank at most mn of nk, so the file pins the last bits of op:k's proposal; blocks_n3_m1 is the
    # default_rng(0) complex Gaussian at m = 1, n = 3, whose interval is the block's trace norm (thm6)
    @pytest.mark.parametrize("name", ["blocks_n2_m2", "blocks_n3_m2", "blocks_n3_m1"])
    def test_hat_bounds_json_matches_expected_file(self, name, capsys):
        # the console-script step in CI diffs the same pairs of files
        assert main(["hat-bounds", "--json", str(DATA / f"{name}.json")]) == 0
        assert capsys.readouterr().out == (DATA / f"{name}.expected.json").read_text()


class TestRejectedFiles:
    """Each malformed file or option reaches its own check: exit 2, one error line, no traceback."""

    @pytest.mark.parametrize("args,text,fragment", [
        (["hat-bounds", "FILE"], "[1]", "expected a JSON object"),
        (["hat-bounds", "FILE"], '{"n": 1, "m": 1}', "missing key 'blocks'"),
        (["norm", "op:3", "2", "FILE"], None, "dim 1 does not match op:3"),
        (["norm", "op:3", "1", "FILE"], '{"n": 2, "m": 1, "blocks": [[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]]}',
         "2 x 2 blocks do not fit op:3"),
        (["norm", "cmax", "1", "FILE"], '{"m": 1}', "expected key 'coords' or 'blocks'"),
        (["norm", "cmax", "2", "FILE"], '{"m": 3, "coords": [[[[1, 0]], [[0, 0]]], [[[0, 0]], [[1, 0]]]]}',
         "declared level 3 does not match data (2)"),
        # json's true and 1.0 passed as the size 1, and the element's norm was printed
        (["norm", "cmax", "1", "FILE"], '{"m": true, "coords": [[[[1, 0]]]]}', "declared level True does not match"),
        (["norm", "cmax", "1", "FILE"], '{"m": 1.0, "coords": [[[[1, 0]]]]}', "declared level 1.0 does not match"),
        (["norm", "cmax", "1", "FILE"], '{"dim": true, "coords": [[[[1, 0]]]]}', "dim True does not match cmax"),
        (["hat-bounds", "FILE", "--opt-config", "[]"], '{"n": 1, "m": 1, "blocks": [[[[[1, 0]]]]]}',
         "optimizer config must be a JSON object"),
        # a 401-digit integer overflowed numpy's conversion, and a 1e308 diagonal's SVD did not converge
        (["hat-bounds", "FILE"], '{"n": 1, "m": 1, "blocks": [[[[[1' + "0" * 400 + ', 0]]]]]}', "int too large"),
        (["norm", "cmax", "1", "FILE"], '{"m": 1, "coords": [[[[1' + "0" * 400 + ', 0]]]]}', "int too large"),
        (["hat-bounds", "FILE"], '{"n": 2, "m": 1, "blocks": [[[[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]]]}',
         "max double"),
    ], ids=["not_an_object", "no_blocks", "dim_mismatch", "blocks_do_not_fit", "no_coords_or_blocks",
            "declared_m_mismatch", "declared_m_true", "declared_m_float", "declared_dim_true",
            "opt_config_not_an_object", "integer_401_digits_blocks",
            "integer_401_digits_coords", "diagonal_1e308"])
    def test_exit_2(self, tmp_path, capsys, args, text, fragment):
        # text None reads the checked-in cmax element
        path = DATA / "element_cmax_m2.json"
        if text is not None:
            path = tmp_path / "f.json"
            path.write_text(text)
        assert main([str(path) if a == "FILE" else a for a in args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err and "Traceback" not in err


class TestVerifyCommand:
    def test_large_n_warns_and_runs(self, capsys):
        assert main(["verify", "--suite", "prop14", "--n", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: n=5") and json.loads(captured.out)["suite"] == "prop14"

    def test_single_value_suite(self, capsys):
        assert main(["verify", "--suite", "prop14", "--n", "3", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suite"] == "prop14"
        traces = [c for c in report["checks"] if "trace_norm" in c["id"]]
        assert traces and traces[0]["observed"] == 3 and traces[0]["expected"] == 3

    def test_convexity_flags(self, capsys):
        assert main(["verify", "--suite", "convexity", "--n", "2", "--p", "2", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        flags = [c for c in report["checks"] if c["kind"] == "bool"]
        assert flags and all(c["observed"] is True for c in flags)

    def test_failing_check_exit_1(self, monkeypatch, capsys):
        import matnorm.cli as cli_mod

        def fake(*args, **kwargs):
            return {"suite": "fake", "checks": [{"id": "x", "status": "fail"}],
                    "seed": 0, "elapsed_ms": 1}

        monkeypatch.setattr(cli_mod, "run_suite", fake)
        assert main(["verify", "--suite", "coproduct"]) == 1

    def test_out_file_and_determinism(self, tmp_path):
        args = ["verify", "--suite", "coproduct", "--trials", "40", "--seed", "11"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        ra.pop("elapsed_ms"), rb.pop("elapsed_ms")
        assert json.dumps(ra) == json.dumps(rb)

    @pytest.mark.parametrize("name", ["missing-dir/r.json", ".", "a-file/r.json", "read-only.json"])
    def test_unwritable_out_exit_2_before_the_suite(self, tmp_path, monkeypatch, capsys, name):
        import matnorm.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("the suite ran before --out was checked")

        monkeypatch.setattr(cli_mod, "run_suite", never)
        (tmp_path / "a-file").write_text("")
        (tmp_path / "read-only.json").write_text("")
        (tmp_path / "read-only.json").chmod(0o444)
        out = tmp_path / name
        if name == "read-only.json" and os.access(out, os.W_OK):
            pytest.skip("this user may write read-only files (root)")
        assert main(["verify", "--suite", "prop14", "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_failed_run_keeps_an_existing_out_file(self, tmp_path, capsys):
        # the report file is emptied only once the suite has produced a report
        out = tmp_path / "old.json"
        out.write_text('{"suite": "earlier"}\n')
        assert main(["verify", "--suite", "convexity", "--p", "0.5", "--out", str(out)]) == 2
        assert "exponent must exceed 1" in capsys.readouterr().err
        assert out.read_text() == '{"suite": "earlier"}\n'
        assert main(["verify", "--suite", "prop14", "--n", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["suite"] == "prop14"

    def test_failed_run_leaves_no_new_out_file(self, tmp_path, capsys):
        # the report file is opened before the suite runs; a run with no report removes the file it made
        out = tmp_path / "new.json"
        assert main(["verify", "--suite", "prop13", "--p", "0.5", "--out", str(out)]) == 2
        assert "exponent must exceed 1" in capsys.readouterr().err
        assert not out.exists()

    def test_prop13_searches_the_given_size_and_budget(self, monkeypatch):
        import matnorm.hatspace as hatspace

        seen = []
        search = hatspace.search_lower_bound

        def recording(n, u, budget=None, **kwargs):
            seen.append((n, budget))
            return search(n, u, budget=budget, **kwargs)

        monkeypatch.setattr(hatspace, "search_lower_bound", recording)
        report = run_suite("prop13", trials=4, n=4, budget=5)
        assert seen == [(4, 5)] * 4
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_env_seed_default(self, monkeypatch, capsys):
        # the parser reads MATNORM_SEED when the command runs
        monkeypatch.setenv("MATNORM_SEED", "77")
        assert main(["verify", "--suite", "prop14", "--n", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 77


class TestArgumentValidation:
    """Out-of-range arguments stop with a usage error (exit 2), never a traceback."""

    def expect_usage_error(self, args, capsys, fragment):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert fragment in err and "Traceback" not in err

    def test_negative_n(self, capsys):
        self.expect_usage_error(["verify", "--suite", "thm6", "--n", "-1"], capsys, "--n")

    def test_zero_trials_is_not_the_default(self, capsys):
        self.expect_usage_error(["verify", "--suite", "prop13", "--trials", "0"], capsys, "--trials")

    def test_negative_trials(self, capsys):
        self.expect_usage_error(["verify", "--suite", "coproduct", "--trials", "-3"], capsys, "--trials")

    def test_zero_level(self, capsys):
        self.expect_usage_error(["verify", "--suite", "axioms", "--m", "0"], capsys, "--m")

    def test_negative_budget(self, capsys, tmp_path):
        self.expect_usage_error(["verify", "--suite", "prop7", "--budget", "-1"], capsys, "--budget")
        path = write_blocks(tmp_path / "flip.json", 2, 2, canonical_identity(2))
        self.expect_usage_error(["hat-bounds", path, "--budget", "-1"], capsys, "--budget")

    def test_non_integer_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("MATNORM_SEED", "abc")
        self.expect_usage_error(["verify", "--suite", "prop14", "--n", "2"], capsys, "'abc'")

    def test_rejects_bad_exponent(self):
        # the witnesses are claimed only for p > 1; NaN compares false with everything
        for p in (1.0, float("nan")):
            with pytest.raises(InvalidInputError, match="exponent must exceed 1"):
                run_suite("convexity", p=p)

    def test_run_without_checks_is_an_error(self):
        # n = 0 would leave prop7 no block size, so it would pass with no checks
        with pytest.raises(InvalidInputError):
            run_suite("prop7", n=0)

    @pytest.mark.parametrize("name", ["all", "prop13"])
    @pytest.mark.parametrize("kwargs", [
        {"p": 0.5}, {"p": 1.0}, {"p": float("nan")}, {"p": "2"},
        {"trials": 0}, {"trials": -5}, {"trials": 2.5}, {"trials": True},
        {"m_max": 0}, {"n": 0}, {"n": 1.5}, {"budget": -1}, {"budget": 0.5},
        {"seed": -1}, {"seed": 1.5}, {"seed": None},
    ], ids=lambda kwargs: ",".join(f"{key}={value!r}" for key, value in kwargs.items()))
    def test_library_rejects_each_bad_parameter_before_any_suite(self, monkeypatch, name, kwargs):
        # trials=-5 passed coproduct having sampled nothing, trials=0 ran the default count, p=0.5 ran prop13,
        # and "all" ran six suites before convexity rejected its p
        import matnorm.suites as suites

        def never(**_):
            raise AssertionError("a suite ran before its parameters were checked")

        monkeypatch.setattr(suites, "_SUITES", dict.fromkeys(suites._SUITES, never))
        with pytest.raises(InvalidInputError):
            run_suite(name, **kwargs)

    @pytest.mark.parametrize("n", [MAX_SUITE_N + 1, 100000, 7 * 10**5000], ids=["bound_plus_1", "1e5", "5001_digits"])
    def test_library_rejects_n_past_the_bound_before_any_suite(self, monkeypatch, n):
        # prop14 at n = 100000 raised ValueError ("array is too big") from canonical_identity, an exit 4
        import matnorm.suites as suites

        def never(**_):
            raise AssertionError("a suite ran before its parameters were checked")

        monkeypatch.setattr(suites, "_SUITES", dict.fromkeys(suites._SUITES, never))
        with pytest.raises(InvalidInputError, match=f"n must be at most {MAX_SUITE_N}"):
            run_suite("prop14", n=n)

    def test_cli_rejects_n_past_the_bound_and_leaves_no_out_file(self, tmp_path, capsys):
        out = tmp_path / "new.json"
        assert main(["verify", "--suite", "prop14", "--n", "100000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: n must be at most {MAX_SUITE_N}\n"  # no traceback, no runtime warning
        assert not out.exists()

    def test_library_rejects_a_suite_name_of_another_type(self):
        # a list name raised TypeError ("unhashable type") from the suite lookup
        with pytest.raises(InvalidInputError, match="unknown suite"):
            run_suite(["prop13"])

    def test_cli_rejects_an_exponent_the_suite_ignores(self, capsys):
        assert main(["verify", "--suite", "prop13", "--p", "0.5"]) == 2
        assert "exponent must exceed 1" in capsys.readouterr().err
