import hashlib
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from oracles import read_stats

from polyadnet import cli, solver
from polyadnet.cli import RunConfig, UsageError, load_config, main
from polyadnet.layers import SaturationError
from polyadnet.engine import read_edge_list
from polyadnet.distributions import read_degree_table
from polyadnet.solver import NonConvergenceError


def write_dist(path, probs):
    lines = [f"{k}\t{v!r}" for k, v in sorted(probs.items())]
    path.write_text("\n".join(lines) + "\n")


def write_yaml(path, **keys):
    path.write_text(yaml.safe_dump(keys))


@pytest.fixture
def mixed_setup(tmp_path):
    """A gamma=0.3 triad config with a linear preference rule."""
    write_dist(tmp_path / "r1.tsv", {2: 1.0})
    write_dist(tmp_path / "rn.tsv", {1: 0.5, 2: 0.5})
    cfg = tmp_path / "run.yaml"
    write_yaml(
        cfg,
        gamma=0.3,
        n=3,
        mu=1,
        r1_path="r1.tsv",
        rn_path="rn.tsv",
        preference_rule={"kind": "linear", "g": 1},
        seed_size=4,
        steps=400,
        rng_seed=7,
        output_dir=str(tmp_path / "out"),
    )
    return tmp_path, cfg


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        write_yaml(cfg, gamma=0.1, bogus_key=3)
        with pytest.raises(UsageError, match="bogus_key"):
            load_config(cfg)

    def test_non_string_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("1: 2\ngamma: 0.1\n")
        with pytest.raises(UsageError, match="unknown config keys: 1"):
            load_config(cfg)

    def test_non_mapping_rejected(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("- just\n- a list\n")
        with pytest.raises(UsageError):
            load_config(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            load_config(tmp_path / "nope.yaml")

    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("")
        assert load_config(cfg) == RunConfig()

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        write_yaml(cfg, bogus_key=3)
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_output_dir_resolves_against_the_config(self, tmp_path, monkeypatch):
        # a config's output_dir is relative to the config file, --out to
        # the working directory, and no output_dir at all means the latter
        cfgdir, elsewhere = tmp_path / "cfgdir", tmp_path / "elsewhere"
        cfgdir.mkdir()
        elsewhere.mkdir()
        write_dist(cfgdir / "r1.tsv", {2: 1.0})
        keys = dict(r1_path="r1.tsv", preference_rule={"kind": "linear", "g": 1, "M": 20})
        write_yaml(cfgdir / "run.yaml", output_dir="out", **keys)
        write_yaml(cfgdir / "bare.yaml", **keys)
        monkeypatch.chdir(elsewhere)
        solve = ["solve", "--config"]
        assert main([*solve, "../cfgdir/run.yaml"]) == 0
        assert (cfgdir / "out" / "q_table.csv").is_file()
        assert not (elsewhere / "out").exists()
        assert main([*solve, "../cfgdir/run.yaml", "--out", "o"]) == 0
        assert (elsewhere / "o" / "q_table.csv").is_file()
        assert main([*solve, "../cfgdir/bare.yaml"]) == 0
        assert (elsewhere / "q_table.csv").is_file()
        assert load_config(cfgdir / "run.yaml").output_dir == str(cfgdir.resolve() / "out")


class TestConfigValues:
    """Number and path fields are checked once, in load_config; bad ones exit 2."""

    def _run(self, mixed_setup, command, key, raw, *flags):
        # raw YAML text: safe_dump would write 1e-10 as 1.0e-10
        tmp_path, cfg = mixed_setup
        keys = yaml.safe_load(cfg.read_text())
        keys.pop(key, None)
        cfg.write_text(yaml.safe_dump(keys) + f"{key}: {raw}\n")
        return main([command, "--config", str(cfg), *flags])

    def test_exponent_without_a_dot_is_a_float(self, mixed_setup):
        # YAML 1.1 reads 1e-10 as the string "1e-10"
        tmp_path, cfg = mixed_setup
        assert self._run(mixed_setup, "solve", "tol", "1e-10") == 0
        assert load_config(cfg).tol == 1e-10
        assert (tmp_path / "out" / "q_table.csv").is_file()

    def test_ints_stay_ints(self, tmp_path):
        # an int in a float field echoes as written: gamma=0, not 0.0
        cfg = tmp_path / "c.yaml"
        cfg.write_text("gamma: 0\ntol: 1\nforward_tv_max: 1.5e-3\n")
        got = load_config(cfg)
        assert (type(got.gamma), type(got.tol), got.forward_tv_max) == (int, int, 1.5e-3)

    @pytest.mark.parametrize(
        "command, key, raw",
        [
            ("solve", "tol", "abc"),
            ("solve", "gamma", "[0.3]"),
            ("generate", "steps", "abc"),
            ("generate", "steps", "true"),
            ("generate", "seed_size", "4.0"),
            ("generate", "seed_size", "1"),
            ("roundtrip", "seed_size", "1"),
            ("generate", "steps", "-5"),
            ("roundtrip", "steps", "-5"),
            ("generate", "rng_seed", "-1"),
            ("solve", "k_max", "64.5"),
            ("solve", "k_max", "'64'"),
            ("generate", "preference_rule", "{kind: linear, g: abc}"),
            # the rule and the window are checked at load, also by the
            # commands that do not build or use them
            ("calibrate", "preference_rule", "linear"),
            ("roundtrip", "preference_rule", "-1"),
            ("solve", "calibration_window", "[1]"),
            ("generate", "replications", "0"),
            # a threshold no TV distance can pass is the config's fault,
            # also under the commands that compare nothing
            ("roundtrip", "forward_tv_max", ".nan"),
            ("generate", "forward_tv_max", "0"),
            ("solve", "forward_tv_max", "-1"),
            ("roundtrip", "empirical_tv_max", ".nan"),
            ("generate", "empirical_tv_max", "0"),
            ("solve", "empirical_tv_max", "-1"),
            ("generate", "output_dir", "5"),
            ("solve", "output_dir", "null"),
            ("solve", "r1_path", "7"),
            ("generate", "rn_path", "[rn.tsv]"),
            ("solve", "target_vdd_path", "3"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, mixed_setup, capsys, command, key, raw):
        tmp_path, _ = mixed_setup
        assert self._run(mixed_setup, command, key, raw) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("value", [[1], {"a": 1}], ids=["list", "mapping"])
    @pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
    def test_wrong_typed_value_exits_2_from_every_command(self, mixed_setup, capsys, key, value, command):
        tmp_path, cfg = mixed_setup
        write_yaml(cfg, **{**yaml.safe_load(cfg.read_text()), key: value})
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        edges = ["--edges", str(tmp_path / "edges.tsv")] if command == "analyze" else []
        assert main([command, "--config", str(cfg), *edges]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key", [("generate", "output_dir"), ("solve", "r1_path")])
    def test_non_string_path_names_its_key(self, mixed_setup, capsys, command, key):
        # a TypeError traceback with exit 1 before the key was checked
        assert self._run(mixed_setup, command, key, "5") == 2
        assert capsys.readouterr().err == f"error: config key {key} must be a path string, got 5\n"

    @pytest.mark.parametrize(
        "command, key, raw, message",
        [
            ("generate", "rn_path", "null", "rn_path is required when gamma > 0"),
            # load_config checks only that gamma is a number; ModelParams
            # checks its range, and its ValueError is a usage error too
            ("solve", "gamma", "1.5", "gamma=1.5 outside [0, 1]"),
            ("solve", "preference_path", "pref.tsv", "give preference_path or preference_rule, not both"),
        ],
    )
    def test_model_input_error_exits_2(self, mixed_setup, capsys, command, key, raw, message):
        tmp_path, _ = mixed_setup
        assert self._run(mixed_setup, command, key, raw) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_null_input_path_is_unset(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("target_vdd_path: null\n")
        assert load_config(cfg).target_vdd_path is None

    @pytest.mark.parametrize("raw, flags", [(".nan", ()), ("1e-10", ("--tol", "nan"))])
    def test_nan_tol_is_a_usage_error(self, mixed_setup, capsys, monkeypatch, raw, flags):
        # a NaN tol kept the solve sweeping forever; without a kernel a
        # sweep fails at once, so only a check before it can pass
        monkeypatch.setattr(solver, "_sweep_kernel", None)
        tmp_path, _ = mixed_setup
        assert self._run(mixed_setup, "solve", "tol", raw, *flags) == 2
        assert capsys.readouterr().err == "error: tol=nan must be finite and > 0\n"
        assert not (tmp_path / "out" / "q_table.csv").exists()

    def test_non_integral_rule_degree_is_a_usage_error(self, mixed_setup, capsys):
        tmp_path, _ = mixed_setup
        assert self._run(mixed_setup, "generate", "preference_rule", "{kind: linear, g: 1.5}") == 2
        err = capsys.readouterr().err
        assert err == "error: preference_rule key g must be an integer degree, got 1.5\n"
        assert not (tmp_path / "out").exists()

    def test_integral_float_rule_degree_is_accepted(self, mixed_setup):
        assert self._run(mixed_setup, "generate", "preference_rule", "{kind: linear, g: 2.0}") == 0

    @pytest.mark.parametrize(
        "command, rule, message",
        [
            ("generate", "{kind: constant, value: .inf}",
             "bad preference_rule: constant preference must be finite and > 0, got inf"),
            ("solve", "{kind: constant, value: .inf}",
             "bad preference_rule: constant preference must be finite and > 0, got inf"),
            ("generate", "{kind: power, exponent: .nan}",
             "preference rule gives nan at degree 2, not a finite weight > 0"),
            # the probe at K = 2^20 meets the nan first; the table names degree 2
            ("solve", "{kind: power, exponent: .nan}",
             "preference rule gives nan at degree 2, not a finite weight > 0"),
            ("generate", "{kind: power, exponent: 200}",
             "preference rule gives inf at degree 35, not a finite weight > 0"),
            # g: 0 used to be raised to 1 while the header still said g: 0
            ("generate", "{kind: power, exponent: 1.5, g: 0}",
             "bad preference_rule: rule gives 0.0 at the window start g=0, not a finite weight > 0"),
            ("generate", "{kind: linear, M: true}", "preference_rule key M must be an integer degree, got True"),
            ("solve", "{kind: linear, M: '40'}", "preference_rule key M must be an integer degree, got '40'"),
            ("generate", "{kind: linear, 1: 2}", "unknown preference_rule keys: 1"),
            ("solve", "{kind: linear, extra: 1, 2: 3}", "unknown preference_rule keys: 2, extra"),
            ("generate", "{kind: power, exponent: true}",
             "config key preference_rule.exponent must be a number, got True"),
            ("solve", "{kind: power, exponent: abc}",
             "config key preference_rule.exponent must be a number, got 'abc'"),
            ("generate", "{kind: constant, value: true}",
             "config key preference_rule.value must be a number, got True"),
            ("solve", "{kind: cubic}", "unknown preference_rule kind 'cubic'"),
            ("generate", "{kind: power, g: 1}", "preference_rule missing key 'exponent'"),
        ],
    )
    def test_bad_rule_is_a_usage_error_naming_its_cause(self, mixed_setup, capsys, command, rule, message):
        # exit 2 with the key or the first bad degree, not a traceback
        assert self._run(mixed_setup, command, "preference_rule", rule) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_overflowing_rule_is_superlinear_under_solve(self, mixed_setup, capsys, monkeypatch):
        # k^200 overflows at the probe and is rejected there, before any
        # sweep, not reported as a bad weight at degree 35
        monkeypatch.setattr(solver, "_sweep_kernel", None)
        assert self._run(mixed_setup, "solve", "preference_rule", "{kind: power, exponent: 200}") == 1
        assert capsys.readouterr().err == (
            "error: preference grows superlinearly: f(2K)/f(K) = 2^inf at K=1048576, "
            "and f(k) ~ k^p with p > 1 has no stationary distribution\n"
        )

    @pytest.mark.parametrize("rule", ["{kind: power, exponent: '1.5', M: 40}", "{kind: power, exponent: 1e0}"])
    def test_numeric_string_rule_numbers_are_accepted(self, mixed_setup, rule):
        # as for config floats: YAML reads 1e0, with no dot, as a string
        assert self._run(mixed_setup, "solve", "preference_rule", rule) == 0

    def test_other_value_errors_from_grow_are_not_usage_errors(self, mixed_setup, monkeypatch):
        # only a bad preference weight is the config's fault; any other
        # ValueError in the engine is a defect and keeps its traceback
        def broken(*args, **kwargs):
            raise ValueError("engine invariant broken")

        monkeypatch.setattr(cli, "grow", broken)
        with pytest.raises(ValueError, match="^engine invariant broken$"):
            self._run(mixed_setup, "generate", "preference_rule", "{kind: linear}")

    def test_integral_float_rule_bounds_write_the_same_files(self, mixed_setup):
        tmp_path, _ = mixed_setup
        outputs = []
        for rule in ("{kind: linear, g: 1, M: 40}", "{kind: linear, g: 1.0, M: 40.0}"):
            assert self._run(mixed_setup, "generate", "preference_rule", rule) == 0
            outputs.append({f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()})
        assert outputs[0] == outputs[1]
        assert b"preference_rule={'M': 40, 'g': 1, 'kind': 'linear'}" in outputs[0]["edges.tsv"]

    def test_negative_seed_flag(self, mixed_setup, capsys):
        tmp_path, cfg = mixed_setup
        assert main(["generate", "--config", str(cfg), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: rng_seed=-1 must be >= 0\n"
        assert not (tmp_path / "out").exists()


PREFERENCE_TABLE = {"preference_rule": None, "preference_path": "p.tsv"}
# case -> (command and flags, the input file, its text (None: absent),
# config keys, the message before and after the file's path); a
# preference table takes the same wording as every other input table
INPUT_ERRORS = {
    "bad table row": (["solve"], "r1.tsv", "2\t1.0\nabc\n", {},
                      "bad r1 table", "line 2: expected 'k<TAB>value', got 'abc'"),
    "bad preference row": (["solve"], "p.tsv", "1\tabc\n", PREFERENCE_TABLE,
                           "bad preference table", "line 1: could not convert string to float: 'abc'"),
    "bad window header": (["solve"], "p.tsv", "# g=abc\n1\t1.0\n", PREFERENCE_TABLE,
                          "bad preference table", "header g='abc' is not a non-negative integer"),
    "missing preference table": (["solve"], "p.tsv", None, PREFERENCE_TABLE,
                                 "cannot read preference from", "No such file or directory"),
    "negative probability": (["solve"], "r1.tsv", "1\t-0.5\n2\t1.5\n", {},
                             "bad r1 table", "probability -0.5 at degree 1 is negative"),
    "missing table": (["solve"], "r1.tsv", None, {}, "cannot read r1 from", "No such file or directory"),
    "bad vertices header": (["analyze", "--edges", "{path}"], "e.tsv", "# vertices=x\n0\t1\n", {},
                            "bad edge list table", "header vertices='x' is not a non-negative integer"),
    "missing edge list": (["analyze", "--edges", "{path}"], "e.tsv", None, {},
                          "cannot read edge list from", "No such file or directory"),
    # a traceback with exit 1 when the VDD was taken outside the loader
    "empty edge list": (["analyze", "--edges", "{path}"], "e.tsv", "", {},
                        "bad edge list table", "empty graph has no degree distribution"),
    "missing config": (["solve"], "run.yaml", None, {}, "cannot read config", "No such file or directory"),
    "config not UTF-8": (["solve"], "run.yaml", b"\xff", {}, "cannot read config",
                         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "output dir is a file": (["solve"], "out", "", {}, "cannot create output dir", "File exists"),
}


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_every_input_error_names_its_file_once(tmp_path, capsys, case):
    # the CLI names the file, the readers' own messages leave it out, and
    # no output dir is made
    argv, name, text, keys, lead, reason = INPUT_ERRORS[case]
    path = tmp_path / name
    write_dist(tmp_path / "r1.tsv", {2: 1.0})
    cfg = tmp_path / "run.yaml"
    write_yaml(cfg, **{"r1_path": "r1.tsv", "preference_rule": LINEAR_RULE, "output_dir": "out", **keys})
    if text is None:
        path.unlink(missing_ok=True)
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    argv = [argv[0], "--config", str(cfg), *(a.format(path=path) for a in argv[1:])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {lead} {path}: {reason}\n"
    assert err.count(str(path)) == 1
    assert not (tmp_path / "out").is_dir()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("polyadnet ")


def test_cli_import_leaves_out_scipy():
    # scipy is a test-only dependency; importing it took half of the CLI's
    # start-up when the solver still used it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import polyadnet.cli, sys; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestGenerate:
    def test_writes_outputs(self, mixed_setup):
        tmp_path, cfg = mixed_setup
        assert main(["generate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        stats = read_stats(out / "stats.txt")
        assert stats["steps"] == "400"
        assert stats["saturated"] == "False"
        assert int(stats["monad_steps"]) + int(stats["nad_steps"]) == 400
        g, header = read_edge_list(out / "edges.tsv")
        assert g.n == 4 + int(stats["realized_vertices"])
        assert header["rng_seed"] == "7"
        assert (out / "empirical_vdd.tsv").exists()

    def test_byte_determinism(self, mixed_setup):
        tmp_path, cfg = mixed_setup
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "edges.tsv").read_bytes()
        b = (tmp_path / "b" / "edges.tsv").read_bytes()
        assert a == b

    def test_seed_override_changes_output(self, mixed_setup):
        tmp_path, cfg = mixed_setup
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "8"])
        a = (tmp_path / "a" / "edges.tsv").read_bytes()
        b = (tmp_path / "b" / "edges.tsv").read_bytes()
        assert a != b

    def test_zero_steps(self, mixed_setup):
        tmp_path, cfg = mixed_setup
        assert main(["generate", "--config", str(cfg), "--steps", "0"]) == 0
        g, _ = read_edge_list(tmp_path / "out" / "edges.tsv")
        assert g.n == 4 and len(g.edges) == 6

    def test_saturation_exit_code(self, tmp_path):
        write_dist(tmp_path / "r1.tsv", {2: 1.0})
        cfg = tmp_path / "run.yaml"
        write_yaml(
            cfg,
            r1_path="r1.tsv",
            preference_rule={"kind": "constant", "g": 1, "M": 1},
            seed_size=2,
            steps=5,
            output_dir=str(tmp_path / "out"),
        )
        assert main(["generate", "--config", str(cfg)]) == 1
        stats = read_stats(tmp_path / "out" / "stats.txt")
        assert stats["saturated"] == "True"
        assert int(stats["steps"]) < 5
        # partial outputs still land on disk
        assert (tmp_path / "out" / "edges.tsv").exists()

    def test_missing_preference(self, tmp_path):
        write_dist(tmp_path / "r1.tsv", {2: 1.0})
        cfg = tmp_path / "run.yaml"
        write_yaml(cfg, r1_path="r1.tsv", output_dir=str(tmp_path / "out"))
        assert main(["generate", "--config", str(cfg)]) == 2


class TestSolve:
    def test_writes_q_table(self, tmp_path):
        write_dist(tmp_path / "r1.tsv", {2: 1.0})
        cfg = tmp_path / "run.yaml"
        write_yaml(
            cfg,
            r1_path="r1.tsv",
            preference_rule={"kind": "linear", "g": 1},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", str(cfg), "--kmax", "4096"]) == 0
        probs, meta = read_degree_table(tmp_path / "out" / "q_table.csv")
        assert meta["tool"].startswith("polyadnet")
        assert max(probs) <= 4096
        assert math.fsum(probs.values()) == pytest.approx(1.0, abs=1e-6)
        # the linear-kernel closed form at low degrees, loose because of
        # the modest table size; the acceptance suite pins the precision
        assert probs[2] == pytest.approx(0.5, rel=1e-5)
        assert probs[3] == pytest.approx(0.2, rel=1e-5)

    def test_superlinear_rule_fails_cleanly(self, tmp_path, capsys):
        write_dist(tmp_path / "r1.tsv", {2: 1.0})
        cfg = tmp_path / "run.yaml"
        write_yaml(
            cfg,
            r1_path="r1.tsv",
            preference_rule={"kind": "power", "exponent": 2.0},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", str(cfg), "--kmax", "800"]) == 1
        assert capsys.readouterr().err.startswith("error: preference grows superlinearly")
        assert not (tmp_path / "out" / "q_table.csv").exists()

    def test_window_out_of_reach_fails_cleanly(self, tmp_path, capsys):
        # vertices enter at degree 1, below the window [2, 10]
        write_dist(tmp_path / "r1.tsv", {1: 1.0})
        cfg = tmp_path / "run.yaml"
        write_yaml(
            cfg,
            r1_path="r1.tsv",
            preference_rule={"kind": "constant", "value": 5, "g": 2, "M": 10},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no arrival degree lies in the preference window [2, 10]")
        assert "degrees 1..1" in err
        assert not (tmp_path / "out" / "q_table.csv").exists()

    def test_tail_that_never_closes_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        # the default schedule stops at K_CAP entries; a tail bound still
        # above tol there is a failure, not a table
        monkeypatch.setattr(solver, "K_CAP", 8192)
        write_dist(tmp_path / "r1.tsv", {2: 1.0})
        cfg = tmp_path / "run.yaml"
        write_yaml(
            cfg,
            r1_path="r1.tsv",
            preference_rule={"kind": "linear", "g": 1},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tail mass bound ")
        assert err.endswith(
            "at k_max=8192 (K_CAP=8192) is not below max(tol, 1e-12)=1e-10: Q_k falls like "
            "k^-tau with tau=3, so the bound falls like k_max^(1-tau) and needs about "
            "2.45e+05 entries\n"
        )
        assert not (tmp_path / "out" / "q_table.csv").exists()

    def test_small_kmax_linear_kernel(self, tmp_path):
        # BA with m=1: the closed tail makes the mean exact, 2, even on a
        # 65-entry table
        write_dist(tmp_path / "r1.tsv", {1: 1.0})
        cfg = tmp_path / "run.yaml"
        write_yaml(
            cfg,
            r1_path="r1.tsv",
            preference_rule={"kind": "linear", "g": 1},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", str(cfg), "--kmax", "64"]) == 0
        _, meta = read_degree_table(tmp_path / "out" / "q_table.csv")
        assert abs(float(meta["mean_f"]) - 2.0) <= 1e-10

    def test_kmax_one(self, tmp_path):
        # arrivals at degree 1 fit a two-entry table
        write_dist(tmp_path / "r1.tsv", {1: 1.0})
        cfg = tmp_path / "run.yaml"
        write_yaml(
            cfg,
            r1_path="r1.tsv",
            preference_rule={"kind": "linear", "g": 1},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["solve", "--config", str(cfg), "--kmax", "1"]) == 0
        probs, meta = read_degree_table(tmp_path / "out" / "q_table.csv")
        assert meta["k_max"] == "1"
        assert set(probs) <= {0, 1}

    def test_missing_r1(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        write_yaml(cfg, preference_rule={"kind": "linear"}, output_dir=str(tmp_path / "out"))
        assert main(["solve", "--config", str(cfg)]) == 2


def geometric_target(path, cutoff=40):
    """Exact stationary table for a flat kernel, closed at the cutoff.

    Every 2**-k is a clean binary float, so the table sums to exactly one
    and the calibrated weights come out constant to the last bit.
    """
    probs = {k: 2.0**-k for k in range(1, cutoff + 1)}
    probs[cutoff + 1] = 2.0**-cutoff
    write_dist(path, probs)


class TestCalibrate:
    def _config(self, tmp_path, **extra):
        write_dist(tmp_path / "r1.tsv", {1: 1.0})
        cfg = tmp_path / "run.yaml"
        write_yaml(
            cfg,
            r1_path="r1.tsv",
            target_vdd_path="target.tsv",
            output_dir=str(tmp_path / "out"),
            **extra,
        )
        return cfg

    def test_feasible_target(self, tmp_path):
        geometric_target(tmp_path / "target.tsv")
        cfg = self._config(tmp_path, calibration_window=[1, 40])
        assert main(["calibrate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        report = read_stats(out / "calibration_report.txt")
        assert report["feasible"] == "True"
        assert report["forward_pass"] == "True"
        assert float(report["forward_tv"]) < 1e-9
        weights, _ = read_degree_table(out / "forward_q_table.csv")
        assert weights[1] == pytest.approx(0.5)
        pref_lines = [
            ln
            for ln in (out / "preference.tsv").read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        vals = {float(ln.split("\t")[1]) for ln in pref_lines}
        assert len(pref_lines) == 40
        assert max(vals) == pytest.approx(min(vals), rel=1e-12)

    @pytest.mark.parametrize("window, bad", [([1.9, 40], 1.9), ([1, 40.7], 40.7)])
    def test_non_integral_window_is_a_usage_error(self, tmp_path, capsys, window, bad):
        geometric_target(tmp_path / "target.tsv")
        cfg = self._config(tmp_path, calibration_window=window)
        assert main(["calibrate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: calibration_window must be an integer degree, got {bad!r}\n"
        assert not (tmp_path / "out").exists()

    def test_integral_float_window_matches_int_window(self, tmp_path):
        geometric_target(tmp_path / "target.tsv")
        outputs = []
        for window in ([1, 40], [1.0, 40.0]):
            cfg = self._config(tmp_path, calibration_window=window)
            assert main(["calibrate", "--config", str(cfg)]) == 0
            outputs.append({f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()})
        assert outputs[0] == outputs[1]

    def test_rule_echo_matches_solve(self, tmp_path):
        # integral float bounds are ints in every command's echo, also
        # where the rule is not built
        geometric_target(tmp_path / "target.tsv")
        rule = {"kind": "linear", "g": 1.0, "M": 20}
        cfg = self._config(tmp_path, preference_rule=rule, calibration_window=[1, 40])
        assert main(["calibrate", "--config", str(cfg)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        echo = "{'M': 20, 'g': 1, 'kind': 'linear'}"
        assert read_degree_table(tmp_path / "out" / "preference.tsv")[1]["preference_rule"] == echo
        assert read_degree_table(tmp_path / "s" / "q_table.csv")[1]["preference_rule"] == echo

    def test_infeasible_target(self, tmp_path):
        # mass below the arrival degree cannot be reached by growth
        write_dist(tmp_path / "r1.tsv", {2: 1.0})
        write_dist(tmp_path / "target.tsv", {1: 0.3, 2: 0.5, 3: 0.2})
        cfg = tmp_path / "run.yaml"
        write_yaml(
            cfg,
            r1_path="r1.tsv",
            target_vdd_path="target.tsv",
            output_dir=str(tmp_path / "out"),
        )
        assert main(["calibrate", "--config", str(cfg)]) == 1
        report = read_stats(tmp_path / "out" / "calibration_report.txt")
        assert report["feasible"] == "False"
        assert report["first_infeasible_k"] == "1"
        assert not (tmp_path / "out" / "preference.tsv").exists()

    def test_target_not_normalized(self, tmp_path):
        write_dist(tmp_path / "target.tsv", {1: 0.5, 2: 0.48})
        cfg = self._config(tmp_path)
        assert main(["calibrate", "--config", str(cfg)]) == 2

    def test_missing_target(self, tmp_path):
        write_dist(tmp_path / "r1.tsv", {1: 1.0})
        cfg = tmp_path / "run.yaml"
        write_yaml(cfg, r1_path="r1.tsv", output_dir=str(tmp_path / "out"))
        assert main(["calibrate", "--config", str(cfg)]) == 2


class TestAnalyze:
    def test_with_theory_table(self, mixed_setup, tmp_path):
        _, cfg = mixed_setup
        main(["generate", "--config", str(cfg)])
        main(["solve", "--config", str(cfg), "--kmax", "2048"])
        out = tmp_path / "out"
        code = main(
            [
                "analyze",
                "--config",
                str(cfg),
                "--edges",
                str(out / "edges.tsv"),
                "--theory",
                str(out / "q_table.csv"),
            ]
        )
        assert code == 0
        text = (out / "analysis_report.csv").read_text()
        assert "# tv_distance=" in text
        assert "# triangles=" in text
        assert "k,empirical,theoretical,abs_error" in text

    def test_metrics_only(self, mixed_setup, tmp_path):
        _, cfg = mixed_setup
        main(["generate", "--config", str(cfg)])
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--edges", str(out / "edges.tsv")]) == 0
        text = (out / "analysis_report.csv").read_text()
        assert "# clustering=" in text
        assert "k,empirical" in text

    def test_slope_flags_are_gone(self, mixed_setup, capsys, tmp_path):
        _, cfg = mixed_setup
        main(["generate", "--config", str(cfg)])
        out = tmp_path / "out"
        argv = ["analyze", "--config", str(cfg), "--edges", str(out / "edges.tsv"), "--slope-lo", "2"]
        assert main(argv) == 2
        assert "unrecognized arguments: --slope-lo 2" in capsys.readouterr().err
        assert not (out / "analysis_report.csv").exists()

    def test_theory_defaults_to_target_vdd_path(self, mixed_setup, monkeypatch, tmp_path):
        # target_vdd_path resolves against the config's directory, not the
        # working directory, and gives the same report as --theory
        _, cfg = mixed_setup
        main(["generate", "--config", str(cfg)])
        main(["solve", "--config", str(cfg), "--kmax", "2048"])
        out = tmp_path / "out"
        (tmp_path / "theory.csv").write_bytes((out / "q_table.csv").read_bytes())
        keys = yaml.safe_load(cfg.read_text())
        write_yaml(cfg, **keys, target_vdd_path="theory.csv")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        run = ["analyze", "--config", str(cfg), "--edges", str(out / "edges.tsv")]
        assert main([*run, "--out", str(tmp_path / "default")]) == 0
        explicit = ["--theory", str(tmp_path / "theory.csv"), "--out", str(tmp_path / "explicit")]
        assert main([*run, *explicit]) == 0
        report = (tmp_path / "default" / "analysis_report.csv").read_bytes()
        assert b"# tv_distance=" in report
        assert report == (tmp_path / "explicit" / "analysis_report.csv").read_bytes()

    def test_wedge_free_graph_without_a_config(self, tmp_path, monkeypatch):
        # no --config: the defaults apply and the report lands in the
        # working directory; one edge has no wedge, so no clustering
        (tmp_path / "edges.tsv").write_text("# vertices=2\n0\t1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--edges", "edges.tsv"]) == 0
        probs, header = read_degree_table(tmp_path / "analysis_report.csv")
        assert header["clustering"] == "undefined"
        assert (header["triangles"], probs) == ("0", {1: 1.0})

    def test_missing_edges_flag(self, mixed_setup):
        _, cfg = mixed_setup
        assert main(["analyze", "--config", str(cfg)]) == 2

    def test_bad_edges_path(self, mixed_setup, tmp_path):
        _, cfg = mixed_setup
        assert main(["analyze", "--config", str(cfg), "--edges", str(tmp_path / "no.tsv")]) == 2


class TestRoundtrip:
    def _config(self, tmp_path, **extra):
        write_dist(tmp_path / "r1.tsv", {1: 1.0})
        geometric_target(tmp_path / "target.tsv")
        cfg = tmp_path / "run.yaml"
        keys = dict(
            r1_path="r1.tsv",
            target_vdd_path="target.tsv",
            calibration_window=[1, 40],
            seed_size=3,
            steps=4000,
            rng_seed=11,
            replications=2,
            empirical_tv_max=0.15,
            output_dir=str(tmp_path / "out"),
        )
        keys.update(extra)
        write_yaml(cfg, **keys)
        return cfg

    def test_full_pass(self, tmp_path):
        cfg = self._config(tmp_path)
        assert main(["roundtrip", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        report = read_stats(out / "roundtrip_report.txt")
        assert report["overall_pass"] == "True"
        assert float(report["forward_tv"]) < 1e-9
        assert float(report["empirical_tv_rep0"]) < 0.15
        assert float(report["empirical_tv_rep1"]) < 0.15
        for name in ("preference.tsv", "forward_q_table.csv", "edges_rep0.tsv", "edges_rep1.tsv"):
            assert (out / name).exists()

    def test_replication_seeds_differ(self, tmp_path):
        cfg = self._config(tmp_path)
        main(["roundtrip", "--config", str(cfg), "--steps", "200"])
        out = tmp_path / "out"
        a = (out / "edges_rep0.tsv").read_text()
        b = (out / "edges_rep1.tsv").read_text()
        assert "rep_seed=11" in a and "rep_seed=12" in b
        strip = lambda t: [ln for ln in t.splitlines() if not ln.startswith("#")]
        assert strip(a) != strip(b)

    def test_missed_tolerance_fails(self, tmp_path):
        # an impossible empirical gate turns the exit code into 1
        cfg = self._config(tmp_path, empirical_tv_max=1e-9, replications=1)
        assert main(["roundtrip", "--config", str(cfg), "--steps", "60"]) == 1
        report = read_stats(tmp_path / "out" / "roundtrip_report.txt")
        assert report["empirical_pass"] == "False"
        assert report["overall_pass"] == "False"

    def test_infeasible_target_stage(self, tmp_path):
        write_dist(tmp_path / "r1.tsv", {2: 1.0})
        write_dist(tmp_path / "target.tsv", {1: 0.3, 2: 0.5, 3: 0.2})
        cfg = tmp_path / "run.yaml"
        write_yaml(
            cfg,
            r1_path="r1.tsv",
            target_vdd_path="target.tsv",
            output_dir=str(tmp_path / "out"),
        )
        assert main(["roundtrip", "--config", str(cfg)]) == 1
        report = read_stats(tmp_path / "out" / "roundtrip_report.txt")
        assert report["failed_stage"] == "calibrate"


# recorded before the subcommands were put behind one command table
REPLICATION_SATURATED_REPORT = (
    "calibrate_feasible=True\na=1.0\nforward_tv=0.0\nforward_tv_max=1e-06\n"
    "forward_pass=True\nempirical_tv_rep0=0.06869612068965517\n"
    "failed_stage=generate (replication 1)\n"
)


class TestRoundtripStageFailures:
    """Failures no small config reaches, forced through cli's own bindings."""

    def _run(self, tmp_path, capsys):
        cfg = TestRoundtrip()._config(tmp_path, steps=200)
        assert main(["roundtrip", "--config", str(cfg)]) == 1
        out = tmp_path / "out"
        return (out / "roundtrip_report.txt").read_text(), capsys.readouterr(), out

    def test_forward_solve(self, tmp_path, capsys, monkeypatch):
        def stuck(*args, **kwargs):
            raise NonConvergenceError("stuck")

        monkeypatch.setattr(cli, "solve_stationary", stuck)
        report, streams, out = self._run(tmp_path, capsys)
        assert report == "calibrate_feasible=True\na=1.0\nfailed_stage=solve\n"
        assert streams == ("", "error: stage solve failed: stuck\n")
        assert sorted(p.name for p in out.iterdir()) == ["roundtrip_report.txt"]

    def test_saturated_replication(self, tmp_path, capsys, monkeypatch):
        grow = cli.grow

        def second_saturates(g, p, f, steps, seed):
            if seed == 12:  # replication 1 of rng_seed 11
                raise SaturationError("saturated")
            return grow(g, p, f, steps, seed)

        monkeypatch.setattr(cli, "grow", second_saturates)
        report, streams, out = self._run(tmp_path, capsys)
        assert report == REPLICATION_SATURATED_REPORT
        assert streams == ("", "error: stage generate failed: replication 1 saturated\n")
        assert not (out / "edges_rep1.tsv").exists()


@pytest.mark.parametrize("command", ["calibrate", "roundtrip"])
@pytest.mark.parametrize("flag", [["--kmax", "1"], ["--tol", "0"]])
def test_bad_solver_flags_are_usage_errors(tmp_path, capsys, command, flag):
    # a feasible target (f = 1 on [2, 41]) whose arrivals enter at degree
    # 2, so k_max=1 cannot hold them; nothing may be written
    write_dist(tmp_path / "r1.tsv", {2: 1.0})
    probs = {k: 2.0 ** -(k - 1) for k in range(2, 42)}
    probs[42] = 2.0**-40
    write_dist(tmp_path / "target.tsv", probs)
    cfg = tmp_path / "run.yaml"
    write_yaml(
        cfg,
        r1_path="r1.tsv",
        target_vdd_path="target.tsv",
        calibration_window=[2, 41],
        steps=50,
        output_dir=str(tmp_path / "out"),
    )
    assert main([command, "--config", str(cfg), *flag]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list((tmp_path / "out").iterdir()) == []


# ---- golden outputs -----------------------------------------------------
#
# sha256 of every file each run writes, recorded before the rate formulas
# and the "# key=value" table IO were gathered into one place each; a
# refactor of either must keep every output byte for byte. Two
# exceptions: the "diverging" run's calibrate-side files were recorded
# again when the calibrator's a changed, and the unbounded solves of
# "solve_ba" and "analyze" (with the --theory report that reads the
# latter) when the exact tail closure replaced the power-law fit. The
# "analyze" run's two reports, p/analysis_report.csv and
# t/analysis_report.csv, were recorded again when their "# loglog_slope="
# line was dropped; every other byte of them is unchanged. The
# failure runs (exit code 1) and every command's stdout and stderr were
# recorded before the subcommands were put behind one command table. Each
# run works in its own directory: inputs from GOLDEN_TABLES, one config,
# and CLI commands whose relative paths resolve there.

GOLDEN_TABLES = {
    "r1_1.tsv": {1: 1.0},
    "r1_2.tsv": {2: 1.0},
    "rn_mixed.tsv": {1: 0.5, 2: 0.5},
    "rn_1.tsv": {1: 1.0},
    "rn_2.tsv": {2: 1.0},
    # mass at degree 1, below the arrival degree 2 of r1_2.tsv
    "infeasible.tsv": {1: 0.3, 2: 0.5, 3: 0.2},
}
LINEAR_RULE = {"kind": "linear", "g": 1}
BA_CFG = dict(r1_path="r1_2.tsv", preference_rule=LINEAR_RULE)
MIXED_CFG = dict(
    gamma=0.3, n=3, mu=1, r1_path="r1_2.tsv", rn_path="rn_mixed.tsv",
    preference_rule={"kind": "linear", "g": 1, "M": 60},
    calibration_window=[2, 60],
)
PENTADS_CFG = dict(gamma=1.0, n=5, rn_path="rn_1.tsv", preference_rule=LINEAR_RULE, seed_size=5)
# the solver's a = b + gamma mu and the calibrator's former
# (1-gamma) m1 + gamma (n mn - (n-1) mu) differ in the last bit here:
# 1.3000000000000003 against 1.3
DIVERGING_CFG = dict(
    gamma=0.1, n=3, mu=1, r1_path="r1_1.tsv", rn_path="rn_2.tsv",
    preference_rule={"kind": "linear", "g": 1, "M": 40},
    calibration_window=[1, 40],
)
ROUNDTRIP_CFG = dict(
    r1_path="r1_1.tsv", target_vdd_path="target.tsv", calibration_window=[1, 40],
    seed_size=3, steps=2000, rng_seed=11, replications=2, empirical_tv_max=0.15,
)
INFEASIBLE_CFG = dict(r1_path="r1_2.tsv", target_vdd_path="infeasible.tsv")
# two seed vertices of degree 1 and f = 1 on [1, 1]: the first arrival
# lifts both out of the window
SATURATED_CFG = dict(
    r1_path="r1_2.tsv", preference_rule={"kind": "constant", "g": 1, "M": 1},
    seed_size=2, steps=5,
)

# name -> (config keys, [(argv after "--config run.yaml", exit code,
# stdout, stderr)], digests)
GOLDEN = {
    "solve_ba": (
        BA_CFG,
        [(["solve", "--kmax", "4096", "--out", "o"], 0,
          "solve: mean_f=4.0 k_max=4096 residual=5.551e-17 tail=3.574e-07\n", "")],
        {
            "o/q_table.csv": "2800f2eb70ac8043cb836496bf491bb3b38e48145196be1303e3621b27578df5",
        },
    ),
    "solve_mixed_window": (
        MIXED_CFG,
        [(["solve", "--out", "o"], 0,
          "solve: mean_f=4.512462653900007 k_max=63 residual=1.110e-16 tail=0.000e+00\n", "")],
        {
            "o/q_table.csv": "8887ba2fd0cb17015f21f59c9e2080a90d958f825e4bd18ce42e672fcbe92aa3",
        },
    ),
    "generate_pentads": (
        PENTADS_CFG,
        [(["generate", "--steps", "2000", "--seed", "3", "--out", "o"], 0,
          "generate: vertices=10005 edges=30010 out=o\n", "")],
        {
            "o/edges.tsv": "734fed854910e73b043749c2f8978d2e2122868d8de3f064d4b3001d89ef8f40",
            "o/empirical_vdd.tsv": "3fa774c41f708bc362a88dae65963daf99a87c9b052020be5eb1ab374c9f459d",
            "o/stats.txt": "7fe150c8ee574d48265d16b5bd7b8ce5aad35486d56a6bcd23d9ffd9b1d4c2a9",
        },
    ),
    "calibrate_solved": (
        dict(MIXED_CFG, target_vdd_path="s/q_table.csv"),
        [
            (["solve", "--out", "s"], 0,
             "solve: mean_f=4.512462653900007 k_max=63 residual=1.110e-16 tail=0.000e+00\n", ""),
            (["calibrate", "--out", "o"], 0,
             "calibrate: feasible window=2..60 forward_tv=1.406e-16\n", ""),
        ],
        {
            "o/calibration_report.txt": "fff50e97b161f1d7fafb0b5b3a61e8a50a515cc87610979203ac296f395ec83f",
            "o/forward_q_table.csv": "e41906dd0b2166443bc449f3d740e02bdcadde58a1082b3ecad1e11f47a13a00",
            "o/preference.tsv": "4282e8f0817784459ab159230a8f2c088825ae183a00b95b3d0084238e8de631",
            "s/q_table.csv": "ab505d9ee859d89e86a1fd11c7b8b88411383c03db1a3bcb51ad55bf1d41dc45",
        },
    ),
    "roundtrip": (
        ROUNDTRIP_CFG,
        [(["roundtrip", "--out", "o"], 0,
          "roundtrip: forward_tv=0.000e+00 (pass) empirical_tv=0.0153 (pass)\n", "")],
        {
            "o/edges_rep0.tsv": "b71714384000c0fb8f5d10d9a5c13838cf55aaf10fe6cb3b663b686a639a85f7",
            "o/edges_rep1.tsv": "4fee72cbb89a605a7c918af0e41904cef3ad886f755fe634c025a3a61172b7f6",
            "o/forward_q_table.csv": "9ccb43d00944c0ab259b513dc8fb3497e5aa2522d9300f2e2a28b173e4e58ba7",
            "o/preference.tsv": "94bafe7456d3c17299db5a3b2c6544ab38beb9d64bb016b95c8b0a0bd75fb831",
            "o/roundtrip_report.txt": "41446b6d8295a525c6d52ed8cf5c106d2d8a7ebc797a0e474a0b8dc169b06ef7",
        },
    ),
    "analyze": (
        PENTADS_CFG,
        [
            (["generate", "--steps", "2000", "--seed", "4", "--out", "g"], 0,
             "generate: vertices=10005 edges=30010 out=g\n", ""),
            (["solve", "--kmax", "4096", "--out", "s"], 0,
             "solve: mean_f=5.999999999744679 k_max=4096 residual=1.110e-16 tail=3.185e-17\n", ""),
            (["analyze", "--edges", "g/edges.tsv", "--theory", "s/q_table.csv", "--out", "t"], 0,
             "analyze: tv=0.0081 ks=0.0026 triangles=20024\n", ""),
            (["analyze", "--edges", "g/edges.tsv", "--out", "p"], 0,
             "analyze: triangles=20024 (no theory table given)\n", ""),
        ],
        {
            "g/edges.tsv": "155a805a1f427f7f9bd31c34d3bc3a3dd06a7e6c17fce7d3f8bff17956d0bb63",
            "g/empirical_vdd.tsv": "82359cd8dc338e6fcc09199a637870e47be8ad4f091296bc34a9a41ffbc19331",
            "g/stats.txt": "4b8a16829d8b5f28b6383e18b9c50df911eb162e9897d7c776245f483f88f513",
            "p/analysis_report.csv": "7c2695e057ab8ba6fa304c9a9b10cff7416f1d47783850a477230ba52d62d4ab",
            "s/q_table.csv": "6b2bbbfc96de9dea04824c75c4b5ffef875d4b6043b6f18c22474fb25e6423c4",
            "t/analysis_report.csv": "1a71faef48c65a322aec0dcba50627ca5fc931739a7ac0ca77b4369c53acfb71",
        },
    ),
    "diverging": (
        dict(DIVERGING_CFG, target_vdd_path="s/q_table.csv"),
        [
            (["solve", "--out", "s"], 0,
             "solve: mean_f=2.9148301349915626 k_max=43 residual=3.331e-16 tail=0.000e+00\n", ""),
            (["calibrate", "--out", "o"], 0,
             "calibrate: feasible window=1..40 forward_tv=2.122e-17\n", ""),
        ],
        # the calibrate-side files changed when the calibrator took a from
        # ModelParams (a=1.3 -> a=1.3000000000000003); the target solve did not
        {
            "o/calibration_report.txt": "c463fae7a5a2e4f8920fd2b431f82c3e02b5b3b21771a22c2f98f2daf649f2af",
            "o/forward_q_table.csv": "21fafd1b895b0ca8acf987c2336490992537d26a92d49671158346ef2b797132",
            "o/preference.tsv": "bf9f456bc042e33268348fec00422d80965cdf0028c6d5fbd8a7e3420179c0f6",
            "s/q_table.csv": "94ec5b65d2b501a7375d4c7a7b2cb35e92e4bc8db680520b433facb6ef7e6fe9",
        },
    ),
    "calibrate_infeasible": (
        INFEASIBLE_CFG,
        [(["calibrate", "--out", "o"], 1,
          "", "error: target infeasible, first nonpositive preference at k=1\n")],
        {
            "o/calibration_report.txt": "01105aa07f6847a383bde07d9a6895dd97da76465583b15caa248e42b2ce259e",
        },
    ),
    "roundtrip_infeasible": (
        INFEASIBLE_CFG,
        [(["roundtrip", "--out", "o"], 1,
          "", "error: stage calibrate failed, first nonpositive preference at k=1\n")],
        {
            "o/roundtrip_report.txt": "96213d6fa6ac53fcd24e6ab50a7a752cebfa60c15d66f3743d22e01d32e25cbb",
        },
    ),
    "roundtrip_missed": (
        dict(ROUNDTRIP_CFG, replications=1, empirical_tv_max=1e-9),
        [(["roundtrip", "--steps", "60", "--out", "o"], 1,
          "roundtrip: forward_tv=0.000e+00 (pass) empirical_tv=0.0621 (FAIL)\n", "")],
        {
            "o/edges_rep0.tsv": "96c24c107d91414fac6f2781aacb1979f288fad02a4218692ad5a16c69ff2769",
            "o/forward_q_table.csv": "4f1df8d67de2d0a0836813d925164bbbebec2f44c139fcf679ff3519a431dcdb",
            "o/preference.tsv": "c4589f5b097bbabdeb3de308dbdedc2b0350d807265df452f0b52d020ac0be45",
            "o/roundtrip_report.txt": "f68cc268d0aeee3994ac2c48656d9cbb9cb2d12ac3b3b7f6047d8e2b16a7f8dc",
        },
    ),
    "generate_saturated": (
        SATURATED_CFG,
        [(["generate", "--out", "o"], 1,
          "generate: vertices=4 edges=5 out=o\n", "error: sampling saturated after 2 steps\n")],
        {
            "o/edges.tsv": "6f84c3cda5d87f75294b91944256d0781bfdf0d49c01508f7c046bed3088822e",
            "o/empirical_vdd.tsv": "ca437b3160435e6d0f466ddf6eb972d5363d2b562c3bf9cabde2405d7683a07a",
            "o/stats.txt": "cf0d8b7a98c33bdc9049ef0518ae62cf3c470ee2cee053a8acf273ba621d9aa7",
        },
    ),
}


def run_golden(tmp_path, monkeypatch, capsys, name) -> dict[str, str]:
    cfg_keys, commands, _ = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    for table, probs in GOLDEN_TABLES.items():
        write_dist(tmp_path / table, probs)
    geometric_target(tmp_path / "target.tsv")
    write_yaml(tmp_path / "run.yaml", **cfg_keys)
    inputs = {p for p in tmp_path.rglob("*")}
    for argv, code, out, err in commands:
        assert main([argv[0], "--config", "run.yaml", *argv[1:]]) == code, argv
        assert capsys.readouterr() == (out, err), argv
    return {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file() and p not in inputs
    }


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_outputs(tmp_path, monkeypatch, capsys, name):
    assert run_golden(tmp_path, monkeypatch, capsys, name) == GOLDEN[name][2]
