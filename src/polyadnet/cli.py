"""Command line front end.

Subcommands cover the whole validation loop: generate a graph, solve the
stationary distribution, calibrate a preference function to a target
distribution, analyze a written graph, and run the full
calibrate-solve-generate-compare round trip.

Configuration lives in one YAML file (flat keys, see RunConfig); every
flag overrides its config key. A RunConfig checks every value when it is
built, so a value from the file and one from a flag pass the same check.
Paths inside the config resolve relative to the config file, paths given
on the command line relative to the working directory. All randomness
flows from the single rng_seed key; replication i of a multi-run command
uses rng_seed + i. Outputs carry a comment header with the tool version
and the parameter echo and contain no timestamps, so equal config plus
seed means byte-identical files.

Exit codes: 0 success, 1 model-level failure (saturation, infeasible
target, non-convergence, missed round-trip tolerance), 2 usage or IO
error. ``main`` alone maps exceptions to codes, by class: an InputError
(UsageError, PreferenceError and the library's checks of the model
parameters, solver settings and calibration target) or an OSError exits
2, a RuntimeError (NonConvergenceError, SaturationError, a failed sweep
check) exits 1, each after one ``error: message`` line on stderr. Any
other ValueError is a defect and keeps its traceback. A command catches
an error only to name its source or to act on it. ``main`` also makes
each missing part of output_dir before it dispatches, and an exit-2
failure removes the parts it made, deepest first, except one that a
file was written into (and so the parts that hold it); an exit-1
failure keeps its directory and any report in it.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import compare, global_clustering, triangle_count, write_report
from .calibrate import calibrate
from .distributions import DegreeDistribution, read_distribution, write_distribution, write_table
from .engine import grow, read_edge_list, write_edge_list, write_stats
from .graph import empirical_vdd, seed_complete
from .layers import SaturationError
from .params import InputError, ModelParams
from .preference import PreferenceFunction, read_preference, write_preference
from .solver import NonConvergenceError, solve_stationary, write_q_table

__all__ = ["RunConfig", "load_config", "main"]


@dataclass(frozen=True)
class RunConfig:
    gamma: float = 0.0
    n: int = 2
    mu: int = 0
    r1_path: str | None = None
    rn_path: str | None = None
    preference_path: str | None = None
    preference_rule: dict | None = None
    target_vdd_path: str | None = None
    calibration_window: tuple[int, int] | None = None
    seed_size: int = 4
    steps: int = 1000
    rng_seed: int = 0
    tol: float = 1e-10
    k_max: int | None = None
    output_dir: str = "."
    replications: int = 1
    forward_tv_max: float = 1e-6
    empirical_tv_max: float = 0.05

    def __post_init__(self):
        """Check every value, converting it in place; a bad one is a UsageError.

        Number keys are checked by ``_number`` and two more by ``_CHECKS``;
        the ``*_path`` keys and ``output_dir`` must be strings (or None for
        a ``*_path``). Then come the ranges: a negative seed or step count,
        a seed size below 2, no replication, a TV threshold that is not
        > 0, a ``tol`` that is not finite and > 0 or a negative ``k_max``.
        ``dataclasses.replace`` runs this again, so a flag is checked as a
        config value is.
        """
        for f in fields(self):
            val = getattr(self, f.name)
            if f.type in ("float", "int", "int | None"):
                val = _number(f.name, val, f.type)
            elif f.name in _CHECKS and val is not None:
                val = _CHECKS[f.name](val)
            elif f.type.startswith("str") and not isinstance(val, str) and (val is not None or f.type == "str"):
                raise UsageError(f"config key {f.name} must be a path string, got {val!r}")
            object.__setattr__(self, f.name, val)
        if self.rng_seed < 0:
            raise UsageError(f"rng_seed={self.rng_seed} must be >= 0")
        if self.seed_size < 2:
            raise UsageError(f"seed_size={self.seed_size} must be >= 2")
        if self.steps < 0:
            raise UsageError(f"steps={self.steps} must be >= 0")
        if self.replications < 1:
            raise UsageError(f"replications={self.replications} must be >= 1")
        for key in ("forward_tv_max", "empirical_tv_max"):
            if not getattr(self, key) > 0:  # NaN fails too
                raise UsageError(f"{key}={getattr(self, key)} must be > 0")
        if not 0.0 < self.tol < math.inf:
            raise UsageError(f"tol={self.tol} must be finite and > 0")
        if self.k_max is not None and self.k_max < 0:
            raise UsageError(f"k_max={self.k_max} must be >= 0")


class UsageError(InputError):
    """Bad config, flags, or input files; maps to exit code 2."""


def _number(key: str, val, kind: str):
    """``val`` checked against the field type ``kind`` of config ``key``.

    Float fields take ints, floats and numeric strings (YAML reads 1e-10,
    with no dot, as a string); int fields take ints only. An int stays an
    int, so ``gamma: 0`` echoes as 0.
    """
    if val is None and kind == "int | None" or type(val) is int:
        return val
    if kind == "float" and isinstance(val, (float, str)):
        try:
            return float(val)
        except ValueError:
            pass
    noun = "a number" if kind == "float" else "an integer"
    raise UsageError(f"config key {key} must be {noun}, got {val!r}")


def load_config(path) -> RunConfig:
    """Parse a YAML mapping into a RunConfig, rejecting unknown keys; the
    RunConfig checks every value. ``output_dir`` resolves against the
    config file's directory."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc.strerror}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a key-value mapping")
    unknown = sorted(map(str, set(raw) - {f.name for f in fields(RunConfig)}))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    cfg = RunConfig(**raw)
    if "output_dir" in raw:
        cfg = replace(cfg, output_dir=str(Path(path).resolve().parent / cfg.output_dir))
    return cfg


def _load_table(read, path: Path, what: str):
    """Read an input file with ``read``: the one place that names the file in an error."""
    try:
        return read(path)
    except OSError as exc:
        raise UsageError(f"cannot read {what} from {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UsageError(f"bad {what} table {path}: {exc}") from exc


def _build_params(cfg: RunConfig, base: Path) -> ModelParams:
    if cfg.r1_path is not None:
        r1 = _load_table(read_distribution, base / cfg.r1_path, "r1")
    elif cfg.gamma == 1.0:
        r1 = DegreeDistribution.from_probs({0: 1.0})
    else:
        raise UsageError("r1_path is required when gamma < 1")
    if cfg.rn_path is not None:
        rn = _load_table(read_distribution, base / cfg.rn_path, "rn")
    elif cfg.gamma == 0.0:
        rn = DegreeDistribution.from_probs({max(cfg.mu, 0): 1.0})
    else:
        raise UsageError("rn_path is required when gamma > 0")
    return ModelParams(gamma=cfg.gamma, n=cfg.n, mu=cfg.mu, r1=r1, rn=rn)


def _degree(what: str, val) -> int:
    """``val`` as an integer degree; a float only when integral (2.0, not 1.9)."""
    if type(val) is int or isinstance(val, float) and val.is_integer():
        return int(val)
    raise UsageError(f"{what} must be an integer degree, got {val!r}")


# the values of a rule's M that leave its window unbounded
_UNBOUNDED = (None, math.inf, "inf", ".inf")
# rule kind -> the keys it takes besides "kind"
_RULE_KEYS = {"linear": {"g", "M"}, "constant": {"g", "M", "value"}, "power": {"g", "M", "exponent"}}


def _rule(rule) -> dict:
    """``rule`` checked, keeping only the keys given; integral float bounds
    become ints, so ``M: 40.0`` echoes as ``M: 40`` does."""
    if not isinstance(rule, dict) or "kind" not in rule:
        raise UsageError("preference_rule must be a mapping with a 'kind' key")
    rule = dict(rule)
    if "g" in rule:
        rule["g"] = _degree("preference_rule key g", rule["g"])
    if rule.get("M") not in _UNBOUNDED:
        rule["M"] = _degree("preference_rule key M", rule["M"])
    kind = rule["kind"]
    if not isinstance(kind, str) or kind not in _RULE_KEYS:
        raise UsageError(f"unknown preference_rule kind {kind!r}")
    if kind == "power" and "exponent" not in rule:
        raise UsageError("preference_rule missing key 'exponent'")
    unknown = set(rule) - {"kind", *_RULE_KEYS[kind]}
    if unknown:
        raise UsageError(f"unknown preference_rule keys: {', '.join(sorted(map(str, unknown)))}")
    for key in set(rule) & {"value", "exponent"}:
        _number(f"preference_rule.{key}", rule[key], "float")
    return rule


def _degree_pair(win) -> tuple[int, int]:
    """``win`` as a (low, high) pair of integer degrees."""
    if not isinstance(win, (list, tuple)) or len(win) != 2:
        raise UsageError("calibration_window must be a [low, high] pair")
    return _degree("calibration_window", win[0]), _degree("calibration_window", win[1])


# config key -> its check, beyond the number and path keys
_CHECKS = {"preference_rule": _rule, "calibration_window": _degree_pair}


def _rule_preference(rule: dict) -> PreferenceFunction:
    """The preference function of a rule that ``_rule`` has checked."""
    g = rule.get("g", 1)
    m_top = math.inf if rule.get("M") in _UNBOUNDED else rule["M"]
    try:
        if rule["kind"] == "linear":
            return PreferenceFunction.linear(g=g, M=m_top)
        if rule["kind"] == "constant":
            return PreferenceFunction.constant(rule.get("value", 1.0), g=g, M=m_top)
        e = float(rule["exponent"])
        return PreferenceFunction.from_rule(lambda k: np.asarray(k, dtype=float) ** e, g=g, M=m_top)
    except ValueError as exc:
        raise UsageError(f"bad preference_rule: {exc}") from exc


def _build_preference(cfg: RunConfig, base: Path) -> PreferenceFunction:
    if cfg.preference_path and cfg.preference_rule:
        raise UsageError("give preference_path or preference_rule, not both")
    if cfg.preference_path:
        return _load_table(read_preference, base / cfg.preference_path, "preference")
    if cfg.preference_rule:
        return _rule_preference(cfg.preference_rule)
    raise UsageError("config needs preference_path or preference_rule")


def _echo(cfg: RunConfig, extra: dict | None = None) -> dict:
    """Header entries common to every output file."""
    out = {"tool": f"polyadnet {__version__}"}
    for key in ("gamma", "n", "mu", "seed_size", "steps", "rng_seed",
                "r1_path", "rn_path", "preference_path", "target_vdd_path"):
        if getattr(cfg, key) is not None:
            out[key] = getattr(cfg, key)
    if cfg.preference_rule:
        out["preference_rule"] = dict(sorted(cfg.preference_rule.items()))
    if extra:
        out.update(extra)
    return out


def cmd_generate(cfg: RunConfig, base: Path, args) -> int:
    p = _build_params(cfg, base)
    f = _build_preference(cfg, base)
    out = Path(cfg.output_dir)
    g = seed_complete(cfg.seed_size)
    saturated = False
    try:
        stats = grow(g, p, f, cfg.steps, cfg.rng_seed)
    except SaturationError as exc:
        stats = exc.stats
        saturated = True
        print(f"error: sampling saturated after {stats.steps} steps", file=sys.stderr)
    write_edge_list(g, out / "edges.tsv", _echo(cfg, {"saturated": saturated}))
    entries = {
        "saturated": saturated,
        "steps": stats.steps,
        "monad_steps": stats.monad_steps,
        "nad_steps": stats.nad_steps,
        "realized_vertices": stats.realized_vertices,
        "realized_edges": stats.realized_edges,
        "vertices": g.n,
        "edges": g.edge_count,
        "rng_seed": stats.rng_seed,
        "expected_vertices_per_step": p.c,
        "expected_edges_per_step": p.edges_per_step,
    }
    write_stats(entries, out / "stats.txt")
    write_distribution(empirical_vdd(g), out / "empirical_vdd.tsv", _echo(cfg))
    print(f"generate: vertices={g.n} edges={g.edge_count} out={out}")
    return 1 if saturated else 0


def cmd_solve(cfg: RunConfig, base: Path, args) -> int:
    p = _build_params(cfg, base)
    f = _build_preference(cfg, base)
    out = Path(cfg.output_dir)
    sol = solve_stationary(p, f, tol=cfg.tol, k_max=cfg.k_max)
    write_q_table(sol, out / "q_table.csv", _echo(cfg))
    print(
        f"solve: mean_f={sol.mean_f!r} k_max={sol.k_max} "
        f"residual={sol.balance_residual:.3e} tail={sol.tail_mass_bound:.3e}"
    )
    return 0


def _fail(report: dict, path: Path, message: str) -> int:
    """Write the report of a failed run, say why on stderr; exit code 1."""
    write_stats(report, path)
    print(f"error: {message}", file=sys.stderr)
    return 1


def _calibrate_stage(cfg: RunConfig, base: Path, p: ModelParams, command: str):
    """Calibrate f to the target VDD, solve forward from it and compare.

    Returns (output dir, calibration result, forward solution, forward
    report entries); the last two are None for an infeasible target. A
    feasible run writes preference.tsv and forward_q_table.csv, both only
    once the forward solve has succeeded. A missing target raises
    UsageError; a bad target or solver setting raises InputError, and
    NonConvergenceError from the forward solve propagates.
    """
    if cfg.target_vdd_path is None:
        raise UsageError(f"{command} needs target_vdd_path")
    target = _load_table(read_distribution, base / cfg.target_vdd_path, "target VDD")
    out = Path(cfg.output_dir)
    result = calibrate(target, p, window=cfg.calibration_window)
    if not result.feasible:
        return out, result, None, None
    sol = solve_stationary(p, result.f, tol=cfg.tol, k_max=cfg.k_max)
    write_preference(result.f, out / "preference.tsv", _echo(cfg))
    write_q_table(sol, out / "forward_q_table.csv", _echo(cfg))
    tv, limit = compare(target, sol.q).tv_distance, cfg.forward_tv_max
    forward = {"forward_tv": tv, "forward_tv_max": limit, "forward_pass": tv < limit}
    return out, result, sol, forward


def cmd_calibrate(cfg: RunConfig, base: Path, args) -> int:
    out, result, _, forward = _calibrate_stage(cfg, base, _build_params(cfg, base), "calibrate")
    report: dict = {"feasible": result.feasible, "a": repr(result.a)}
    path = out / "calibration_report.txt"
    if not result.feasible:
        k = result.first_infeasible_k
        report.update(first_infeasible_k=k, min_raw_weight=repr(min(result.raw_weights.values())))
        return _fail(report, path, f"target infeasible, first nonpositive preference at k={k}")
    window = f"{result.f.g}..{result.f.M}"
    report.update(window=window, **forward)
    write_stats(report, path)
    print(f"calibrate: feasible window={window} forward_tv={forward['forward_tv']:.3e}")
    return 0


def _graph_and_vdd(path) -> tuple:
    g, _ = read_edge_list(path)
    return g, empirical_vdd(g)


def cmd_analyze(cfg: RunConfig, base: Path, args) -> int:
    if not args.edges:
        raise UsageError("analyze needs --edges PATH")
    g, empirical = _load_table(_graph_and_vdd, Path(args.edges), "edge list")
    out = Path(cfg.output_dir)

    triangles = triangle_count(g)
    summary: dict = {"tool": f"polyadnet {__version__}", "vertices": g.n,
                     "edges": g.edge_count, "triangles": triangles}
    try:
        summary["clustering"] = repr(global_clustering(g, triangles))
    except ValueError:
        summary["clustering"] = "undefined"

    theory_path = args.theory or (cfg.target_vdd_path and base / cfg.target_vdd_path)
    report_path = out / "analysis_report.csv"
    if theory_path:
        theory = _load_table(read_distribution, Path(theory_path), "theory VDD")
        rep = compare(empirical, theory)
        write_report(report_path, empirical, theory, rep, summary)
        print(
            f"analyze: tv={rep.tv_distance:.4f} ks={rep.ks_statistic:.4f} "
            f"triangles={summary['triangles']}"
        )
    else:
        rows = (f"{k},{pr!r}" for k, pr in empirical.items())
        write_table(report_path, summary, rows, title="k,empirical")
        print(f"analyze: triangles={summary['triangles']} (no theory table given)")
    return 0


def cmd_roundtrip(cfg: RunConfig, base: Path, args) -> int:
    path = Path(cfg.output_dir) / "roundtrip_report.txt"
    p = _build_params(cfg, base)
    try:
        out, result, sol, forward = _calibrate_stage(cfg, base, p, "roundtrip")
    except NonConvergenceError as exc:
        # only a feasible calibration reaches the forward solve
        report = {"calibrate_feasible": True, "a": repr(p.a), "failed_stage": "solve"}
        return _fail(report, path, f"stage solve failed: {exc}")
    report: dict = {"calibrate_feasible": result.feasible, "a": repr(result.a)}
    if not result.feasible:
        k = result.first_infeasible_k
        report.update(failed_stage="calibrate", first_infeasible_k=k)
        return _fail(report, path, f"stage calibrate failed, first nonpositive preference at k={k}")
    report.update(forward)
    tvs = []
    for i in range(cfg.replications):
        g = seed_complete(cfg.seed_size)
        try:
            grow(g, p, result.f, cfg.steps, cfg.rng_seed + i)
        except SaturationError:
            report["failed_stage"] = f"generate (replication {i})"
            return _fail(report, path, f"stage generate failed: replication {i} saturated")
        echo = _echo(cfg, {"replication": i, "rep_seed": cfg.rng_seed + i})
        write_edge_list(g, out / f"edges_rep{i}.tsv", echo)
        tv = compare(empirical_vdd(g), sol.q).tv_distance
        tvs.append(tv)
        report[f"empirical_tv_rep{i}"] = repr(tv)
    mean_tv = sum(tvs) / len(tvs)
    empirical_pass = mean_tv < cfg.empirical_tv_max
    overall = forward["forward_pass"] and empirical_pass
    report.update(empirical_tv_mean=repr(mean_tv), empirical_tv_max=repr(cfg.empirical_tv_max),
                  empirical_pass=empirical_pass, overall_pass=overall)
    write_stats(report, path)
    verdict = {True: "pass", False: "FAIL"}
    print(
        f"roundtrip: forward_tv={forward['forward_tv']:.3e} ({verdict[forward['forward_pass']]}) "
        f"empirical_tv={mean_tv:.4f} ({verdict[empirical_pass]})"
    )
    return 0 if overall else 1


# subcommand -> (function, help); every function takes (cfg, base, args)
COMMANDS = {
    "generate": (cmd_generate, "grow a graph and write edge list, stats and empirical VDD"),
    "solve": (cmd_solve, "solve the stationary degree distribution"),
    "calibrate": (cmd_calibrate, "recover a preference function for a target VDD"),
    "analyze": (cmd_analyze, "compare a written graph against a theoretical VDD"),
    "roundtrip": (cmd_roundtrip, "calibrate, verify, generate and compare in one run"),
}

# flag -> (RunConfig key it overrides, type, metavar), on every subcommand
_OVERRIDES = {
    "seed": ("rng_seed", int, "U64"),
    "steps": ("steps", int, "N"),
    "out": ("output_dir", str, "DIR"),
    "tol": ("tol", float, "REAL"),
    "kmax": ("k_max", int, "N"),
    "replications": ("replications", int, "N"),
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyadnet",
        description="Grow, solve, calibrate and analyze clique-increment attachment graphs.",
    )
    ap.add_argument("--version", action="version", version=f"polyadnet {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="YAML run configuration")
        for flag, (key, kind, metavar) in _OVERRIDES.items():
            sp.add_argument(f"--{flag}", type=kind, metavar=metavar, help=f"override {key}")
        if name == "analyze":
            sp.add_argument("--edges", metavar="PATH", help="edge list to analyze")
            sp.add_argument("--theory", metavar="PATH", help="theoretical VDD table")
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    made = []  # the parts of the output dir that this run made, outermost first
    try:
        cfg, base = RunConfig(), Path()
        if args.config:
            cfg, base = load_config(args.config), Path(args.config).resolve().parent
        flags = {key: getattr(args, flag) for flag, (key, _, _) in _OVERRIDES.items()
                 if getattr(args, flag) is not None}
        cfg = replace(cfg, **flags)
        out = Path(cfg.output_dir)
        # part by part, so that x/.. exists once x is made
        for part in reversed((out, *out.parents)):
            if not part.is_dir():
                try:
                    part.mkdir()
                except OSError as exc:
                    raise UsageError(f"cannot create output dir {out}: {exc.strerror}") from exc
                made.append(part)
        return COMMANDS[args.command][0](cfg, base, args)
    except (InputError, OSError) as exc:
        for part in reversed(made):
            with suppress(OSError):  # rmdir keeps a dir that a file was written into
                part.rmdir()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
