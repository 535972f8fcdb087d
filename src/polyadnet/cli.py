"""Command line front end.

Subcommands cover the whole validation loop: generate a graph, solve the
stationary distribution, calibrate a preference function to a target
distribution, analyze a written graph, and run the full
calibrate-solve-generate-compare round trip.

Configuration lives in one YAML file (flat keys, see RunConfig); every
flag overrides its config key. Paths inside the config resolve relative
to the config file, paths given on the command line relative to the
working directory. All randomness flows from the single rng_seed key;
replication i of a multi-run command uses rng_seed + i. Outputs carry a
comment header with the tool version and the parameter echo and contain
no timestamps, so equal config plus seed means byte-identical files.

Exit codes: 0 success, 1 model-level failure (saturation, infeasible
target, non-convergence, missed round-trip tolerance), 2 usage or IO
error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import compare, global_clustering, loglog_slope, triangle_count, write_report
from .calibrate import calibrate
from .distributions import DegreeDistribution, read_distribution, write_distribution, write_table
from .engine import grow, read_edge_list, write_edge_list, write_stats
from .graph import empirical_vdd, seed_complete
from .layers import SaturationError
from .params import ModelParams, validate_params
from .preference import PreferenceFunction, read_preference, write_preference
from .solver import NonConvergenceError, solve_stationary, write_q_table

__all__ = ["RunConfig", "load_config", "main"]


@dataclass
class RunConfig:
    gamma: float = 0.0
    n: int = 2
    mu: int = 0
    r1_path: str | None = None
    rn_path: str | None = None
    preference_path: str | None = None
    preference_rule: dict | None = None
    target_vdd_path: str | None = None
    calibration_window: list | None = None
    seed_size: int = 4
    steps: int = 1000
    rng_seed: int = 0
    tol: float = 1e-10
    k_max: int | None = None
    output_dir: str = "."
    replications: int = 1
    forward_tv_max: float = 1e-6
    empirical_tv_max: float = 0.05


class UsageError(Exception):
    """Bad config, flags, or input files; maps to exit code 2."""


def load_config(path) -> RunConfig:
    """Parse a YAML mapping into a RunConfig, rejecting unknown keys."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a key-value mapping")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    try:
        cfg = RunConfig(**raw)
        if "output_dir" in raw:
            cfg.output_dir = str(_resolve(Path(path).resolve().parent, raw["output_dir"]))
        return cfg
    except TypeError as exc:
        raise UsageError(f"bad config value: {exc}") from exc


def _resolve(base: Path | None, path: str) -> Path:
    p = Path(path)
    if p.is_absolute() or base is None:
        return p
    return base / p


def _load_dist(path: Path, what: str) -> DegreeDistribution:
    """Read a tab table, or a solver ``k,Q`` CSV, naming ``what`` on failure."""
    try:
        return read_distribution(path)
    except OSError as exc:
        raise UsageError(f"cannot read {what} from {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad {what} table {path}: {exc}") from exc


def _build_params(cfg: RunConfig, base: Path | None) -> ModelParams:
    if cfg.r1_path is not None:
        r1 = _load_dist(_resolve(base, cfg.r1_path), "r1")
    elif cfg.gamma == 1.0:
        r1 = DegreeDistribution.from_probs({0: 1.0})
    else:
        raise UsageError("r1_path is required when gamma < 1")
    if cfg.rn_path is not None:
        rn = _load_dist(_resolve(base, cfg.rn_path), "rn")
    elif cfg.gamma == 0.0:
        rn = DegreeDistribution.from_probs({max(cfg.mu, 0): 1.0})
    else:
        raise UsageError("rn_path is required when gamma > 0")
    try:
        return validate_params(
            ModelParams(gamma=cfg.gamma, n=cfg.n, mu=cfg.mu, r1=r1, rn=rn)
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _rule_preference(rule: dict) -> PreferenceFunction:
    if not isinstance(rule, dict) or "kind" not in rule:
        raise UsageError("preference_rule must be a mapping with a 'kind' key")
    opts = dict(rule)
    kind = opts.pop("kind")
    g = int(opts.pop("g", 1))
    m_raw = opts.pop("M", None)
    if m_raw in (None, "inf", ".inf"):
        m_top = math.inf
    else:
        m_top = float(m_raw)
        if m_top.is_integer():
            m_top = int(m_top)
    try:
        if kind == "linear":
            f = PreferenceFunction.linear(g=g, M=m_top)
        elif kind == "constant":
            f = PreferenceFunction.constant(float(opts.pop("value", 1.0)), g=g, M=m_top)
        elif kind == "power":
            e = float(opts.pop("exponent"))
            f = PreferenceFunction.from_rule(
                lambda k: np.asarray(k, dtype=float) ** e,
                g=max(g, 1),
                M=m_top,
                label=f"k^{e}",
            )
        else:
            raise UsageError(f"unknown preference_rule kind {kind!r}")
    except KeyError as exc:
        raise UsageError(f"preference_rule missing key {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad preference_rule: {exc}") from exc
    if opts:
        raise UsageError(f"unknown preference_rule keys: {', '.join(sorted(opts))}")
    return f


def _build_preference(cfg: RunConfig, base: Path | None) -> PreferenceFunction:
    if cfg.preference_path and cfg.preference_rule:
        raise UsageError("give preference_path or preference_rule, not both")
    if cfg.preference_path:
        try:
            return read_preference(_resolve(base, cfg.preference_path))
        except OSError as exc:
            raise UsageError(f"cannot read preference table: {exc}") from exc
        except ValueError as exc:
            raise UsageError(f"bad preference table: {exc}") from exc
    if cfg.preference_rule:
        return _rule_preference(cfg.preference_rule)
    raise UsageError("config needs preference_path or preference_rule")


def _echo(cfg: RunConfig, extra: dict | None = None) -> dict:
    """Header entries common to every output file."""
    out = {"tool": f"polyadnet {__version__}"}
    out.update(
        gamma=cfg.gamma,
        n=cfg.n,
        mu=cfg.mu,
        seed_size=cfg.seed_size,
        steps=cfg.steps,
        rng_seed=cfg.rng_seed,
    )
    for key in ("r1_path", "rn_path", "preference_path", "target_vdd_path"):
        val = getattr(cfg, key)
        if val is not None:
            out[key] = val
    if cfg.preference_rule:
        out["preference_rule"] = dict(sorted(cfg.preference_rule.items()))
    if extra:
        out.update(extra)
    return out


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output dir {out}: {exc}") from exc
    return out


def cmd_generate(cfg: RunConfig, base: Path | None) -> int:
    p = _build_params(cfg, base)
    f = _build_preference(cfg, base)
    if cfg.seed_size < 2:
        raise UsageError(f"seed_size={cfg.seed_size} must be >= 2")
    if cfg.steps < 0:
        raise UsageError(f"steps={cfg.steps} must be >= 0")
    out = _out_dir(cfg)
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
        "edges": len(g.edges),
        "rng_seed": stats.rng_seed,
        "expected_vertices_per_step": p.c,
        "expected_edges_per_step": p.edges_per_step,
    }
    write_stats(entries, out / "stats.txt")
    write_distribution(empirical_vdd(g), out / "empirical_vdd.tsv", _echo(cfg))
    print(f"generate: vertices={g.n} edges={len(g.edges)} out={out}")
    return 1 if saturated else 0


def cmd_solve(cfg: RunConfig, base: Path | None) -> int:
    p = _build_params(cfg, base)
    f = _build_preference(cfg, base)
    out = _out_dir(cfg)
    try:
        sol = solve_stationary(p, f, tol=cfg.tol, k_max=cfg.k_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    write_q_table(sol, out / "q_table.csv", _echo(cfg))
    print(
        f"solve: mean_f={sol.mean_f!r} k_max={sol.k_max} "
        f"residual={sol.balance_residual:.3e} tail={sol.tail_mass_bound:.3e}"
    )
    return 0


def _window(cfg: RunConfig) -> tuple[int, int] | None:
    if cfg.calibration_window is None:
        return None
    win = cfg.calibration_window
    if not isinstance(win, (list, tuple)) or len(win) != 2:
        raise UsageError("calibration_window must be a [low, high] pair")
    return int(win[0]), int(win[1])


def _target_run(cfg: RunConfig, base: Path | None, command: str):
    """Parameters, target VDD and output dir of calibrate and roundtrip."""
    p = _build_params(cfg, base)
    if cfg.target_vdd_path is None:
        raise UsageError(f"{command} needs target_vdd_path")
    target = _load_dist(_resolve(base, cfg.target_vdd_path), "target VDD")
    return p, target, _out_dir(cfg)


def _calibrate_stage(cfg: RunConfig, p: ModelParams, target: DegreeDistribution, out: Path):
    """Calibrate f to the target, solve forward from it and compare.

    Returns (calibration result, forward solution, forward TV to the
    target); the last two are None for an infeasible target. A feasible
    run writes preference.tsv and forward_q_table.csv, both only once the
    forward solve has succeeded. Bad window or solver settings raise
    UsageError; NonConvergenceError from the forward solve propagates.
    """
    try:
        result = calibrate(target, p, window=_window(cfg))
        if not result.feasible:
            return result, None, None
        sol = solve_stationary(p, result.f, tol=cfg.tol, k_max=cfg.k_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    write_preference(result.f, out / "preference.tsv", _echo(cfg))
    write_q_table(sol, out / "forward_q_table.csv", _echo(cfg))
    return result, sol, compare(target, sol.q).tv_distance


def cmd_calibrate(cfg: RunConfig, base: Path | None) -> int:
    p, target, out = _target_run(cfg, base, "calibrate")
    result, _, forward_tv = _calibrate_stage(cfg, p, target, out)
    report: dict = {"feasible": result.feasible, "a": repr(result.a)}
    code = 0
    if result.feasible:
        report.update(
            window=f"{result.f.g}..{result.f.M}",
            forward_tv=repr(forward_tv),
            forward_tv_max=repr(cfg.forward_tv_max),
            forward_pass=forward_tv < cfg.forward_tv_max,
        )
        print(f"calibrate: feasible window={result.f.g}..{result.f.M} forward_tv={forward_tv:.3e}")
    else:
        report["first_infeasible_k"] = result.first_infeasible_k
        worst = min(result.raw_weights.values())
        report["min_raw_weight"] = repr(worst)
        print(
            "error: target infeasible, first nonpositive preference at "
            f"k={result.first_infeasible_k}",
            file=sys.stderr,
        )
        code = 1
    write_stats(report, out / "calibration_report.txt")
    return code


def cmd_analyze(cfg: RunConfig, base: Path | None, args) -> int:
    if not args.edges:
        raise UsageError("analyze needs --edges PATH")
    try:
        g, _ = read_edge_list(args.edges)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read edge list {args.edges}: {exc}") from exc
    empirical = empirical_vdd(g)
    out = _out_dir(cfg)

    triangles = triangle_count(g)
    summary: dict = {
        "tool": f"polyadnet {__version__}",
        "vertices": g.n,
        "edges": len(g.edges),
        "triangles": triangles,
    }
    try:
        summary["clustering"] = repr(global_clustering(g, triangles))
    except ValueError:
        summary["clustering"] = "undefined"
    try:
        summary["loglog_slope"] = repr(
            loglog_slope(empirical, args.slope_lo, args.slope_hi)
        )
    except ValueError:
        summary["loglog_slope"] = "undefined"

    theory_path = args.theory or (
        _resolve(base, cfg.target_vdd_path) if cfg.target_vdd_path else None
    )
    report_path = out / "analysis_report.csv"
    if theory_path is not None:
        theory = _load_dist(Path(theory_path), "theory VDD")
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


def cmd_roundtrip(cfg: RunConfig, base: Path | None) -> int:
    if cfg.replications < 1:
        raise UsageError(f"replications={cfg.replications} must be >= 1")
    p, target, out = _target_run(cfg, base, "roundtrip")
    try:
        result, sol, forward_tv = _calibrate_stage(cfg, p, target, out)
    except NonConvergenceError as exc:
        # only a feasible calibration reaches the forward solve
        report = {"calibrate_feasible": True, "a": repr(p.a), "failed_stage": "solve"}
        write_stats(report, out / "roundtrip_report.txt")
        print(f"error: stage solve failed: {exc}", file=sys.stderr)
        return 1
    report: dict = {"calibrate_feasible": result.feasible, "a": repr(result.a)}
    if not result.feasible:
        report["failed_stage"] = "calibrate"
        report["first_infeasible_k"] = result.first_infeasible_k
        write_stats(report, out / "roundtrip_report.txt")
        print(
            f"error: stage calibrate failed, first nonpositive preference at "
            f"k={result.first_infeasible_k}",
            file=sys.stderr,
        )
        return 1
    forward_pass = forward_tv < cfg.forward_tv_max
    report.update(
        forward_tv=repr(forward_tv),
        forward_tv_max=repr(cfg.forward_tv_max),
        forward_pass=forward_pass,
    )

    tvs = []
    for i in range(cfg.replications):
        g = seed_complete(cfg.seed_size)
        try:
            grow(g, p, result.f, cfg.steps, cfg.rng_seed + i)
        except SaturationError:
            report["failed_stage"] = f"generate (replication {i})"
            write_stats(report, out / "roundtrip_report.txt")
            print(f"error: stage generate failed: replication {i} saturated", file=sys.stderr)
            return 1
        write_edge_list(
            g, out / f"edges_rep{i}.tsv", _echo(cfg, {"replication": i, "rep_seed": cfg.rng_seed + i})
        )
        tv = compare(empirical_vdd(g), sol.q).tv_distance
        tvs.append(tv)
        report[f"empirical_tv_rep{i}"] = repr(tv)
    mean_tv = sum(tvs) / len(tvs)
    empirical_pass = mean_tv < cfg.empirical_tv_max
    overall = forward_pass and empirical_pass
    report.update(
        empirical_tv_mean=repr(mean_tv),
        empirical_tv_max=repr(cfg.empirical_tv_max),
        empirical_pass=empirical_pass,
        overall_pass=overall,
    )
    write_stats(report, out / "roundtrip_report.txt")
    print(
        f"roundtrip: forward_tv={forward_tv:.3e} ({'pass' if forward_pass else 'FAIL'}) "
        f"empirical_tv={mean_tv:.4f} ({'pass' if empirical_pass else 'FAIL'})"
    )
    return 0 if overall else 1


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
    for name, help_text in (
        ("generate", "grow a graph and write edge list, stats and empirical VDD"),
        ("solve", "solve the stationary degree distribution"),
        ("calibrate", "recover a preference function for a target VDD"),
        ("analyze", "compare a written graph against a theoretical VDD"),
        ("roundtrip", "calibrate, verify, generate and compare in one run"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="YAML run configuration")
        for flag, (key, kind, metavar) in _OVERRIDES.items():
            sp.add_argument(f"--{flag}", type=kind, metavar=metavar, help=f"override {key}")
        if name == "analyze":
            sp.add_argument("--edges", metavar="PATH", help="edge list to analyze")
            sp.add_argument("--theory", metavar="PATH", help="theoretical VDD table")
            sp.add_argument("--slope-lo", type=int, dest="slope_lo", help="slope fit lower degree")
            sp.add_argument("--slope-hi", type=int, dest="slope_hi", help="slope fit upper degree")
    return ap


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    updates = {
        key: getattr(args, flag)
        for flag, (key, _, _) in _OVERRIDES.items()
        if getattr(args, flag) is not None
    }
    return replace(cfg, **updates)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config:
            cfg = load_config(args.config)
            base = Path(args.config).resolve().parent
        else:
            cfg = RunConfig()
            base = None
        cfg = _apply_overrides(cfg, args)
        if args.command == "generate":
            return cmd_generate(cfg, base)
        if args.command == "solve":
            return cmd_solve(cfg, base)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, base)
        if args.command == "analyze":
            return cmd_analyze(cfg, base, args)
        return cmd_roundtrip(cfg, base)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # SaturationError and NonConvergenceError both land here.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
