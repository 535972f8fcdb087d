"""The benchmark's workloads: the CLI commands each one runs and their checks.

A workload writes its configs and tables once (``setup``), then every pass
runs the same CLI commands into a fresh output directory. Each command has
a check that reads what the command wrote and returns a list of problems;
an empty list means the command did what it should. Checks read files only,
so they hold for the command whether it ran in this process or in a child.

The checks never import the package: expected values come from the tables
written here, so a change to the package's own bookkeeping cannot move them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

LINEAR = {"kind": "linear", "g": 1}
STEPS = 50_000

# increment tables (degree -> probability), written to <name>.tsv
TABLES = {
    "r1_m2": {2: 1.0},
    "r1_m1": {1: 1.0},
    "rn_12": {1: 0.5, 2: 0.5},
    "rn_1": {1: 1.0},
    # the criterion-3 mixture of tests/test_acceptance.py
    "r1_crit3": {1: 0.049737, 2: 0.950263},
    "rn_crit3": {1: 0.39091, 2: 0.04, 3: 0.08, 4: 0.12, 5: 0.16, 6: 0.2, 7: 0.00909},
}

BA = dict(gamma=0.0, n=2, mu=0, r1_path="r1_m2.tsv")
CRIT3 = dict(gamma=0.01, n=5, mu=1, r1_path="r1_crit3.tsv", rn_path="rn_crit3.tsv")
MIXED = dict(gamma=0.3, n=3, mu=1, r1_path="r1_m1.tsv", rn_path="rn_12.tsv")
PENTADS = dict(gamma=1.0, n=5, mu=0, rn_path="rn_1.tsv", seed_size=5)


def _mean(table_name: str) -> float:
    return sum(k * p for k, p in TABLES[table_name].items())


def mean_degree(cfg: dict) -> float:
    """2 E / V for f(k)=k: edges and vertices added per step, from the tables.

    A monad adds one vertex and m1 edges; an n-ad adds n vertices, the
    n(n-1)/2 clique edges and n * mn free edges. With every arrival degree
    inside the preference window this is the stationary mean_f.
    """
    gamma, n = cfg["gamma"], cfg["n"]
    m1 = _mean(Path(cfg["r1_path"]).stem) if gamma < 1.0 else 0.0
    mn = _mean(Path(cfg["rn_path"]).stem) if gamma > 0.0 else 0.0
    vertices = (1.0 - gamma) + gamma * n
    edges = (1.0 - gamma) * m1 + gamma * (n * (n - 1) / 2 + n * mn)
    return 2.0 * edges / vertices


def read_header(path: Path) -> dict[str, str]:
    """The leading ``# key=value`` lines of a table, without reading the rows."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, val = line[1:].strip().partition("=")
            out.setdefault(key.strip(), val.strip())
    return out


def read_keyvals(path: Path) -> dict[str, str]:
    """A flat ``key=value`` file such as stats.txt or a run report."""
    out: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key.strip()] = val.strip()
    return out


@dataclass
class Command:
    """One CLI invocation of a pass and the check of its output.

    ``argv(cfg, out)`` builds the arguments from the config directory and
    the pass's output directory. ``check(code, out, memo)`` returns the
    problems found; ``memo`` survives across the passes of one run, for
    outputs that must repeat exactly.
    """

    config: str
    group: str  # solve, solve-reject, generate or roundtrip
    argv: Callable[[Path, Path], list[str]]
    check: Callable[[int, Path, dict], list[str]]
    # the solve_stationary exception type the command must end with, if any
    raises: str | None = None


@dataclass
class Workload:
    name: str
    why: str
    configs: dict[str, dict]
    commands: list[Command]
    # configs solved during set-up, before any pass (roundtrip's target)
    setup_solves: list[str] = field(default_factory=list)


# ---- checks -------------------------------------------------------------


def check_solve(expected_mean: float, tol: float = 1e-10) -> Callable:
    def check(code: int, out: Path, memo: dict) -> list[str]:
        if code != 0:
            return [f"exit code {code}, expected 0"]
        path = out / "q_table.csv"
        if not path.exists():
            return ["q_table.csv missing"]
        head = read_header(path)
        problems = []
        try:
            tail = float(head["tail_mass_bound"])
            residual = float(head["balance_residual"])
            mean_f = float(head["mean_f"])
        except (KeyError, ValueError) as exc:
            return [f"q_table.csv header unreadable: {exc!r}"]
        if not tail < tol:
            problems.append(f"tail_mass_bound {tail!r} not below tol {tol!r}")
        if not residual <= 1e-12:
            problems.append(f"balance_residual {residual!r} above 1e-12")
        if not abs(mean_f - expected_mean) <= 1e-8 * expected_mean:
            problems.append(f"mean_f {mean_f!r} not within 1e-8 of {expected_mean!r}")
        return problems

    return check


def check_reject(code: int, out: Path, memo: dict) -> list[str]:
    problems = []
    if code != 1:
        problems.append(f"exit code {code}, expected 1")
    if (out / "q_table.csv").exists():
        problems.append("q_table.csv written for a rejected solve")
    return problems


def _edge_lines(path: Path) -> tuple[int, str]:
    """Edge lines (all lines after the comment header) and the file's digest."""
    data = path.read_bytes()
    pos = header = 0
    while data.startswith(b"#", pos):
        pos = data.index(b"\n", pos) + 1
        header += 1
    return data.count(b"\n") - header, hashlib.sha256(data).hexdigest()


def check_generate(vertices: int | None = None, edges: int | None = None) -> Callable:
    def check(code: int, out: Path, memo: dict) -> list[str]:
        if code != 0:
            return [f"exit code {code}, expected 0"]
        try:
            stats = read_keyvals(out / "stats.txt")
            lines, digest = _edge_lines(out / "edges.tsv")
            n_edges = int(stats["edges"])
            n_vertices = int(stats["vertices"])
        except (OSError, KeyError, ValueError) as exc:
            return [f"generate output unreadable: {exc!r}"]
        problems = []
        if stats.get("saturated") != "False":
            problems.append(f"saturated={stats.get('saturated')}")
        if lines != n_edges:
            problems.append(f"edges.tsv has {lines} edges, stats say {n_edges}")
        if vertices is not None and n_vertices != vertices:
            problems.append(f"vertices {n_vertices}, expected {vertices}")
        if edges is not None and n_edges != edges:
            problems.append(f"edges {n_edges}, expected {edges}")
        if memo.setdefault("edges_sha256", digest) != digest:
            problems.append("edges.tsv differs from the first pass of this run")
        return problems

    return check


def check_roundtrip(code: int, out: Path, memo: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        rep = read_keyvals(out / "roundtrip_report.txt")
        forward_ok = float(rep["forward_tv"]) < float(rep["forward_tv_max"])
        empirical_ok = float(rep["empirical_tv_mean"]) < float(rep["empirical_tv_max"])
    except (OSError, KeyError, ValueError) as exc:
        return [f"roundtrip report unreadable: {exc!r}"]
    problems = []
    if rep.get("overall_pass") != "True":
        problems.append(f"overall_pass={rep.get('overall_pass')}")
    if not forward_ok:
        problems.append(f"forward_tv {rep['forward_tv']} not below {rep['forward_tv_max']}")
    if not empirical_ok:
        problems.append(
            f"empirical_tv_mean {rep['empirical_tv_mean']} not below {rep['empirical_tv_max']}"
        )
    return problems


def check_analyze(code: int, out: Path, memo: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        triangles = int(read_header(out / "analysis_report.csv")["triangles"])
    except (OSError, KeyError, ValueError) as exc:
        return [f"analysis report unreadable: {exc!r}"]
    if memo.setdefault("triangles", triangles) != triangles:
        return [f"triangles {triangles} differ from the first pass ({memo['triangles']})"]
    return []


# ---- workloads ----------------------------------------------------------


def _cli(sub: str, name: str) -> Callable[[Path, Path], list[str]]:
    return lambda cfg, out: [sub, "--config", str(cfg / f"{name}.yaml"), "--out", str(out / name)]


def _analyze(cfg: Path, out: Path) -> list[str]:
    rt = out / "roundtrip"
    return [
        "analyze",
        "--edges", str(rt / "edges_rep0.tsv"),
        "--theory", str(rt / "forward_q_table.csv"),
        "--out", str(out / "analyze"),
    ]


def _solve_cmd(name: str, cfg: dict) -> Command:
    return Command(name, "solve", _cli("solve", name), check_solve(mean_degree(cfg)))


def _reject_cmd(name: str) -> Command:
    return Command(name, "solve-reject", _cli("solve", name), check_reject, raises="NonConvergenceError")


def _generate_cmd(name: str, vertices=None, edges=None) -> Command:
    return Command(name, "generate", _cli("generate", name), check_generate(vertices, edges))


def _group(name: str, seed: int) -> tuple[dict, list[Command], list[str]]:
    """Configs, commands and set-up solves of one group of commands."""
    if name == "solve":
        configs = {
            "ba": dict(BA, preference_rule=LINEAR),
            "crit3": dict(CRIT3, preference_rule=LINEAR),
            "mixed": dict(MIXED, preference_rule=LINEAR),
        }
        return configs, [_solve_cmd(c, cfg) for c, cfg in configs.items()], []
    if name == "solve-reject":
        # k_max is pinned: without it one k^1.5 solve ran past 12 minutes
        configs = {
            f"power{e}": dict(BA, preference_rule={"kind": "power", "exponent": e}, k_max=2048)
            for e in (1.5, 1.2)
        }
        return configs, [_reject_cmd(c) for c in configs], []
    if name == "generate":
        run = dict(preference_rule=LINEAR, steps=STEPS, rng_seed=seed)
        configs = {
            "ba": dict(BA, **run),
            "mixed": dict(MIXED, **run),
            "pentads": dict(PENTADS, **run),
        }
        commands = [
            _generate_cmd("ba", 4 + STEPS, 6 + 2 * STEPS),
            _generate_cmd("mixed"),
            _generate_cmd("pentads", 5 + 5 * STEPS, 10 + 15 * STEPS),
        ]
        return configs, commands, []
    if name == "roundtrip":
        configs = {
            "target": dict(MIXED, preference_rule=dict(LINEAR, M=300), tol=1e-12),
            "roundtrip": dict(
                MIXED,
                target_vdd_path="target/q_table.csv",
                calibration_window=[1, 300],
                replications=2,
                steps=STEPS,
                rng_seed=seed,
            ),
        }
        commands = [
            Command("roundtrip", "roundtrip", _cli("roundtrip", "roundtrip"), check_roundtrip),
            Command("analyze", "roundtrip", _analyze, check_analyze),
        ]
        return configs, commands, ["target"]
    raise KeyError(name)


# Each workload runs two groups of commands. A run measures one workload
# for a fixed time, and the machine's speed drifts by 15-20 % from one
# minute to the next, so two long workloads give steadier figures than
# four short ones. The groups stay apart in the per-layer metrics.
WORKLOADS = {
    "solve": (
        ("solve", "solve-reject"),
        "solver only: linear f over doubling tables up to 262k entries with q_table output, "
        "then superlinear f rejected after 1000+ sweeps of 2049 entries",
    ),
    "grow": (
        ("generate", "roundtrip"),
        "engine-bound: generate 50k steps of BA, mixed and pentads, then a calibrate-solve-grow "
        "roundtrip (2 x 50k steps) and analyze with its triangle count",
    ),
}
NAMES = tuple(WORKLOADS)


def build(name: str, seed: int) -> Workload:
    """The workload called ``name``, with every rng_seed derived from ``seed``."""
    groups, why = WORKLOADS[name]
    w = Workload(name, why, {}, [])
    for group in groups:
        configs, commands, setup_solves = _group(group, seed)
        w.configs.update(configs)
        w.commands += commands
        w.setup_solves += setup_solves
    return w


def write_inputs(w: Workload, cfg_dir: Path) -> None:
    """Write the increment tables and one YAML config per config name."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for table, probs in TABLES.items():
        (cfg_dir / f"{table}.tsv").write_text("".join(f"{k}\t{p!r}\n" for k, p in probs.items()))
    for name, cfg in w.configs.items():
        (cfg_dir / f"{name}.yaml").write_text(yaml.safe_dump(cfg))
