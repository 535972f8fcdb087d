#!/usr/bin/env python3
"""polyadnet benchmark: end-to-end and per-layer figures of the CLI.

Run from the root of a checkout; the package is imported from ``src/``.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

One run builds the workload's inputs from ``--seed``. A pass runs all of
the workload's CLI commands in-process through ``polyadnet.cli.main``.
With ``--trace 0`` it measures, in fresh child interpreters run one at a
time:

* ``setup_s``: from starting the interpreter until the first pass could
  begin: importing ``polyadnet.cli``, writing the configs and, for
  ``grow``, solving the roundtrip target. Median over three children.
* ``peak_rss_mb``: peak RSS (VmHWM) of the measuring child after its
  first pass, which is also its warm-up and is not timed.
* the first set-up child then runs the commands that must end in a solver
  exception with ``solve_stationary`` wrapped, to check the exception's
  type; no pass of the measuring child carries any wrapper.
* ``wall_s``: warm wall time of one pass. The measuring child repeats
  passes (at least two) until ``--seconds``, counted from its first
  pass, are used up; each command's median over the timed passes is
  taken and the medians are summed.

With ``--trace 1`` it times untraced passes for half of ``--seconds``, then
runs one pass with every public function of the package's modules wrapped
(see spans.py) and reports the per-layer metrics of that traced pass.

Every command's output is checked (workloads.py); ``attempted`` and
``failed`` in the result count CLI commands, and a failed check fails the
command. The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import os

# at most one BLAS/OpenMP thread in this process and its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_CHILDREN = 2  # fresh interpreters that only set up; the measuring child is one more
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# the configs whose commands run engine.grow
GROW_CONFIGS = ("ba", "mixed", "pentads", "roundtrip")

PER_LAYER = {
    **{f"cli.cmd_s.{c.group}.{c.config}": "s" for w in workloads.NAMES for c in workloads.build(w, 0).commands},
    "cli.cpu_s": "s",
    "solver.solve_stationary_s": "s",
    "solver.sweeps": "count",
    "solver.sweep_elements": "count",
    "solver.sweep_s": "s",
    "solver.ns_per_element": "ns",
    "solver.levels": "count",
    "solver.k_max": "count",
    "solver.iterations": "count",
    "solver.final_level_share": "ratio",
    "solver.write_q_table_s": "s",
    "distributions.from_probs_s": "s",
    "distributions.from_probs_entries": "count",
    "io.bytes_written": "B",
    "engine.grow_s": "s",
    "engine.steps": "count",
    **{f"engine.steps_per_s.{c}": "1/s" for c in GROW_CONFIGS},
    "engine.apply_monad_calls": "count",
    "engine.apply_nad_calls": "count",
    "engine.write_edge_list_s": "s",
    "engine.read_edge_list_s": "s",
    "layers.sample_many_calls": "count",
    "layers.draws": "count",
    "layers.sample_many_s": "s",
    "layers.insert_calls": "count",
    "layers.insert_s": "s",
    "layers.bump_calls": "count",
    "layers.bump_s": "s",
    "layers.build_s": "s",
    "graph.add_edge_calls": "count",
    "graph.add_edge_s": "s",
    "graph.add_vertex_calls": "count",
    "graph.bytes_per_edge": "B",
    "calibrate.calibrate_s": "s",
    "analysis.triangle_count_calls": "count",
    "analysis.triangle_count_s": "s",
    "analysis.compare_s": "s",
    "analysis.triangle_useful_ratio": "ratio",
    "trace.overhead_s": "s",
}
MISSING = -1  # value of a per-layer metric whose hook target is absent


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (bad checkout, failed set-up)."""


def check_source() -> None:
    if not (SRC / "polyadnet" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'polyadnet'}")


def import_cli():
    """Import polyadnet.cli from this checkout's src/, and nowhere else."""
    check_source()
    sys.path.insert(0, str(SRC))
    import polyadnet.cli

    if SRC not in Path(polyadnet.cli.__file__).resolve().parents:
        raise BenchError(f"imported polyadnet from {polyadnet.cli.__file__}, not {SRC}")
    return polyadnet.cli


def quiet_main(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process with its stdout and stderr captured."""
    cli = sys.modules["polyadnet.cli"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a dead benchmark
            return -1, f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue()


def setup(w: workloads.Workload, work: Path) -> Path:
    """Write the workload's inputs under ``work`` and run its set-up solves."""
    cfg = work / "cfg"
    workloads.write_inputs(w, cfg)
    for name in w.setup_solves:
        code, text = quiet_main(["solve", "--config", str(cfg / f"{name}.yaml"), "--out", str(cfg / name)])
        if code != 0:
            raise BenchError(f"set-up solve {name} exited {code}: {text.strip()}")
    return cfg


def run_pass(w, cfg: Path, out: Path, memos: dict, tracer=None) -> dict:
    """One pass over the workload's commands; times exclude the checks.

    With a tracer installed, each command runs inside its own span and a
    command that must end in a solver exception is checked for its type.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    res = {"wall": {}, "cpu": {}, "problems": {}}
    for cmd in w.commands:
        argv = cmd.argv(cfg, out)
        gc.collect()
        span = tracer.span(f"cmd:{cmd.group}.{cmd.config}") if tracer else contextlib.nullcontext()
        with span as span_id:
            c0 = time.process_time()
            t0 = time.perf_counter()
            code, text = quiet_main(argv)
            t1 = time.perf_counter()
            c1 = time.process_time()
        problems = cmd.check(code, out / cmd.config, memos.setdefault(cmd.config, {}))
        if cmd.raises and tracer is not None:
            problems += check_raised(tracer, span_id, cmd.raises)
        if code == -1:
            problems.append(text)
        res["wall"][cmd.config] = t1 - t0
        res["cpu"][cmd.config] = c1 - c0
        res["problems"][cmd.config] = problems
    return res


def check_raised(tracer, span_id: int, expected: str) -> list[str]:
    """The last solve_stationary call under the command must raise ``expected``."""
    solver = sys.modules["polyadnet.solver"]
    raised = [exc for i, exc in tracer.raised
              if tracer.name_of(i) == "solver.solve_stationary" and tracer.root(i) == span_id]
    if not raised:
        return [f"solve_stationary raised no exception, expected {expected}"]
    if not issubclass(raised[-1], getattr(solver, expected)):
        return [f"solve_stationary raised {raised[-1].__name__}, expected {expected}"]
    return []


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    notes = []
    for p in passes:
        for config, problems in p["problems"].items():
            attempted += 1
            if problems:
                failed += 1
                notes += [f"{config}: {msg}" for msg in problems]
    return attempted, failed, notes


def percentile_note(samples: list[float]) -> str:
    """Median, count and the highest tail percentile with ten samples beyond it."""
    n = len(samples)
    med = statistics.median(samples)
    tail = ""
    for pct in (99.9, 99, 90, 75):
        if n * (1 - pct / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")[round(pct * 10) - 1]
            tail = f", p{pct:g}={cut:.4f}"
            break
    return f"median={med:.4f} n={n}{tail or ', too few samples for a tail percentile'}"


# ---- children -----------------------------------------------------------


def peak_rss_kb() -> int:
    """This process's peak RSS since exec (VmHWM).

    ru_maxrss is no use in a child: Linux carries the parent's high-water
    mark over fork and exec, so a child of a large parent reads large.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM in /proc/self/status")


def child_main(args) -> None:
    """Fresh interpreter: set up, note when ready, then do the ``--child`` job.

    ``setup``: nothing more. ``probe``: run the commands that must end in a
    solver exception once, with ``solve_stationary`` wrapped to see the
    exception's type; the time to ready is a set-up sample all the same.
    ``measure``: one checked pass whose peak RSS is the process's, then
    timed passes until ``--seconds`` (counted from the first pass) are
    nearly used. ``bpe``: the pentads command alone, for the RSS it adds.
    """
    import_cli()
    w = workloads.build(args.workload, args.seed)
    work = Path(args.dir)
    cfg = setup(w, work)
    result = {"ready": time.monotonic()}
    out = work / "out"
    if args.child == "probe":
        raising = replace(w, commands=[c for c in w.commands if c.raises])
        tracer = spans.Tracer().install(only={"solver.solve_stationary"})
        try:
            result["passes"] = [run_pass(raising, cfg, out, {}, tracer)]
        finally:
            tracer.uninstall()
    elif args.child == "measure":
        start = time.perf_counter()
        memos: dict = {}
        first = run_pass(w, cfg, out, memos)
        result["rss_kb"] = peak_rss_kb()
        left = args.seconds - (time.perf_counter() - start)
        result.update(passes=[first, *timed_passes(w, cfg, out, memos, left, MIN_PASSES)])
    elif args.child == "bpe":
        before = peak_rss_kb()
        pentads = next(c for c in w.commands if c.config == "pentads")
        code, text = quiet_main(pentads.argv(cfg, out))
        if code != 0:
            raise BenchError(f"pentads generate exited {code}: {text.strip()}")
        edges = int(workloads.read_keyvals(out / "pentads" / "stats.txt")["edges"])
        result.update(rss_delta_kb=peak_rss_kb() - before, edges=edges)
    print(json.dumps(result))


def run_child(kind: str, w, seed: int, seconds: float, work: Path) -> tuple[float, dict]:
    """Start a fresh interpreter; return its set-up time and its result."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", kind, "--workload", w.name,
            "--seed", str(seed), "--seconds", repr(seconds), "--dir", str(work)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{kind} child still running after {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{kind} child exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - t0, result


# ---- timed run ----------------------------------------------------------


def timed_passes(w, cfg: Path, out: Path, memos: dict, seconds: float, min_passes: int) -> list[dict]:
    """Untraced passes: at least ``min_passes``, then more while one is
    expected to end less than half a pass after ``seconds``."""
    if spans.wrapped():
        raise BenchError(f"tracing wrappers still installed: {spans.wrapped()}")
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - t0 + 0.5 * sum(passes[-1]["wall"].values()) < seconds
    ):
        passes.append(run_pass(w, cfg, out, memos))
    return passes


def per_command_median(passes: list[dict], key: str) -> dict[str, float]:
    return {c: statistics.median(p[key][c] for p in passes) for c in passes[0][key]}


def measure(w, work: Path, seed: int, seconds: float) -> tuple[dict, list[dict], list[str]]:
    kinds = ["probe"] + ["setup"] * (SETUP_CHILDREN - 1)
    children = [run_child(kind, w, seed, seconds, work / f"setup{i}") for i, kind in enumerate(kinds)]
    ready, child = run_child("measure", w, seed, seconds, work / "measure")
    setups = [t for t, _ in children] + [ready]
    first, *passes = child["passes"]

    totals = [sum(p["wall"].values()) for p in passes]
    medians = per_command_median(passes, "wall")
    wall = sum(medians.values())
    lines = [
        f"wall_s      {wall:.4f} s   sum of per-command medians; per pass {percentile_note(totals)}",
        "            per command: " + ", ".join(f"{c}={t:.3f}s" for c, t in medians.items()),
        f"            first pass (untimed) {sum(first['wall'].values()):.3f}, timed passes: "
        + ", ".join(f"{t:.3f}" for t in totals),
        f"setup_s     {statistics.median(setups):.4f} s   median of {len(setups)} fresh interpreters "
        f"({', '.join(f'{s:.3f}' for s in setups)})",
        f"peak_rss_mb {child['rss_kb'] / 1024:.1f} MB  the measuring child after its first pass",
    ]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": child["rss_kb"] / 1024,
    }
    return metrics, [p for _, c in children for p in c.get("passes", [])] + child["passes"], lines


# ---- traced run ---------------------------------------------------------


def _sweep_metrics(tr, tab) -> dict[str, float]:
    if "solver._sweep_kernel" in tr.missing:
        keys = ("sweeps", "sweep_elements", "sweep_s", "ns_per_element", "levels", "k_max",
                "final_level_share")
        return {f"solver.{k}": MISSING for k in keys}
    sweeps = tr.notes["solver._sweep_kernel"]
    elements = sum(size for _, size in sweeps)
    sweep_s = tab.get("solver._sweep_kernel", {}).get("total_s", 0.0)
    # group sweeps by the solve_stationary call that ran them
    by_solve: dict[int, list[int]] = {}
    for i, size in sweeps:
        j = i
        while j >= 0 and tr.name_of(j) != "solver.solve_stationary":
            j = tr.span_parent[j]
        by_solve.setdefault(j, []).append(size)
    final = sum(sizes.count(sizes[-1]) * sizes[-1] for sizes in by_solve.values())
    return {
        "solver.sweeps": len(sweeps),
        "solver.sweep_elements": elements,
        "solver.sweep_s": sweep_s,
        "solver.ns_per_element": sweep_s * 1e9 / elements if elements else 0.0,
        "solver.levels": sum(len(set(sizes)) for sizes in by_solve.values()),
        "solver.k_max": max((size - 1 for _, size in sweeps), default=0),
        "solver.final_level_share": final / elements if elements else 0.0,
    }


def layer_metrics(w, tr, untraced: list[dict], traced: dict, out: Path, bpe: float) -> dict:
    tab = tr.table()

    def calls(name):
        return tab.get(name, {}).get("calls", 0)

    def total(name):
        return tab.get(name, {}).get("total_s", 0.0)

    m = {name: 0.0 for name in PER_LAYER}
    cmd_wall = per_command_median(untraced, "wall")
    for cmd in w.commands:
        m[f"cli.cmd_s.{cmd.group}.{cmd.config}"] = cmd_wall[cmd.config]
    m["cli.cpu_s"] = statistics.median(sum(p["cpu"].values()) for p in untraced)

    m["solver.solve_stationary_s"] = total("solver.solve_stationary")
    m.update(_sweep_metrics(tr, tab))
    if "solver._solve_at" in tr.missing:
        m["solver.iterations"] = MISSING
    else:
        m["solver.iterations"] = sum(n for _, n in tr.notes["solver._solve_at"])
    m["solver.write_q_table_s"] = total("solver.write_q_table")
    m["distributions.from_probs_s"] = total("distributions.DegreeDistribution.from_probs")
    m["distributions.from_probs_entries"] = sum(
        n for _, n in tr.notes["distributions.DegreeDistribution.from_probs"])
    m["io.bytes_written"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())

    m["engine.grow_s"] = total("engine.grow")
    m["engine.steps"] = sum(n for _, n in tr.notes["engine.grow"])
    _, _, dur, _ = tr.arrays()
    grow_by_config: dict[str, list[float]] = {}
    for i, steps in tr.notes["engine.grow"]:
        config = tr.name_of(tr.root(i)).rpartition(".")[2]
        acc = grow_by_config.setdefault(config, [0, 0.0])
        acc[0] += steps
        acc[1] += dur[i] / 1e9
    for config, (steps, secs) in grow_by_config.items():
        m[f"engine.steps_per_s.{config}"] = steps / secs
    m["engine.apply_monad_calls"] = calls("engine.apply_monad")
    m["engine.apply_nad_calls"] = calls("engine.apply_nad")
    m["engine.write_edge_list_s"] = total("engine.write_edge_list")
    m["engine.read_edge_list_s"] = total("engine.read_edge_list")

    m["layers.sample_many_calls"] = calls("layers.LayerIndex.sample_many")
    m["layers.draws"] = sum(n for _, n in tr.notes["layers.LayerIndex.sample_many"])
    m["layers.sample_many_s"] = total("layers.LayerIndex.sample_many")
    m["layers.insert_calls"] = calls("layers.LayerIndex.insert")
    m["layers.insert_s"] = total("layers.LayerIndex.insert")
    m["layers.bump_calls"] = calls("layers.LayerIndex.bump")
    # bump calls insert, which layers.insert_s already counts: bump's self time
    m["layers.bump_s"] = tab.get("layers.LayerIndex.bump", {}).get("self_s", 0.0)
    m["layers.build_s"] = total("layers.LayerIndex.build")

    m["graph.add_edge_calls"] = calls("graph.MultiGraph.add_edge")
    m["graph.add_edge_s"] = total("graph.MultiGraph.add_edge")
    m["graph.add_vertex_calls"] = calls("graph.MultiGraph.add_vertex")
    m["graph.bytes_per_edge"] = bpe

    m["calibrate.calibrate_s"] = total("calibrate.calibrate")
    tri = tr.notes["analysis.triangle_count"]
    m["analysis.triangle_count_calls"] = len(tri)
    m["analysis.triangle_count_s"] = total("analysis.triangle_count")
    m["analysis.compare_s"] = total("analysis.compare")
    distinct = {(tr.root(i), key) for i, key in tri}
    m["analysis.triangle_useful_ratio"] = len(distinct) / len(tri) if tri else 0.0

    m["trace.overhead_s"] = sum(traced["wall"].values()) - sum(cmd_wall.values())
    return m


def trace_run(w, cfg: Path, work: Path, seed: int, seconds: float):
    out = work / "out"
    memos: dict = {}
    untraced = timed_passes(w, cfg, out, memos, seconds / 2, 1)

    tr = spans.Tracer().install()
    try:
        traced = run_pass(w, cfg, out, memos, tr)
    finally:
        tr.uninstall()
    left = spans.wrapped()
    if left:
        raise BenchError(f"tracing wrappers left installed: {left}")

    bpe = 0.0
    if any(c.config == "pentads" for c in w.commands):
        _, res = run_child("bpe", w, seed, seconds, work / "bpe")
        bpe = res["rss_delta_kb"] * 1024 / res["edges"]
    metrics = layer_metrics(w, tr, untraced, traced, out, bpe)

    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{w.name}-seed{seed}.npz"
    tr.save(spans_path)
    lines = [f"traced pass: {len(tr.span_name)} spans written to {spans_path.relative_to(ROOT)}"]
    if tr.missing:
        lines.append(f"MISSING hook targets (reported as {MISSING}): {', '.join(tr.missing)}")
    lines.append(f"{'span':52s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s}")
    rows = sorted(tr.table().items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        if row["calls"]:
            lines.append(f"{name:52s} {row['calls']:9d} {row['total_s']:9.4f} {row['self_s']:9.4f}")
    lines.append("per-layer metrics:")
    for name, unit in PER_LAYER.items():
        val = metrics[name]
        shown = "missing" if val == MISSING and name.startswith("solver.") else f"{val:.6g}"
        note = "  (computed: peak-RSS delta of pentad generate / edges)" if name == "graph.bytes_per_edge" else ""
        lines.append(f"  {name:44s} {shown:>14s} {unit}{note}")
    return metrics, [*untraced, traced], lines


# ---- entry points -------------------------------------------------------


def run_one(args) -> int:
    w = workloads.build(args.workload, args.seed)
    work = WORK / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            import_cli()
            cfg = setup(w, work)
            metrics, passes, lines = trace_run(w, cfg, work, args.seed, args.seconds)
            units = PER_LAYER
        else:
            check_source()
            metrics, passes, lines = measure(w, work, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, notes = tally(passes)
    print(f"workload {w.name} seed {args.seed} trace {int(args.trace)}: {w.why}")
    for line in lines:
        print("  " + line)
    print(f"  ops_failed  {failed}/{attempted} CLI commands")
    for note in notes:
        print(f"  FAILED {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, in fresh processes."""
    bad = 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0 or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
                bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "probe", "measure", "bpe"), help=argparse.SUPPRESS)
    ap.add_argument("--dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        if args.child:
            child_main(args)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
