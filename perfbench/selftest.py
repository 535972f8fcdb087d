#!/usr/bin/env python3
"""Self-test of the benchmark itself; run from the root of a checkout.

    python3 perfbench/selftest.py

It shows that
* every output check rejects a deliberately corrupted copy of the output
  it reads, and accepts the untouched output;
* the tracing wrappers are all gone after ``uninstall``, and an untraced
  pass refuses to start while any is still installed;
* two traced runs of each workload give identical counts;
* BENCHMARK.json names the workloads and metrics that run.py reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FAILS: list[str] = []


def report(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILS.append(what)


def edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    if old not in text:
        raise AssertionError(f"{old!r} not in {path}")
    path.write_text(text.replace(old, new, 1))


def header_value(path: Path, key: str) -> str:
    return workloads.read_header(path)[key]


def scale_header(key: str, factor: float):
    def corrupt(d: Path) -> None:
        path = d / "q_table.csv"
        old = header_value(path, key)
        edit(path, f"# {key}={old}", f"# {key}={float(old) * factor!r}")
    return corrupt


def set_header(key: str, value: str):
    def corrupt(d: Path) -> None:
        path = d / "q_table.csv"
        edit(path, f"# {key}={header_value(path, key)}", f"# {key}={value}")
    return corrupt


def set_keyval(name: str, key: str, value: str):
    def corrupt(d: Path) -> None:
        path = d / name
        edit(path, f"{key}={workloads.read_keyvals(path)[key]}", f"{key}={value}")
    return corrupt


def drop_last_edge(d: Path) -> None:
    path = d / "edges.tsv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def swap_last_edge(d: Path) -> None:
    path = d / "edges.tsv"
    lines = path.read_text().splitlines(keepends=True)
    u, v = lines[-1].split()
    lines[-1] = f"{int(u) + 1}\t{v}\n" if int(u) + 1 < int(v) else f"{int(u) - 1}\t{v}\n"
    path.write_text("".join(lines))


def remove(name: str):
    return lambda d: (d / name).unlink()


def write_table(d: Path) -> None:
    (d / "q_table.csv").write_text("k,Q\n1,1.0\n")


def bump_triangles(d: Path) -> None:
    path = d / "analysis_report.csv"
    old = header_value(path, "triangles")
    edit(path, f"# triangles={old}", f"# triangles={int(old) + 1}")


# (corruption name, function on the command's output dir, exit code to present)
CORRUPTIONS = {
    "solve": [
        ("mean_f off by 1e-7", scale_header("mean_f", 1 + 1e-7), 0),
        ("tail bound above tol", set_header("tail_mass_bound", "2e-10"), 0),
        ("balance residual 1e-11", set_header("balance_residual", "1e-11"), 0),
        ("table missing", remove("q_table.csv"), 0),
        ("exit code 1", None, 1),
    ],
    "solve-reject": [
        ("table written", write_table, 1),
        ("exit code 0", None, 0),
        ("exit code 2", None, 2),
    ],
    "generate": [
        ("saturated", set_keyval("stats.txt", "saturated", "True"), 0),
        ("edge dropped", drop_last_edge, 0),
        ("edge rewired", swap_last_edge, 0),
        ("edges stat off", set_keyval("stats.txt", "edges", "1"), 0),
        ("exit code 1", None, 1),
    ],
    "roundtrip": [
        ("overall_pass False", set_keyval("roundtrip_report.txt", "overall_pass", "False"), 0),
        ("empirical tv over max", set_keyval("roundtrip_report.txt", "empirical_tv_mean", "0.5"), 0),
        ("forward tv over max", set_keyval("roundtrip_report.txt", "forward_tv", "0.5"), 0),
        ("exit code 1", None, 1),
    ],
    "analyze": [
        ("triangle count changed", bump_triangles, 0),
        ("report missing", remove("analysis_report.csv"), 0),
        ("exit code 2", None, 2),
    ],
}


def kind_of(cmd) -> str:
    return "analyze" if cmd.config == "analyze" else cmd.group


def test_checks(work: Path) -> None:
    """One real pass per workload, then each check against corrupted copies."""
    for name in workloads.NAMES:
        w = workloads.build(name, 7)
        wdir = work / name
        cfg = run.setup(w, wdir)
        memos: dict = {}
        tr = spans.Tracer().install(only={"solver.solve_stationary"})
        try:
            res = run.run_pass(w, cfg, wdir / "out", memos, tr)
        finally:
            tr.uninstall()
        for cmd in w.commands:
            good = wdir / "out" / cmd.config
            problems = res["problems"][cmd.config]
            report(not problems, f"{name}/{cmd.config}: clean output accepted {problems or ''}")
            for label, corrupt, code in CORRUPTIONS[kind_of(cmd)]:
                bad = wdir / "bad" / cmd.config
                shutil.rmtree(bad.parent, ignore_errors=True)
                shutil.copytree(good, bad)
                if corrupt is not None:
                    corrupt(bad)
                memo = json.loads(json.dumps(memos[cmd.config]))
                found = cmd.check(code, bad, memo)
                report(bool(found), f"{name}/{cmd.config}: rejects '{label}' ({found[:1]})")


def test_raised_type() -> None:
    """The exception check goes by type, not message."""
    solver = sys.modules["polyadnet.solver"]

    def failing(exc):
        def solve_stationary():
            raise exc
        return solve_stationary

    for exc, ok in (
        (solver.NonConvergenceError("any text"), True),
        (ValueError("stationary mean keeps moving"), False),
        (RuntimeError("no table-independent fixed point"), False),
        (None, False),
    ):
        tr = spans.Tracer()
        fn = tr._wrap(failing(exc) if exc else (lambda: None), "solver.solve_stationary")
        with tr.span("cmd:solve-reject.x") as sid:
            try:
                fn()
            except Exception:
                pass
        found = run.check_raised(tr, sid, "NonConvergenceError")
        label = type(exc).__name__ if exc else "no exception"
        report(bool(found) != ok, f"raised-type check on {label}: {'accepted' if ok else 'rejected'}")


def test_wrappers() -> None:
    cli = sys.modules["polyadnet.cli"]
    layers = sys.modules["polyadnet.layers"]
    before = {
        "cli.solve_stationary": cli.solve_stationary,
        "cli.grow": cli.grow,
        "LayerIndex.sample_many": layers.LayerIndex.__dict__["sample_many"],
        "LayerIndex.build": layers.LayerIndex.__dict__["build"],
    }
    report(not spans.wrapped(), "no wrappers before install")
    tr = spans.Tracer().install()
    report(len(spans.wrapped()) > 40, f"install wraps the package ({len(spans.wrapped())} bindings)")
    report(not tr.missing, f"private hook targets present (missing: {tr.missing})")
    try:
        never = run.WORK / "selftest" / "never"
        run.timed_passes(workloads.build("solve", 1), never, never, {}, 0, 1)
        refused = False
    except run.BenchError:
        refused = True
    report(refused, "an untraced pass refuses to start while wrappers are installed")
    tr.uninstall()
    left = spans.wrapped()
    report(not left, f"uninstall removes every wrapper {left or ''}")
    after = {
        "cli.solve_stationary": cli.solve_stationary,
        "cli.grow": cli.grow,
        "LayerIndex.sample_many": layers.LayerIndex.__dict__["sample_many"],
        "LayerIndex.build": layers.LayerIndex.__dict__["build"],
    }
    report(all(before[k] is after[k] for k in before), "originals restored by identity")


def test_expected_means() -> None:
    expect = {"ba": 4.0, "crit3": 4.218244942, "mixed": 3.6875}
    w = workloads.build("solve", 1)
    for name, value in expect.items():
        got = workloads.mean_degree(w.configs[name])
        report(abs(got - value) < 1e-9, f"expected mean_f for {name}: {got!r}")


def test_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    built = {n: workloads.build(n, 1).why for n in workloads.NAMES}
    report(whys == built, "BENCHMARK.json workloads and whys match workloads.py")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report(layer == run.PER_LAYER, "BENCHMARK.json per_layer matches run.PER_LAYER")


COUNT_UNITS = {"count", "B", "ratio"}


def test_traced_counts() -> None:
    """Two traced runs per workload give the same counts."""
    for name in workloads.NAMES:
        results = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", "1"],
                stdout=subprocess.PIPE, text=True, cwd=run.ROOT, check=True,
            )
            results.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
        counts = [
            {k: v["value"] for k, v in r.items()
             if v["unit"] in COUNT_UNITS and k != "graph.bytes_per_edge"}
            for r in results
        ]
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        report(not diff and results[0]["solver.sweeps"]["value"] >= 0,
               f"{name}: {len(counts[0])} counts identical across two traced runs {diff or ''}")


def main() -> int:
    run.import_cli()
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        test_expected_means()
        test_benchmark_json()
        test_wrappers()
        test_raised_type()
        test_checks(work)
        test_traced_counts()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILS)} failed" if FAILS else "all passed")
    return 1 if FAILS else 0


if __name__ == "__main__":
    sys.exit(main())
