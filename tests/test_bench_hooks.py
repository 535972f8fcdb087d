"""Every name the benchmark hooks or reads still exists in the package.

``perfbench/spans.py`` traces private functions listed in ``PRIVATE`` and
keeps notes for the span names in ``NOTES``; ``perfbench/run.py`` reads
per-layer metrics from span names such as ``engine.apply_monad``. A span
name whose function is gone records nothing and its metric reads 0, so
this checks the names directly, and checks that the sweep's note still
reads the table size and the solve's note the sweeps of its phase. Neither file is run or changed here: ``spans`` is
imported from its path, and ``run.py`` is only parsed. A name that still
exists but is no longer called would read 0 as well, so a grown run checks
that the engine's hooked names are called once per increment and per draw.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from polyadnet import engine, solver
from polyadnet.distributions import DegreeDistribution
from polyadnet.graph import seed_complete
from polyadnet.layers import LayerIndex
from polyadnet.params import ModelParams
from polyadnet.preference import PreferenceFunction

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# hooked by run.py but gone from the package; their metrics read 0 until
# the benchmark hooks their successors (ROADMAP open item 1)
DEAD = {
    "graph.MultiGraph.add_edge",
    "graph.MultiGraph.add_vertex",
    "layers.LayerIndex.insert",
    "layers.LayerIndex.bump",
}

# attributes that the notes in spans.NOTES read from a call's arguments
NOTE_READS = {"graph.MultiGraph.edges"}


def _spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run_span_names(layers) -> set[str]:
    """Span names that run.py reads: dotted literals that are not its metric names."""
    tree = ast.parse((BENCH / "run.py").read_text())
    metrics = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "PER_LAYER":
            metrics = {k.value for k in node.value.keys if k is not None}
    in_fstrings = {
        id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr) for part in node.values
    }
    pattern = re.compile(rf"(?:{'|'.join(layers)})\.\w+(?:\.\w+)?")
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in in_fstrings
        and pattern.fullmatch(node.value)
        and node.value not in metrics
    }


def _resolves(package: str, name: str) -> bool:
    layer, *attrs = name.split(".")
    obj = importlib.import_module(f"{package}.{layer}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_benchmark_hooks_resolve():
    spans = _spans()
    names = {f"{layer}.{attr}" for layer, attrs in spans.PRIVATE.items() for attr in attrs}
    names |= set(spans.NOTES) | NOTE_READS | _run_span_names(spans.LAYERS)
    assert "engine.apply_monad" in names and "solver.write_q_table" in names
    missing = {name for name in names if not _resolves(spans.PACKAGE, name)}
    assert missing == DEAD


def test_sweep_note_reads_each_table_size(monkeypatch):
    # solver.sweep_elements sums this note over the sweeps of a traced pass
    note = _spans().NOTES["solver._sweep_kernel"]
    kernel = solver._sweep_kernel
    sizes = []

    def noted(*args, **kwargs):
        result = kernel(*args, **kwargs)
        sizes.append(note(args, kwargs, result))
        return result

    monkeypatch.setattr(solver, "_sweep_kernel", noted)
    r1, rn = DegreeDistribution.from_probs({2: 1.0}), DegreeDistribution.from_probs({0: 1.0})
    ba = ModelParams(gamma=0.0, n=2, mu=0, r1=r1, rn=rn)
    sol = solver.solve_stationary(ba, PreferenceFunction.linear())
    assert sol.k_max + 1 == 245_391
    # default schedule: phase one on 4097 entries, then one warm sweep
    assert sizes == [4097] * (len(sizes) - 1) + [245_391]
    assert len(sizes) > 1


def _dist(probs):
    return DegreeDistribution.from_probs(probs)


def test_solve_note_sums_to_the_sweeps(monkeypatch):
    # solver.iterations sums this note over the phases of a traced pass,
    # and means the sweep count only while index 1 of what _solve_at
    # returns counts every sweep of its phase
    note = _spans().NOTES["solver._solve_at"]
    solve_at, kernel = solver._solve_at, solver._sweep_kernel
    notes, sweeps = [], []

    def noted(*args, **kwargs):
        result = solve_at(*args, **kwargs)
        notes.append(note(args, kwargs, result))
        return result

    def counted(*args):
        sweeps.append(1)
        return kernel(*args)

    monkeypatch.setattr(solver, "_solve_at", noted)
    monkeypatch.setattr(solver, "_sweep_kernel", counted)
    ba = ModelParams(gamma=0.0, n=2, mu=0, r1=_dist({2: 1.0}), rn=_dist({0: 1.0}))
    solver.solve_stationary(ba, PreferenceFunction.linear())
    assert len(notes) == 2  # the default schedule's two phases
    assert sum(notes) == len(sweeps)


# the grow workload's mixed model, and tetrads with two bundles each
HOOKED_MODELS = {
    "mixed": ModelParams(gamma=0.3, n=3, mu=1, r1=_dist({1: 1.0}), rn=_dist({1: 0.5, 2: 0.5})),
    "bundles": ModelParams(gamma=0.5, n=4, mu=2, r1=_dist({2: 1.0}), rn=_dist({2: 0.5, 3: 0.5})),
}


@pytest.mark.parametrize("name", HOOKED_MODELS)
def test_grow_calls_the_hooked_engine_names(monkeypatch, name):
    # engine.apply_monad_calls, engine.apply_nad_calls, layers.sample_many_calls
    # and layers.draws count these calls; each increment's draws are read
    # back from the targets it hands to LayerIndex.update, a bundle's n
    # targets being one draw
    p = HOOKED_MODELS[name]
    calls = {"apply_monad": 0, "apply_nad": 0}
    draws, wanted = [], []

    def counting(fn_name):
        fn = getattr(engine, fn_name)

        def counted(*args):
            calls[fn_name] += 1
            return fn(*args)

        return counted

    for fn_name in calls:
        monkeypatch.setattr(engine, fn_name, counting(fn_name))
    sample_many, update = LayerIndex.sample_many, LayerIndex.update

    def sampled(idx, rng, count):
        draws.append(count)
        return sample_many(idx, rng, count)

    def updated(idx, g, n, targets=(), ends=()):
        bundled = 0 if n == 1 else p.mu * (n - 1)
        wanted.append(len(targets) - bundled)
        return update(idx, g, n, targets, ends)

    monkeypatch.setattr(LayerIndex, "sample_many", sampled)
    monkeypatch.setattr(LayerIndex, "update", updated)
    stats = engine.grow(seed_complete(4), p, PreferenceFunction.linear(), 300, rng_seed=5)
    assert stats.monad_steps and stats.nad_steps
    assert calls == {"apply_monad": stats.monad_steps, "apply_nad": stats.nad_steps}
    assert len(wanted) == stats.steps
    assert draws == [w for w in wanted if w]
