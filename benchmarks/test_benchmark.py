"""Self-tests of the benchmark: span arithmetic, restoration of wrapped
attributes, and agreement of the emitted metrics with BENCHMARK.json.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import re
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Span, Tracer, covered_length, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spans(*rows):
    return [Span(name, start, parent, end) for name, start, end, parent in rows]


def test_self_time_of_nested_and_overlapping_children():
    spans = _spans(
        ("bench.root", 0.0, 10.0, None),
        ("a.outer", 1.0, 4.0, 0),
        ("b.overlap", 3.0, 6.0, 0),  # overlaps a.outer on [3, 4]
        ("a.inner", 2.0, 3.0, 1),
        ("c.later", 8.0, 9.0, 0),
    )
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 1.0])


def test_children_are_clipped_to_the_parent_interval():
    spans = _spans(("p.parent", 0.0, 2.0, None), ("c.child", 1.0, 3.0, 0))
    assert self_times(spans) == pytest.approx([1.0, 2.0])
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.0, 1.0), (0.5, 0.7), (2.0, 5.0)], 0.0, 3.0) == pytest.approx(2.0)


def test_wrapped_calls_nest_and_record_errors():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    inner = tracer.wrap(lambda: 1, "a.inner")
    failing = tracer.wrap(boom, "a.failing")

    def body():
        inner()
        with pytest.raises(KeyError):
            failing()
        return 2

    assert tracer.wrap(body, "a.outer")() == 2
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("a.outer", None), ("a.inner", 0), ("a.failing", 0)]
    assert tracer.spans[2].attrs == {"error": "KeyError"}
    assert all(s.end >= s.start for s in tracer.spans)


def _traced_run(tmp_path):
    """Install every wrapper, run small versions of the three workloads'
    calls, restore; returns the tracer and the originals it replaced."""
    mtmlab = worker.import_package()
    from mtmlab import experiments, scattering
    from mtmlab.grid import Grid

    ev = sys.modules["mtmlab.evolve"]
    tracer = Tracer()
    layers.install(tracer)
    originals = [(owner, attr, original) for owner, attr, original in tracer._installed]
    assert all(getattr(owner, attr) is not original for owner, attr, original in originals)
    try:
        with tracer.span("bench.setup"):
            g = Grid(40.0, 128)
            state = sys.modules["mtmlab.soliton"].eval_soliton(mtmlab.SolitonParams(0.5), g)
        with tracer.span("bench.iteration"):
            experiments.omega_sweep([0.5], grid_n=64).to_json(tmp_path / "record.json")
            experiments.stability_experiment(0.3, 1e-3, 0.01, 0, grid=g, stride=5)
            traj = ev.evolve(state, ev.EvolverConfig(dt=1e-3, t_end=0.002))
            scattering.riccati_solve(traj.final, 0.8)
    finally:
        tracer.restore()
    return tracer, originals


def test_every_wrapped_attribute_is_restored(tmp_path):
    tracer, originals = _traced_run(tmp_path)
    assert originals
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} was not restored"
    names = {s.name for s in tracer.spans}
    for expected in ("spectral.eigh", "spectral.build_hessian", "evolve.evolve",
                     "conserved.charge", "experiments.orbital_distance",
                     "scattering.solve_ivp", "experiments.record_write"):
        assert expected in names


def _declared(section):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)[section]]


def test_every_declared_per_layer_metric_is_emitted(tmp_path):
    tracer, _ = _traced_run(tmp_path)
    args = Namespace(out=tmp_path / "out", workload="sweep", seed=0)
    metrics = worker._trace_metrics(tracer, 1.0, args)
    assert sorted(metrics) == sorted(_declared("per_layer"))
    assert metrics["spectral.dense_eigh_calls"] > 0
    assert metrics["evolve.steps"] > 0
    assert metrics["scattering.rhs_evals"] > 0
    assert 0.0 <= metrics["trace.unattributed_frac"] < 1.0


def test_every_declared_end_to_end_metric_is_emitted():
    it = {"verdict_s": 1.0, "peak_rss_mb": 100.0}
    metrics = run.end_to_end([0.5, 0.6], [it, it], passed=3, attempted=4)
    assert sorted(metrics) == sorted(_declared("end_to_end"))
    assert metrics["pass_frac"] == pytest.approx(0.75)


def test_metric_names_are_well_formed():
    names = _declared("end_to_end") + _declared("per_layer")
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name

