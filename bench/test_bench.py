"""The benchmark's own checks: per-layer counts repeat exactly from run to
run, and BENCHMARK.json lists exactly the metrics the benchmark prints.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metric_names  # noqa: E402
from workloads import WORKLOADS, fresh_import  # noqa: E402


def traced_counts(name, tmp_path):
    """Counts of one traced pass in a freshly set-up workload."""
    ek = fresh_import()
    wl = WORKLOADS[name]()
    wl.setup(ek, 3, tmp_path / name)
    tracer = Tracer()
    with tracer.installed(ek):
        p = wl.run_pass(tracer)
    assert p.failures == []
    return dict(tracer.counts)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    first = traced_counts(name, tmp_path / "a")
    second = traced_counts(name, tmp_path / "b")
    assert first == second
    assert first  # the wrappers saw calls


def test_sweep_grid_counts_follow_the_grid(tmp_path):
    counts = traced_counts("sweep-grid", tmp_path)
    fits = 2 * len(workloads.LAMBDAS) * len(workloads.MODEL_SEEDS)
    assert counts["training.train.calls"] == fits
    assert counts["training.Adam.step.calls"] == fits * workloads.FIT_EPOCHS
    assert counts["kmeans.kmeans.calls"] == fits
    assert "mlp.mlp_forward_batch.calls" not in counts


def test_wrappers_are_removed_after_tracing():
    ek = fresh_import()
    before = (ek.enn.enn_forward_batch, ek.training.Adam.__dict__["step"],
              ek.model.EvidentialModel.__dict__["load"])
    with Tracer().installed(ek):
        assert ek.enn.enn_forward_batch is not before[0]
    after = (ek.enn.enn_forward_batch, ek.training.Adam.__dict__["step"],
             ek.model.EvidentialModel.__dict__["load"])
    assert after == before


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer_metric_names(fresh_import())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    times = tracer.times()
    assert times["outer.self_s"] == pytest.approx(times["outer.wall_s"] - times["inner.wall_s"])
    assert tracer.counts["outer.calls"] == tracer.counts["inner.calls"] == 1
