"""Tests of the benchmark's own code, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_DATA = {"train_subjects": 6, "nnd_subjects": 5, "test_subjects": 4,
             "samples_per_subject": 4}
# minibatches must fit in the tiny training split
TINY_BATCHES = {"batch_size": 8, "nnd_batch_size": 8, "joint_batch_size": 8}


@pytest.fixture(autouse=True)
def scratch_work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path / "work")


def tiny(name):
    if name == "train":
        return workloads.Train(step_scale=0.02, overrides={**TINY_DATA, **TINY_BATCHES, "gt_max_failure_rate": 1.0})
    if name == "serve":
        return workloads.Serve(overrides=TINY_DATA)
    return workloads.Batch(gallery=12, batch_size=5)


def _bindings():
    """Every attribute of every hashdec module and traced class, by identity."""
    from hashdec import autodiff, mdh, nnd

    owners = [m for n, m in sorted(sys.modules.items())
              if m is not None and (n == "hashdec" or n.startswith("hashdec."))]
    owners += [autodiff.GradientTape, mdh.MdhModel, nnd.NndModel]
    return {(repr(o), k): id(v) for o in owners for k, v in list(vars(o).items())}


@pytest.mark.parametrize("name", ["train", "serve", "batch"])
def test_untraced_run_reports_every_end_to_end_metric(name):
    metrics, attempted, failed = run.run_untraced(tiny(name), seed=3, seconds=0.2)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in metrics.values())
    assert attempted >= 1 and failed == 0


@pytest.mark.parametrize("name", ["train", "serve", "batch"])
def test_traced_run_reports_every_per_layer_metric_and_restores_bindings(name):
    before = _bindings()
    metrics, attempted, failed = run.run_traced(tiny(name), seed=3, seconds=0.2)
    assert _bindings() == before
    assert set(metrics) == set(run.per_layer_units())
    # failed counts any output that differs between the plain and traced pass
    assert attempted >= 2 and failed == 0
    assert metrics["trace.spans"] > 0 and metrics["autodiff.fwd_calls"] > 0
    if name == "train":
        assert metrics["biodata.load_dataset_calls"] > 0 and metrics["autodiff.backward_calls"] > 0
        assert 0.0 < metrics["ident_acc_mdhnd"] <= 1.0
    else:
        assert metrics["nnd.decode_words"] > 0 and metrics["autodiff.backward_calls"] == 0


@pytest.mark.parametrize("name", ["train", "serve", "batch"])
def test_traced_outputs_equal_untraced_outputs(name):
    workload = tiny(name)
    plain, traced = [], []
    state = workload.setup(5)
    _, plain_failed = run.measure(workload, state, count=2, results=plain)
    workload.close(state)
    tracer = tracing.Tracer()
    with tracer:
        state = workload.setup(5)
        _, traced_failed = run.measure(workload, state, count=2, tracer=tracer, results=traced)
        workload.close(state)
    assert plain_failed == traced_failed == 0
    assert plain == traced
    assert workload.quality(plain) == workload.quality(traced)


def test_checks_catch_a_wrong_decode():
    workload = tiny("serve")
    state = workload.setup(7)
    bits, score = workload.op(state, 0)
    assert workload.finish(state, 0, (bits, score))[0]
    assert not workload.finish(state, 0, (1 - bits, score))[0]
    assert not workload.finish(state, 0, (bits, score + 1))[0]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", inner)
    outer()
    spans = tracer.summary()
    assert spans["outer"]["calls"] == spans["inner"]["calls"] == 1
    assert spans["outer"]["self_s"] == pytest.approx(
        spans["outer"]["incl_s"] - spans["inner"]["incl_s"])
    assert list(tracer.parent) == [-1, 0]


def test_block_p99_ignores_a_burst_in_one_block():
    values = [1.0] * 3000
    values[1000:1050] = [100.0] * 50
    assert run.block_p99(values) == 1.0
    assert run.block_p99(values[:900] + [100.0] * 20) == 100.0  # one short block


def test_low_percentile_is_the_first_for_many_operations_and_the_median_for_few():
    many = list(range(1, 10001))
    assert run.low_percentile(many) == pytest.approx(100.99)
    assert run.low_percentile([3.0, 1.0, 2.0]) == 2.0
    hundred = list(range(100))
    assert sum(v <= run.low_percentile(hundred) for v in hundred) == run.LOW_COUNT


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "serve", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
