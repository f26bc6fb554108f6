import json

import numpy as np
import pytest

from hashdec import autodiff as ad
from hashdec.autodiff import Tensor, TrainingError, gradient_check
from hashdec.biodata import DatasetDims, DistortionModel, SplitSpec, generate
from hashdec.mdh import (
    ContinuationSchedule,
    FusionLayer,
    LossWeights,
    MdhModel,
    MdhTrainConfig,
    intermediate_binary_code,
    total_loss,
    train_step1,
)


def _identity_fusion(mode, d):
    rng = np.random.default_rng(0)
    out_dim = 2 * d if mode == "fca" else d * d
    layer = FusionLayer(rng, mode, d, out_dim)
    layer.w.data = np.eye(out_dim)
    layer.b.data = np.zeros((1, out_dim))
    return layer


def _row(*values):
    return Tensor(np.array([values], dtype=np.float64))


def test_fuse_fca_definition():
    layer = _identity_fusion("fca", 2)
    out = layer.forward(_row(1.0, 2.0), _row(3.0, 4.0))
    assert np.allclose(out.data, np.tanh([[1.0, 2.0, 3.0, 4.0]]))


def test_fuse_fca_zero_inputs_zero_bias():
    layer = _identity_fusion("fca", 3)
    out = layer.forward(_row(0, 0, 0), _row(0, 0, 0))
    assert np.array_equal(out.data, np.zeros((1, 6)))


def test_fuse_bla_outer_product_arithmetic():
    layer = _identity_fusion("bla", 2)
    out = layer.forward(_row(1.0, 2.0), _row(3.0, 4.0))
    assert np.allclose(out.data, np.tanh([[3.0, 4.0, 6.0, 8.0]]))


def test_fuse_bla_zero_modality_blocks_interaction():
    rng = np.random.default_rng(1)
    layer = FusionLayer(rng, "bla", 3, 5)
    zero_face = _row(0, 0, 0)
    out1 = layer.forward(zero_face, _row(*rng.standard_normal(3)))
    out2 = layer.forward(zero_face, _row(*rng.standard_normal(3)))
    # bilinear interaction vanishes: output is bias-only however iris varies
    assert np.allclose(out1.data, out2.data)
    assert np.allclose(out1.data, np.tanh(layer.b.data))


def test_fusion_mode_mismatch_errors():
    with pytest.raises(ValueError, match="unknown fusion mode"):
        FusionLayer(np.random.default_rng(0), "cca", 2, 4)


def test_fusion_gradients_both_modes():
    rng = np.random.default_rng(2)
    for mode in ("fca", "bla"):
        layer = FusionLayer(rng, mode, 3, 4)
        f0 = rng.standard_normal((2, 3))
        i0 = rng.standard_normal((2, 3))

        def f(tf, ti, w, b):
            fused = layer.forward(tf, ti)
            return ad.tensor_sum(ad.square(fused))

        report = gradient_check(f, [Tensor(f0), Tensor(i0), layer.w, layer.b])
        assert report.max_relative_error < 1e-4, mode


def test_forward_zero_weights_uniform_logits():
    model = MdhModel("fca", 6, 6, num_classes=4, code_bits=7, feature_dim=3,
                     fusion_dim=5, hidden=(4,), seed=0)
    for t in model.parameters().values():
        t.data = np.zeros_like(t.data)
    acts, logits = model.forward(np.ones((2, 6)), np.ones((2, 6)))
    assert np.array_equal(acts.data, np.zeros((2, 7)))
    assert np.allclose(logits.data, 0.0)


def test_forward_output_width_matches_code():
    model = MdhModel("bla", 8, 8, num_classes=5, code_bits=63, feature_dim=4,
                     fusion_dim=16, hidden=(8,), seed=1)
    acts, logits = model.forward(np.zeros((3, 8)), np.zeros((3, 8)))
    assert acts.data.shape == (3, 63)
    assert logits.data.shape == (3, 5)
    assert np.all(np.abs(acts.data) < 1.0)


def test_forward_dimension_mismatch():
    model = MdhModel("fca", 6, 6, 4, 7, 3, 5, (4,), seed=0)
    with pytest.raises(ValueError):
        model.forward(np.ones((2, 5)), np.ones((2, 6)))


def _loss_parts(acts_matrix, weights=LossWeights(l2=0.0)):
    n, j = acts_matrix.shape
    logits = Tensor(np.zeros((n, 2)))
    labels = Tensor(np.tile([1.0, 0.0], (n, 1)))
    _, comps = total_loss(logits, Tensor(acts_matrix), labels, [], weights)
    return comps


def test_quantization_term_at_saturation():
    comps = _loss_parts(np.ones((1, 8)))
    assert comps["e2"] == pytest.approx(-1.0, abs=1e-12)


def test_balance_term_balanced_and_worst_case():
    half = np.concatenate([np.full(4, 0.7), np.full(4, -0.7)])
    assert _loss_parts(half[None, :])["e3"] == pytest.approx(0.0, abs=1e-12)
    assert _loss_parts(np.ones((1, 8)))["e3"] == pytest.approx(1.0, abs=1e-12)


def test_quantization_term_bounds():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(1, 6)
        acts = rng.uniform(-1, 1, (n, 9))
        e2 = _loss_parts(acts)["e2"]
        assert -1.0 <= e2 / n <= 0.0


def test_balance_term_nonnegative_zero_iff_zero_mean():
    rng = np.random.default_rng(4)
    acts = rng.uniform(-1, 1, (5, 6))
    assert _loss_parts(acts)["e3"] >= 0.0
    centered = acts - acts.mean(axis=1, keepdims=True)
    assert _loss_parts(centered)["e3"] == pytest.approx(0.0, abs=1e-20)


def test_total_loss_reports_components_and_l2():
    rng = np.random.default_rng(5)
    acts = Tensor(rng.uniform(-0.9, 0.9, (3, 4)))
    logits = Tensor(rng.standard_normal((3, 2)))
    labels = Tensor(np.eye(2)[rng.integers(0, 2, 3)])
    w = Tensor(rng.standard_normal((2, 2)))
    weights = LossWeights(w_cls=1.0, w_quant=0.2, w_ent=0.3, l2=0.01)
    loss, comps = total_loss(logits, acts, labels, [w], weights)
    assert set(comps) == {"e1", "e2", "e3", "total"}
    expected = comps["e1"] + 0.2 * comps["e2"] + 0.3 * comps["e3"]
    assert float(loss.data) == pytest.approx(expected, rel=1e-12)
    assert comps["e1"] >= 0.01 * float(np.sum(w.data**2))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_total_loss_nonfinite_component_raises():
    logits = Tensor(np.array([[np.inf, 0.0]]))
    labels = Tensor(np.array([[1.0, 0.0]]))
    with pytest.raises(TrainingError, match="component"):
        total_loss(logits, Tensor(np.zeros((1, 4))), labels, [], LossWeights())


def test_continuation_monotonicity():
    model = MdhModel("fca", 5, 5, 3, 9, 3, 6, (4,), seed=2)
    face, iris = np.ones((2, 5)), np.full((2, 5), -0.5)
    model.hashing.beta = 2.0
    with ad.no_grad():
        lo, _ = model.forward(face, iris)
    model.hashing.beta = 8.0
    with ad.no_grad():
        hi, _ = model.forward(face, iris)
    nonzero = np.abs(lo.data) > 1e-12
    assert np.all(np.abs(hi.data[nonzero]) > np.abs(lo.data[nonzero]))


def test_full_path_gradient_check_through_loss():
    rng = np.random.default_rng(6)
    for mode in ("fca", "bla"):
        model = MdhModel(mode, 4, 4, 3, 5, feature_dim=2, fusion_dim=4, hidden=(3,), seed=7)
        face = rng.standard_normal((2, 4))
        iris = rng.standard_normal((2, 4))
        labels = np.eye(3)[[0, 2]]
        params = list(model.parameters().values())

        def f(*ts):
            acts, logits = model.forward(face, iris)
            loss, _ = total_loss(logits, acts, Tensor(labels),
                                 model.weight_tensors(), LossWeights())
            return loss

        report = gradient_check(f, params)
        assert report.max_relative_error < 1e-4, mode


def test_schedule_validation():
    with pytest.raises(ValueError, match="start at bandwidth 1"):
        ContinuationSchedule(bandwidths=(2.0, 4.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        ContinuationSchedule(bandwidths=(1.0, 4.0, 4.0))
    with pytest.raises(ValueError, match="non-negative"):
        LossWeights(w_cls=-1.0)


def test_intermediate_binary_code_boundary():
    model = MdhModel("fca", 4, 4, 3, 5, 2, 4, (3,), seed=3)
    for t in model.parameters().values():
        t.data = np.zeros_like(t.data)
    # zero activations sit exactly on the boundary: bit 1 by convention
    assert np.all(intermediate_binary_code(model, np.ones((2, 4)), np.ones((2, 4))) == 1)


def _tiny_dataset(seed=0):
    spec = SplitSpec(train_subjects=8, nnd_subjects=2, test_subjects=2,
                     samples_per_subject=6)
    dims = DatasetDims(latent=6, face=10, iris=10)
    return generate(spec, DistortionModel(0.05, 0.05, 0.02, 0.02), dims, seed)[0]


def _tiny_model(seed=0):
    return MdhModel("bla", 10, 10, 8, 15, feature_dim=4, fusion_dim=12,
                    hidden=(12,), seed=seed)


_FAST = MdhTrainConfig(phase_a_steps=60, log_every=20, seed=0)
_FAST_SCHED = ContinuationSchedule(bandwidths=(1.0, 8.0, 64.0), patience=30, max_steps=60)


def test_train_step1_learns_and_logs():
    train = _tiny_dataset()
    model, log = train_step1(_tiny_model(), train, LossWeights(), _FAST_SCHED, _FAST)
    summary = log[-1]
    assert summary["event"] == "summary"
    assert summary["accuracy"] >= 0.95
    assert summary["saturation"] >= 0.9
    phases = {r.get("phase") for r in log if r.get("event") == "stage_done"}
    assert phases == {"B", "C"}
    stage_records = [r for r in log if r.get("event") == "stage_done"]
    assert len(stage_records) == 6  # 3 bandwidths x phases B and C
    assert all("converged" in r for r in stage_records)
    assert json.dumps(log[-1])  # records serialise


def test_train_step1_on_a_split_smaller_than_the_batch_finishes():
    # 5 samples, batch_size 32: every minibatch is the whole (shuffled) split
    spec = SplitSpec(train_subjects=5, nnd_subjects=1, test_subjects=1,
                     samples_per_subject=1)
    dims = DatasetDims(latent=6, face=10, iris=10)
    train = generate(spec, DistortionModel(0.05, 0.05, 0.02, 0.02), dims, 0)[0]
    model = MdhModel("bla", 10, 10, 5, 15, feature_dim=4, fusion_dim=12, hidden=(12,), seed=0)
    cfg = MdhTrainConfig(phase_a_steps=5, batch_size=32, log_every=5, seed=0)
    sched = ContinuationSchedule(bandwidths=(1.0,), patience=3, max_steps=5)
    _, log = train_step1(model, train, LossWeights(), sched, cfg)
    assert log[-1]["event"] == "summary"


def test_train_step1_requires_positive_classification_weight():
    with pytest.raises(ValueError, match="classification weight"):
        train_step1(_tiny_model(), _tiny_dataset(), LossWeights(w_cls=0.0),
                    _FAST_SCHED, _FAST)


def test_train_step1_rejects_class_count_mismatch():
    model = MdhModel("bla", 10, 10, 5, 15, 4, 12, (12,), seed=0)
    with pytest.raises(ValueError, match="subjects"):
        train_step1(model, _tiny_dataset(), LossWeights(), _FAST_SCHED, _FAST)


def test_train_step1_deterministic():
    logs = []
    for _ in range(2):
        _, log = train_step1(_tiny_model(seed=3), _tiny_dataset(seed=3),
                             LossWeights(), _FAST_SCHED, _FAST)
        logs.append(json.dumps(log, sort_keys=True))
    assert logs[0] == logs[1]


def test_unimodal_modes_train():
    train = _tiny_dataset()
    model = MdhModel("face", 10, 10, 8, 15, feature_dim=4, fusion_dim=12,
                     hidden=(12,), seed=1)
    model, log = train_step1(model, train, LossWeights(), _FAST_SCHED, _FAST)
    assert model.iris_encoder is None
    assert log[-1]["accuracy"] > 0.5
