import contextlib
import json

import numpy as np
import pytest

from hashdec import autodiff as ad
from hashdec.autodiff import Tensor, TrainingError, gradient_check
from hashdec.biodata import DatasetDims, DistortionModel, SplitSpec, generate
from hashdec.config import ConfigError, ExperimentConfig
from hashdec.mdh import MdhModel, total_loss, train_step1


def _fusion_model(mode, d, out_dim, seed=0):
    """A model whose one-layer encoders map d inputs to d features."""
    return MdhModel(mode, d, d, num_classes=2, code_bits=3, feature_dim=d, fusion_dim=out_dim,
                    hidden=(), seed=seed)


def _identity_fusion(mode, d):
    out_dim = 2 * d if mode == "fca" else d * d
    model = _fusion_model(mode, d, out_dim)
    for name in ("face_enc/w0", "iris_enc/w0", "fusion/w"):  # the biases start at zero
        model.params[name].data = np.eye(model.params[name].data.shape[0])
    return model


def _row(*values):
    return Tensor(np.array([values], dtype=np.float64))


def test_fuse_fca_definition():
    model = _identity_fusion("fca", 2)
    out = model.fuse(_row(1.0, 2.0), _row(3.0, 4.0))
    assert np.allclose(out.data, np.tanh([[1.0, 2.0, 3.0, 4.0]]))


def test_fuse_fca_zero_inputs_zero_bias():
    model = _identity_fusion("fca", 3)
    out = model.fuse(_row(0, 0, 0), _row(0, 0, 0))
    assert np.array_equal(out.data, np.zeros((1, 6)))


def test_fuse_bla_outer_product_arithmetic():
    model = _identity_fusion("bla", 2)
    out = model.fuse(_row(1.0, 2.0), _row(3.0, 4.0))
    assert np.allclose(out.data, np.tanh([[3.0, 4.0, 6.0, 8.0]]))


def test_fuse_bla_zero_modality_blocks_interaction():
    rng = np.random.default_rng(1)
    model = _fusion_model("bla", 3, 5, seed=1)
    zero_face = _row(0, 0, 0)
    out1 = model.fuse(zero_face, _row(*rng.standard_normal(3)))
    out2 = model.fuse(zero_face, _row(*rng.standard_normal(3)))
    # bilinear interaction vanishes: output is bias-only however iris varies
    assert np.allclose(out1.data, out2.data)
    assert np.allclose(out1.data, np.tanh(model.params["fusion/b"].data))


def test_fusion_mode_mismatch_errors():
    with pytest.raises(ValueError, match="unknown fusion mode"):
        _fusion_model("cca", 2, 4)


def test_fusion_gradients_both_modes():
    rng = np.random.default_rng(2)
    for mode in ("fca", "bla"):
        model = _fusion_model(mode, 3, 4, seed=2)
        f0 = rng.standard_normal((2, 3))
        i0 = rng.standard_normal((2, 3))

        def f(tf, ti, w, b):
            fused = model.fuse(tf, ti)
            return ad.tensor_sum(ad.square(fused))

        report = gradient_check(f, [Tensor(f0), Tensor(i0), model.params["fusion/w"],
                                    model.params["fusion/b"]])
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


@pytest.mark.parametrize("mode, encoders, join", [("fca", 2, 1), ("bla", 2, 1), ("face", 1, 0)])
def test_one_graph_node_per_affine_layer(mode, encoders, join):
    # every affine layer (encoder layers, fusion, hashing, head) is one
    # primitive, so per-op dispatch cannot creep back into the forward pass
    rng = np.random.default_rng(13)
    face, iris = rng.standard_normal((4, 5)), rng.standard_normal((4, 6))
    for depth in range(3):
        model = MdhModel(mode, 5, 6, 3, 7, feature_dim=3, fusion_dim=6, hidden=(8,) * depth)
        acts, logits = model.forward(face, iris)
        order = ad.GradientTape(ad.add(ad.tensor_sum(acts), ad.tensor_sum(logits))).order
        affine = encoders * (depth + 1) + 3
        assert len(order) == affine + join + 3  # + the two sums and their add


def _loss_parts(acts_matrix, weights=ExperimentConfig(l2=0.0)):
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
    weights = ExperimentConfig(w_cls=1.0, w_quant=0.2, w_ent=0.3, l2=0.01)
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
        total_loss(logits, Tensor(np.zeros((1, 4))), labels, [], ExperimentConfig())


def test_continuation_monotonicity():
    model = MdhModel("fca", 5, 5, 3, 9, 3, 6, (4,), seed=2)
    face, iris = np.ones((2, 5)), np.full((2, 5), -0.5)
    model.beta = 2.0
    with ad.no_grad():
        lo, _ = model.forward(face, iris)
    model.beta = 8.0
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
                                 model.weight_tensors(), ExperimentConfig())
            return loss

        report = gradient_check(f, params)
        assert report.max_relative_error < 1e-4, mode


def test_schedule_validation():
    with pytest.raises(ConfigError, match="start at bandwidth 1"):
        ExperimentConfig(bandwidths=(2.0, 4.0))
    with pytest.raises(ConfigError, match="strictly increasing"):
        ExperimentConfig(bandwidths=(1.0, 4.0, 4.0))
    with pytest.raises(ConfigError, match="bandwidths"):
        ExperimentConfig(bandwidths=())
    for name in ("w_quant", "w_ent", "l2"):
        with pytest.raises(ConfigError, match=f"{name}: loss weights must be non-negative"):
            ExperimentConfig(**{name: -1.0})
    assert ExperimentConfig(w_quant=0.0, w_ent=0.0, l2=0.0).l2 == 0.0


def _tiny_dataset(seed=0):
    spec = SplitSpec(train_subjects=8, nnd_subjects=2, test_subjects=2,
                     samples_per_subject=6)
    dims = DatasetDims(latent=6, face=10, iris=10)
    return generate(spec, DistortionModel(0.05, 0.05, 0.02, 0.02), dims, seed)[0]


def _tiny_model(seed=0):
    return MdhModel("bla", 10, 10, 8, 15, feature_dim=4, fusion_dim=12,
                    hidden=(12,), seed=seed)


_FAST = ExperimentConfig(phase_a_steps=60, bandwidths=(1.0, 8.0, 64.0), patience=30,
                         stage_max_steps=60)


def test_train_step1_learns_and_logs():
    train = _tiny_dataset()
    model, log = train_step1(_tiny_model(), train, _FAST, seed=0)
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
    cfg = ExperimentConfig(phase_a_steps=5, batch_size=32, bandwidths=(1.0,), patience=3,
                           stage_max_steps=5)
    _, log = train_step1(model, train, cfg, seed=0)
    assert log[-1]["event"] == "summary"


def test_train_step1_requires_positive_classification_weight():
    # the config refuses the value when it loads, so no training can start with it
    for w_cls in (0.0, -1.0):
        with pytest.raises(ConfigError, match="w_cls: classification weight must be positive"):
            ExperimentConfig(w_cls=w_cls)


def test_train_step1_rejects_class_count_mismatch():
    model = MdhModel("bla", 10, 10, 5, 15, 4, 12, (12,), seed=0)
    with pytest.raises(ValueError, match="subjects"):
        train_step1(model, _tiny_dataset(), _FAST, seed=0)


def test_train_step1_deterministic():
    logs = []
    for _ in range(2):
        _, log = train_step1(_tiny_model(seed=3), _tiny_dataset(seed=3), _FAST, seed=0)
        logs.append(json.dumps(log, sort_keys=True))
    assert logs[0] == logs[1]


def test_unimodal_modes_train():
    train = _tiny_dataset()
    model = MdhModel("face", 10, 10, 8, 15, feature_dim=4, fusion_dim=12,
                     hidden=(12,), seed=1)
    model, log = train_step1(model, train, _FAST, seed=0)
    assert not model.parameters("iris_enc/")
    assert log[-1]["accuracy"] > 0.5


def _phase_b_steps(monkeypatch, model, cfg):
    """Per phase-B step of ``train_step1``: the trained gradients, the tape's
    node count and whether a node takes an encoder tensor as input."""
    encoders = [t for name, t in model.params.items() if "_enc/" in name]
    tapes, steps = [], []

    class Recorded(ad.GradientTape):
        def __init__(self, result):
            super().__init__(result)
            tapes.append(self)

    adam_step = ad.adam_step

    def recorded_step(params, state):
        if "hash/w" in params and "face_enc/w0" not in params:
            inputs = [x for t in tapes[-1].order for x in t.node.inputs]
            steps.append(({name: p.grad.copy() for name, p in params.items()},
                          len(tapes[-1].order),
                          any(x is enc for x in inputs for enc in encoders)))
        return adam_step(params, state)

    monkeypatch.setattr(ad, "GradientTape", Recorded)
    monkeypatch.setattr(ad, "adam_step", recorded_step)
    train_step1(model, _tiny_dataset(), cfg, seed=0)
    monkeypatch.undo()
    return steps


def test_phase_b_records_no_tape_through_the_frozen_encoders(monkeypatch):
    cfg = ExperimentConfig(phase_a_steps=5, bandwidths=(1.0, 8.0), patience=3,
                           stage_max_steps=4)
    model = _tiny_model()
    frozen = _phase_b_steps(monkeypatch, model, cfg)
    # the same run with the encoders left trainable: the old phase B
    monkeypatch.setattr(ad, "frozen", lambda tensors: contextlib.nullcontext())
    recording = _phase_b_steps(monkeypatch, _tiny_model(), cfg)
    assert len(frozen) == len(recording) == 8
    for (grads, nodes, through), (old_grads, old_nodes, old_through) in zip(frozen, recording):
        assert grads.keys() == old_grads.keys()
        assert all(grads[k].tobytes() == old_grads[k].tobytes() for k in grads)
        assert not through and old_through and nodes < old_nodes
    assert all(t.requires_grad for t in model.params.values())
