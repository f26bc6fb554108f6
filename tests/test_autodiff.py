import math
import threading

import numpy as np
import pytest

from hashdec import autodiff as ad
from hashdec.autodiff import (
    AdamState,
    GradientTape,
    Tensor,
    TrainingError,
    adam_step,
    binary_cross_entropy,
    dense,
    gradient_check,
    matmul,
    outer_product,
    scaled_tanh,
    sigmoid,
    softmax_cross_entropy,
)
from hashdec.bch import build_code
from hashdec.config import ExperimentConfig
from hashdec.mdh import MdhModel, one_hot, total_loss
from hashdec.nnd import NndModel
from hashdec.tanner import SCAN_LANES


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_dot_product():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 2))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def f(ta, tb):
        return ad.tensor_sum(matmul(ta, tb))

    report = gradient_check(f, [Tensor(a), Tensor(b)])
    assert report.max_relative_error < 1e-6
    # gradient of sum w.r.t. a is ones(3,2) @ b.T
    ta, tb = Tensor(a, requires_grad=True), Tensor(b)
    GradientTape(ad.tensor_sum(matmul(ta, tb))).backward()
    assert np.allclose(ta.grad, np.ones((3, 2)) @ b.T)


@pytest.mark.parametrize("beta", [None, 1.0, 7.5])
@pytest.mark.parametrize("batch", [1, 13])
@pytest.mark.parametrize("bias_shape", ["row", "vector"])
@pytest.mark.parametrize("x_grad", [True, False])
def test_dense_is_bitwise_the_matmul_add_tanh_chain(beta, batch, bias_shape, x_grad):
    rng = np.random.default_rng(batch)
    x0 = rng.standard_normal((batch, 5))
    w0 = rng.standard_normal((5, 4)) / 2.0
    b0 = rng.standard_normal((1, 4) if bias_shape == "row" else (4,))
    coeff = Tensor(rng.standard_normal((batch, 4)))

    def run(layer):
        x = Tensor(x0.copy(), requires_grad=x_grad)
        w, b = Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
        out = layer(x, w, b)
        GradientTape(ad.tensor_sum(ad.mul(out, coeff))).backward()
        return out.data, x.grad, w.grad, b.grad

    def chain(x, w, b):
        h = ad.add(matmul(x, w), b)
        return h if beta is None else scaled_tanh(h, beta)

    fused = run(lambda x, w, b: dense(x, w, b, beta))
    reference = run(chain)
    for name, got, want in zip(("output", "x", "w", "b"), fused, reference):
        if want is None:
            assert got is None, name
        else:
            assert got.shape == want.shape and np.array_equal(got, want), name


@pytest.mark.parametrize("beta", [None, 1.3])
def test_dense_gradient_matches_finite_differences(beta):
    rng = np.random.default_rng(5)
    coeff = Tensor(rng.standard_normal((3, 2)))

    def f(x, w, b):
        return ad.tensor_sum(ad.mul(dense(x, w, b, beta), coeff))

    inputs = [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal((1, 2))]
    report = gradient_check(f, [Tensor(a) for a in inputs])
    assert report.max_relative_error < 1e-6


def test_scaled_tanh_values():
    assert scaled_tanh(Tensor([0.0]), 3.0).data[0] == 0.0
    assert scaled_tanh(Tensor([1.0]), 1.0).data[0] == pytest.approx(0.7615941559557649, abs=1e-15)
    # large bandwidth approaches the sign function
    assert abs(scaled_tanh(Tensor([0.5]), 64.0).data[0] - 1.0) < 1e-9


def test_scaled_tanh_rejects_nonpositive_beta():
    with pytest.raises(ValueError, match="positive"):
        scaled_tanh(Tensor([1.0]), 0.0)
    with pytest.raises(ValueError, match="positive"):
        dense(Tensor(np.ones((1, 2))), Tensor(np.ones((2, 2))), Tensor(np.zeros((1, 2))), 0.0)


def test_scaled_tanh_monotone_saturation():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.1, 2.0, 50) * rng.choice([-1.0, 1.0], 50)
    lo = np.abs(scaled_tanh(Tensor(x), 2.0).data)
    hi = np.abs(scaled_tanh(Tensor(x), 5.0).data)
    assert np.all(hi > lo)
    assert np.all(np.abs(scaled_tanh(Tensor(x), 7.0).data) < 1.0)
    # monotone in x for a fixed bandwidth
    grid = np.linspace(-3, 3, 101)
    assert np.all(np.diff(scaled_tanh(Tensor(grid), 3.0).data) > 0)


def test_sigmoid_values_and_saturation():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5
    big = sigmoid(Tensor([40.0])).data[0]
    assert 0.0 < big < 1.0 and big >= 1.0 - 1e-15
    small = sigmoid(Tensor([-40.0])).data[0]
    assert 0.0 < small < 1.0


def test_sigmoid_gradient_at_zero():
    x = Tensor([0.0], requires_grad=True)
    GradientTape(ad.tensor_sum(sigmoid(x))).backward()
    assert x.grad[0] == pytest.approx(0.25, abs=1e-15)


def test_softmax_ce_perfect_prediction():
    logits = Tensor([[40.0, 0.0, 0.0]])
    labels = Tensor([[1.0, 0.0, 0.0]])
    assert float(softmax_cross_entropy(logits, labels).data) < 1e-15


def test_softmax_ce_uniform():
    logits = Tensor(np.zeros((2, 4)))
    labels = Tensor(np.eye(4)[:2])
    assert float(softmax_cross_entropy(logits, labels).data) == pytest.approx(math.log(4), abs=1e-12)


def test_softmax_ce_rejects_non_one_hot():
    with pytest.raises(ValueError, match="one-hot"):
        softmax_cross_entropy(Tensor(np.zeros((1, 3))), Tensor([[0.5, 0.5, 0.0]]))


def test_softmax_ce_gradient():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((2, 3))
    labels = np.eye(3)[rng.integers(0, 3, 2)]

    def f(t):
        return softmax_cross_entropy(t, Tensor(labels))

    assert gradient_check(f, [Tensor(logits)]).max_relative_error < 1e-6


def test_softmax_ce_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        logits = rng.standard_normal((4, 5)) * 3
        labels = np.eye(5)[rng.integers(0, 5, 4)]
        assert float(softmax_cross_entropy(Tensor(logits), Tensor(labels)).data) >= 0.0


def test_bce_values():
    half = Tensor(np.full(6, 0.5))
    targets = Tensor(np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0]))
    assert float(binary_cross_entropy(half, targets).data) == pytest.approx(math.log(2), abs=1e-12)
    near = Tensor(np.array([1e-13, 1.0 - 1e-13]))
    assert float(binary_cross_entropy(near, Tensor(np.array([0.0, 1.0]))).data) < 1e-10
    # the most extreme outputs the (0, 1) guard lets through keep both logs
    # finite, a loss of 390.588...; the gradient there overflows, so only the
    # forward pass is checked
    worst = Tensor(np.array([5e-324, 1.0 - 2.0**-53]))
    loss = float(binary_cross_entropy(worst, Tensor(np.array([1.0, 0.0]))).data)
    assert loss == pytest.approx(-(math.log(5e-324) + math.log(2.0**-53)) / 2, rel=1e-12)


def test_bce_domain_error():
    with pytest.raises(ValueError, match="strictly"):
        binary_cross_entropy(Tensor([0.0, 0.5]), Tensor([0.0, 1.0]))


def test_bce_gradient():
    rng = np.random.default_rng(4)
    outputs = rng.uniform(0.05, 0.95, 8)
    targets = rng.integers(0, 2, 8).astype(float)

    def f(t):
        return binary_cross_entropy(t, Tensor(targets))

    assert gradient_check(f, [Tensor(outputs)]).max_relative_error < 1e-6


def test_outer_product():
    out = outer_product(Tensor([1.0, 0.0]), Tensor([2.0, 3.0]))
    assert np.array_equal(out.data, [[2.0, 3.0], [0.0, 0.0]])
    assert np.array_equal(outer_product(Tensor(np.zeros(3)), Tensor([1.0, 2.0])).data, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="vectors"):
        outer_product(Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))


def test_outer_product_gradient():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(3), rng.standard_normal(4)
    coeff = rng.standard_normal((3, 4))

    def f(ta, tb):
        return ad.tensor_sum(ad.mul(outer_product(ta, tb), Tensor(coeff)))

    assert gradient_check(f, [Tensor(a), Tensor(b)]).max_relative_error < 1e-6


def test_adam_zero_gradient_is_identity():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    state = AdamState()
    p.grad = np.zeros(3)
    for _ in range(5):
        adam_step({"p": p}, state)
    assert np.array_equal(p.data, [1.0, -2.0, 3.0])
    assert state.timestep == 5


def test_adam_single_step_hand_computed():
    # bias-corrected moments equal g and g^2 at t=1, so the step is
    # step_size * g / (|g| + eps) = step_size / (1 + eps) for g = 1
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdamState(step_size=0.05)
    p.grad = np.array([1.0])
    adam_step({"p": p}, state)
    assert p.data[0] == pytest.approx(-0.05, rel=1e-6)


def test_adam_quadratic_bowl():
    p = Tensor(np.array([5.0]), requires_grad=True)
    state = AdamState(step_size=0.1)
    for _ in range(500):
        p.grad = 2.0 * p.data
        adam_step({"p": p}, state)
    assert abs(p.data[0]) < 1e-2


def test_adam_nan_gradient_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingError, match="hash_w"):
        adam_step({"hash_w": p}, AdamState())


def test_adam_non_finite_gradient_moves_nothing():
    # a NaN in a later parameter is refused before the earlier one moves
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    q = Tensor(np.array([3.0]), requires_grad=True)
    state = AdamState()
    p.grad, q.grad = np.array([0.5, -0.5]), np.array([0.25])
    adam_step({"p": p, "q": q}, state)
    before = (p.data.copy(), q.data.copy(),
              {k: v.copy() for k, v in state.first_moment.items()},
              {k: v.copy() for k, v in state.second_moment.items()})
    for bad in (np.nan, np.inf):
        q.grad = np.array([bad])
        with pytest.raises(TrainingError, match="'q'"):
            adam_step({"p": p, "q": q}, state)
        assert state.timestep == 1
        assert np.array_equal(p.data, before[0]) and np.array_equal(q.data, before[1])
        for moments, saved in zip((state.first_moment, state.second_moment), before[2:]):
            assert moments.keys() == saved.keys()
            assert all(np.array_equal(moments[k], saved[k]) for k in saved)
    fresh = AdamState()
    with pytest.raises(TrainingError):
        adam_step({"p": p, "q": q}, fresh)
    assert fresh.timestep == 0 and not fresh.first_moment and not fresh.second_moment


def test_adam_is_bitwise_the_textbook_expressions():
    # 50 steps on the MDH's parameter shapes at the default config, against
    # the update written as whole-array expressions
    cfg = ExperimentConfig()
    model = MdhModel(cfg.fusion_mode, cfg.face_dim, cfg.iris_dim, cfg.train_subjects, 63,
                     cfg.feature_dim, cfg.fusion_dim, cfg.encoder_hidden)
    params = model.parameters()
    ref = {name: p.data.copy() for name, p in params.items()}
    m = {name: np.zeros_like(x) for name, x in ref.items()}
    v = {name: np.zeros_like(x) for name, x in ref.items()}
    state = AdamState(step_size=cfg.lr)
    b1, b2 = ad.ADAM_BETA1, ad.ADAM_BETA2
    rng = np.random.default_rng(18)
    for t in range(1, 51):
        for name, p in params.items():
            # gradients over many magnitudes, some exactly zero
            g = rng.standard_normal(p.data.shape) * 10.0 ** rng.integers(-12, 4, p.data.shape)
            p.grad = np.where(rng.random(p.data.shape) < 0.1, 0.0, g)
            m[name] = b1 * m[name] + (1.0 - b1) * p.grad
            v[name] = b2 * v[name] + (1.0 - b2) * p.grad * p.grad
            m_hat = m[name] / (1.0 - b1**t)
            v_hat = v[name] / (1.0 - b2**t)
            ref[name] -= state.step_size * m_hat / (np.sqrt(v_hat) + ad.ADAM_EPSILON)
        adam_step(params, state)
    assert len(params) == 18
    for name, p in params.items():
        assert p.data.tobytes() == ref[name].tobytes()
        assert state.first_moment[name].tobytes() == m[name].tobytes()
        assert state.second_moment[name].tobytes() == v[name].tobytes()


def test_adam_state_validation():
    for step_size in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="step size must be positive"):
            AdamState(step_size=step_size)


def test_gradient_check_linear():
    c = np.array([2.0, -3.0, 0.5])

    def f(t):
        return ad.tensor_sum(ad.mul(t, Tensor(c)))

    assert gradient_check(f, [Tensor(np.ones(3))]).max_relative_error < 1e-9


def test_gradient_check_composed_network():
    rng = np.random.default_rng(6)
    w1, w2 = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
    labels = np.eye(3)[rng.integers(0, 3, 2)]

    def f(x, t1, t2):
        h = ad.scaled_tanh(matmul(x, t1), 1.0)
        return softmax_cross_entropy(matmul(h, t2), Tensor(labels))

    report = gradient_check(f, [Tensor(rng.standard_normal((2, 4))), Tensor(w1), Tensor(w2)])
    assert report.max_relative_error < 1e-4


def test_gradient_check_constant_function():
    def f(t):
        return ad.tensor_sum(ad.mul(t, Tensor(np.zeros(3))))

    report = gradient_check(f, [Tensor(np.ones(3))])
    assert report.max_relative_error < 1e-9


def test_tape_backward_bitwise_deterministic():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    tape = GradientTape(ad.tensor_sum(ad.scaled_tanh(matmul(x, w), 1.0)))
    tape.backward()
    gx, gw = x.grad.copy(), w.grad.copy()
    tape.backward()
    assert np.array_equal(gx, x.grad) and np.array_equal(gw, w.grad)


def _nnd_loss(batch):
    model = NndModel(build_code(6, 3), iterations=5)
    rng = np.random.default_rng(batch)
    for t in model.parameters().values():
        t.data = t.data * (1.0 + 0.05 * rng.standard_normal(t.data.shape))
    llr = Tensor(rng.normal(0.0, 3.0, (batch, 63)), requires_grad=True)
    targets = Tensor(rng.integers(0, 2, (batch, 63)).astype(np.float64))
    return binary_cross_entropy(model.forward(llr), targets)


def _mdh_loss():
    model = MdhModel("bla", 24, 20, 10, 63, feature_dim=16, fusion_dim=128, hidden=(128, 64), seed=3)
    rng = np.random.default_rng(5)
    acts, logits = model.forward(rng.standard_normal((32, 24)), rng.standard_normal((32, 20)))
    labels = Tensor(one_hot(rng.integers(0, 10, 32), 10))
    return total_loss(logits, acts, labels, model.weight_tensors(), ExperimentConfig())[0]


@pytest.mark.parametrize("loss_of", [lambda: _nnd_loss(4), lambda: _nnd_loss(64), _mdh_loss],
                         ids=["nnd-B4", "nnd-B64", "mdh"])
def test_backward_writes_into_no_forward_array(loss_of):
    # primitives compute in place; a write into an array a backward closure
    # reads would show as a second pass's gradients differing from the first
    assert 4 * 18 < SCAN_LANES <= 64 * 18  # BCH(63,45): both scan forms
    tape = GradientTape(loss_of())
    forward = [t.data.tobytes() for t in tape.order + tape.leaves]
    tape.backward()
    first = [t.grad.tobytes() for t in tape.leaves]
    tape.backward()
    assert [t.grad.tobytes() for t in tape.leaves] == first
    assert [t.data.tobytes() for t in tape.order + tape.leaves] == forward


def test_tape_on_a_leaf_result_gives_gradient_one():
    x = Tensor(np.array(3.0), requires_grad=True)
    GradientTape(x).backward()
    assert np.array_equal(x.grad, np.ones(()))


def test_tape_sums_the_gradients_of_a_leaf_used_twice():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    a, b = Tensor(np.array([3.0, 5.0])), Tensor(np.array([7.0, 11.0]))
    GradientTape(ad.tensor_sum(ad.add(ad.mul(a, x), ad.mul(x, b)))).backward()
    assert np.array_equal(x.grad, a.data + b.data)
    assert a.grad is None  # constants get no gradient


def test_primitive_gradients_against_finite_differences():
    # every differentiable primitive on random inputs in [-2, 2]
    rng = np.random.default_rng(8)
    x = rng.uniform(-2, 2, (3, 4))
    c1 = Tensor(rng.uniform(-2, 2, (3, 4)))
    c2 = Tensor(rng.uniform(-2, 2, (3, 4)))
    cases = {
        "add": lambda t: ad.tensor_sum(ad.square(ad.add(t, c1))),
        "sub": lambda t: ad.tensor_sum(ad.square(ad.sub(c2, t))),
        "mul": lambda t: ad.tensor_sum(ad.mul(t, c1)),
        "neg": lambda t: ad.tensor_sum(ad.neg(t)),
        "tanh": lambda t: ad.tensor_sum(ad.scaled_tanh(t, 1.3)),
        "sigmoid": lambda t: ad.tensor_sum(sigmoid(t)),
        "square": lambda t: ad.tensor_sum(ad.square(t)),
        "sum_sq": lambda t: ad.sum_sq(t),
        "mean": lambda t: ad.mean(t),
        "mean_axis": lambda t: ad.tensor_sum(ad.square(ad.mean(t, axis=1))),
        "transpose": lambda t: ad.tensor_sum(ad.square(ad.transpose(t))),
        "reshape": lambda t: ad.tensor_sum(ad.square(ad.reshape(t, (4, 3)))),
        "concat": lambda t: ad.tensor_sum(ad.square(ad.concat([t, t]))),
        "clip": lambda t: ad.tensor_sum(ad.clip(t, -1.5, 1.5)),
        "take": lambda t: ad.tensor_sum(ad.square(ad.take(t, np.array([0, 2, 2, 1])))),
        "segment_sum": lambda t: ad.tensor_sum(
            ad.square(ad.segment_sum(t, np.array([0, 1, 0]), 2))
        ),
    }
    for name, f in cases.items():
        report = gradient_check(f, [Tensor(x.copy())])
        assert report.max_relative_error < 1e-4, f"{name}: {report.max_relative_error}"


_CLAMP_BOUNDS = [(-30.0, 30.0), (-(1.0 - 1e-12), 1.0 - 1e-12),
                 (1e-300, float(np.nextafter(1.0, 0.0)))]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _clamp_cases(lo, hi):
    """NaN, signed zeros, infinities, both bounds and their neighbours, random data."""
    edge = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 30.0, -30.0, 1.0 - 1e-12,
            -(1.0 - 1e-12), lo, hi]
    edge += [float(np.nextafter(v, d)) for v in (lo, hi) for d in (-np.inf, np.inf)]
    rng = np.random.default_rng(11)
    return [np.array(edge).reshape(-1, 1), rng.normal(0.0, 40.0, (368, 1)),
            rng.normal(0.0, 40.0, (368, 512)), rng.uniform(-1.0, 1.0, (368, 512))]


@pytest.mark.parametrize("lo, hi", _CLAMP_BOUNDS)
def test_clip_is_bitwise_np_clip(lo, hi):
    for x in _clamp_cases(lo, hi):
        got, want = ad.clip(Tensor(x), lo, hi).data, np.clip(x, lo, hi)
        assert got.shape == x.shape and np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("lo, hi", _CLAMP_BOUNDS)
def test_clip_gradient_mask_at_and_next_to_the_bounds(lo, hi):
    # the mask built from the output passes the gradient exactly where the
    # input lies strictly inside the interval
    x = np.array([lo, hi, np.nan, -np.inf, np.inf, 0.5 * (lo + hi)]
                 + [float(np.nextafter(v, d)) for v in (lo, hi) for d in (-np.inf, np.inf)])
    t = Tensor(x.copy(), requires_grad=True)
    out = ad.clip(t, lo, hi)
    assert np.array_equal(_bits(out.data), _bits(np.clip(x, lo, hi)))
    GradientTape(ad.tensor_sum(ad.mul(out, Tensor(np.full(x.shape, 3.0))))).backward()
    inside = (x > lo) & (x < hi)
    assert np.array_equal(t.grad, np.where(inside, 3.0, 0.0))
    assert inside.sum() == 3  # the midpoint and the two neighbours inside


def test_batch_outer_gradient_and_values():
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 4))
    out = ad.batch_outer(Tensor(a), Tensor(b))
    assert np.allclose(out.data[1], np.outer(a[1], b[1]).ravel())
    coeff = rng.standard_normal((2, 12))

    def f(ta, tb):
        return ad.tensor_sum(ad.mul(ad.batch_outer(ta, tb), Tensor(coeff)))

    assert gradient_check(f, [Tensor(a), Tensor(b)]).max_relative_error < 1e-6


def _same_sums(got, want):
    """Bitwise equal, except which NaN a bucket holds when NaNs of both signs
    meet in it: ``np.add.at`` keeps the running sum's NaN on 1-D rows and the
    row's NaN on wider ones; ``np.bincount`` keeps the running sum's."""
    nan = np.isnan(want)
    return got.shape == want.shape and np.array_equal(np.isnan(got), nan) and np.array_equal(
        _bits(np.where(nan, 0.0, got)), _bits(np.where(nan, 0.0, want)))


@pytest.mark.parametrize("tail", [(), (1,), (5,), (2, 3)])
def test_scatter_add_is_bitwise_np_add_at(tail):
    # unsorted, repeated ids and empty buckets (2, 4 and 6); one row each of
    # NaN, -NaN, +-inf, +-0.0, the rest random
    ids = np.array([3, 0, 3, 5, 0, 3, 1, 5, 3, 0, 3])
    rows = {1: np.nan, 2: np.inf, 3: np.inf, 6: -0.0, 7: -np.inf, 8: 0.0, 9: -np.nan}
    x = np.random.default_rng(12).normal(0.0, 1e3, (ids.size,) + tail)
    for row, value in rows.items():
        x[row] = value
    want = np.zeros((7,) + tail)
    with np.errstate(invalid="ignore"):  # inf + -inf in bucket 5
        np.add.at(want, ids, x)
    assert _same_sums(ad.scatter_add(ids, x, 7), want)
    # without a -NaN row every bit agrees, NaNs included
    x[9] = 1.5
    want = np.zeros((7,) + tail)
    with np.errstate(invalid="ignore"):
        np.add.at(want, ids, x)
    assert np.array_equal(_bits(ad.scatter_add(ids, x, 7)), _bits(want))
    # segment_sum's forward and take's backward are that kernel
    assert np.array_equal(_bits(ad.segment_sum(Tensor(x), ids, 7).data), _bits(want))
    t = Tensor(np.zeros((7,) + tail), requires_grad=True)
    with np.errstate(invalid="ignore"):  # the loss multiplies 0 by inf
        GradientTape(ad.tensor_sum(ad.mul(ad.take(t, ids), Tensor(x)))).backward()
    assert np.array_equal(_bits(t.grad), _bits(want))


def test_forward_and_backward_stay_finite():
    rng = np.random.default_rng(10)
    x = Tensor(rng.uniform(-2, 2, (4, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 5)) * 30, requires_grad=True)
    labels = np.eye(5)[rng.integers(0, 5, 4)]
    loss = softmax_cross_entropy(matmul(ad.scaled_tanh(x, 8.0), w), Tensor(labels))
    GradientTape(loss).backward()
    assert np.isfinite(loss.data)
    assert np.all(np.isfinite(x.grad)) and np.all(np.isfinite(w.grad))


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.square(x)
    assert y.node is None and not y.requires_grad


def test_no_grad_is_per_thread():
    # one thread inside no_grad does not stop another from recording a graph
    inside, recorded = threading.Event(), threading.Event()
    nodes = {}

    def quiet():
        with ad.no_grad():
            inside.set()
            recorded.wait(10)
            nodes["quiet"] = ad.square(Tensor(np.ones(3), requires_grad=True)).node

    def recording():
        inside.wait(10)
        nodes["recording"] = ad.square(Tensor(np.ones(3), requires_grad=True)).node
        recorded.set()

    threads = [threading.Thread(target=quiet), threading.Thread(target=recording)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert nodes["quiet"] is None and nodes["recording"] is not None
    assert ad.square(Tensor(np.ones(3), requires_grad=True)).node is not None


def test_adam_step_requires_backward():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    p.grad = np.ones(2)
    state = AdamState()
    with pytest.raises(TrainingError, match="'q' has no gradient"):
        adam_step({"p": p, "q": q}, state)
    # the refusal comes before any parameter moves
    assert np.array_equal(p.data, np.ones(2)) and state.timestep == 0


def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        GradientTape(Tensor(np.ones(3)))
