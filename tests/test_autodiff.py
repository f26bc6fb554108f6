import math

import numpy as np
import pytest

from hashdec import autodiff as ad
from hashdec.autodiff import (
    Adam,
    AdamState,
    GradientTape,
    Tensor,
    TrainingError,
    adam_step,
    binary_cross_entropy,
    gradient_check,
    matmul,
    outer_product,
    scaled_tanh,
    sigmoid,
    softmax_cross_entropy,
)


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


def test_scaled_tanh_values():
    assert scaled_tanh(Tensor([0.0]), 3.0).data[0] == 0.0
    assert scaled_tanh(Tensor([1.0]), 1.0).data[0] == pytest.approx(0.7615941559557649, abs=1e-15)
    # large bandwidth approaches the sign function
    assert abs(scaled_tanh(Tensor([0.5]), 64.0).data[0] - 1.0) < 1e-9


def test_scaled_tanh_rejects_nonpositive_beta():
    with pytest.raises(ValueError, match="positive"):
        scaled_tanh(Tensor([1.0]), 0.0)


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
    for _ in range(5):
        adam_step({"p": p}, {"p": np.zeros(3)}, state)
    assert np.array_equal(p.data, [1.0, -2.0, 3.0])
    assert state.timestep == 5


def test_adam_single_step_hand_computed():
    # bias-corrected moments equal g and g^2 at t=1, so the step is
    # step_size * g / (|g| + eps) = step_size / (1 + eps) for g = 1
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdamState(step_size=0.05)
    adam_step({"p": p}, {"p": np.array([1.0])}, state)
    assert p.data[0] == pytest.approx(-0.05, rel=1e-6)


def test_adam_quadratic_bowl():
    p = Tensor(np.array([5.0]), requires_grad=True)
    state = AdamState(step_size=0.1)
    for _ in range(500):
        adam_step({"p": p}, {"p": 2.0 * p.data}, state)
    assert abs(p.data[0]) < 1e-2


def test_adam_nan_gradient_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(TrainingError, match="hash_w"):
        adam_step({"hash_w": p}, {"hash_w": np.array([np.nan])}, AdamState())


def test_adam_state_validation():
    with pytest.raises(ValueError):
        AdamState(beta1=1.0)
    with pytest.raises(ValueError):
        AdamState(epsilon=0.0)


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
        h = ad.tanh(matmul(x, t1))
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
    tape = GradientTape(ad.tensor_sum(ad.tanh(matmul(x, w))))
    tape.backward()
    gx, gw = x.grad.copy(), w.grad.copy()
    tape.backward()
    assert np.array_equal(gx, x.grad) and np.array_equal(gw, w.grad)


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
        "concat": lambda t: ad.tensor_sum(ad.square(ad.concat([t, t], axis=1))),
        "clip": lambda t: ad.tensor_sum(ad.clip(t, -1.5, 1.5)),
        "take": lambda t: ad.tensor_sum(ad.square(ad.take(t, np.array([0, 2, 2, 1])))),
        "segment_sum": lambda t: ad.tensor_sum(
            ad.square(ad.segment_sum(t, np.array([0, 1, 0]), 2))
        ),
    }
    for name, f in cases.items():
        report = gradient_check(f, [Tensor(x.copy())])
        assert report.max_relative_error < 1e-4, f"{name}: {report.max_relative_error}"


def test_batch_outer_gradient_and_values():
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 4))
    out = ad.batch_outer(Tensor(a), Tensor(b))
    assert np.allclose(out.data[1], np.outer(a[1], b[1]).ravel())
    coeff = rng.standard_normal((2, 12))

    def f(ta, tb):
        return ad.tensor_sum(ad.mul(ad.batch_outer(ta, tb), Tensor(coeff)))

    assert gradient_check(f, [Tensor(a), Tensor(b)]).max_relative_error < 1e-6


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


def test_adam_wrapper_requires_backward():
    p = Tensor(np.ones(2), requires_grad=True)
    opt = Adam({"p": p})
    with pytest.raises(TrainingError, match="no gradient"):
        opt.step()


def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        GradientTape(Tensor(np.ones(3)))
