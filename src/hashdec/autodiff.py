"""Dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays. Every primitive records its inputs and a
backward closure on the computation graph; ``GradientTape`` materialises the
reverse topological order of everything reachable from a result tensor, so a
backward pass visits each node exactly once. Only the primitives this project
actually trains through are implemented (dense matmul, bias-style broadcast
arithmetic, tanh/sigmoid, the two cross-entropy losses, outer products, and
the gather/segment ops the message-passing decoder needs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LOG_FLOOR = 1e-300  # clamp for log arguments; keeps losses finite


class TrainingError(RuntimeError):
    """Raised when an optimizer or training loop hits a non-recoverable state."""


_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (cheap inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class _Node:
    __slots__ = ("inputs", "backward")

    def __init__(self, inputs, backward):
        self.inputs = inputs
        self.backward = backward


class Tensor:
    """A dense float64 array plus optional gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def backward(self):
        GradientTape(self).backward()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; every overload routes through the module-level primitives
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def make_op(data, inputs, backward):
    """Create the output tensor of a primitive.

    ``backward`` maps the upstream gradient array to a tuple of gradient
    arrays aligned with ``inputs`` (``None`` for inputs that need no grad).
    Other modules use this hook to define their own primitives.
    """
    out = Tensor(data)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = _Node(tuple(inputs), backward)
    return out


class GradientTape:
    """Ordered record of the primitives reachable from a result tensor.

    ``backward()`` replays the record in reverse topological order; each call
    starts from fresh gradient buffers, so repeated passes over the same tape
    are bitwise reproducible.
    """

    def __init__(self, result: Tensor):
        if result.data.size != 1:
            raise ValueError(
                f"backward pass needs a scalar result, got shape {result.data.shape}"
            )
        self.result = result
        self.order, self.leaves = self._toposort(result)

    @staticmethod
    def _toposort(result):
        """Nodes in topological order, and the leaves that need a gradient."""
        order, leaves, seen = [], [], set()
        stack = [(result, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t.node is None:
                if t.requires_grad:
                    leaves.append(t)
                continue
            stack.append((t, True))
            for parent in t.node.inputs:
                if id(parent) not in seen:
                    stack.append((parent, False))
        order.reverse()
        return order, leaves

    def backward(self):
        grads = {id(self.result): np.ones_like(self.result.data)}
        for t in self.order:
            g = grads.pop(id(t), None)
            if g is None:
                continue
            for parent, pg in zip(t.node.inputs, t.node.backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        self.result.grad = np.ones_like(self.result.data)
        for t in self.leaves:
            t.grad = grads.get(id(t))
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / structural primitives
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _wrap(a), _wrap(b)
    return make_op(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    return make_op(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    return make_op(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def neg(a):
    return make_op(-a.data, (a,), lambda g: (-g,))


def matmul(a, b):
    """Matrix product of two 2-D tensors."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}"
        )
    return make_op(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


def transpose(a):
    return make_op(a.data.T.copy(), (a,), lambda g: (g.T.copy(),))


def reshape(a, shape):
    old = a.data.shape
    return make_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return make_op(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def tensor_sum(a, axis=None):
    shape = a.data.shape

    def backward(g):
        if axis is None:
            return (np.full(shape, float(g)),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return make_op(a.data.sum(axis=axis), (a,), backward)


def mean(a, axis=None):
    shape = a.data.shape
    count = a.data.size if axis is None else shape[axis]

    def backward(g):
        if axis is None:
            return (np.full(shape, float(g) / count),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape) / count,)

    return make_op(a.data.mean(axis=axis), (a,), backward)


def square(a):
    return make_op(a.data * a.data, (a,), lambda g: (2.0 * a.data * g,))


def sum_sq(a):
    """Scalar sum of squares (the L2 penalty building block)."""
    return make_op(np.sum(a.data * a.data), (a,), lambda g: (2.0 * a.data * float(g),))


def clip(a, lo, hi):
    """Value clamp with pass-through gradient strictly inside the interval."""
    mask = (a.data > lo) & (a.data < hi)
    return make_op(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def scaled_tanh(x, beta=1.0):
    """Elementwise tanh(beta * x); the sharpness parameter must be positive."""
    if beta <= 0:
        raise ValueError(f"tanh bandwidth must be positive, got {beta}")
    x = _wrap(x)
    t = np.tanh(beta * x.data)
    return make_op(t, (x,), lambda g: (g * beta * (1.0 - t * t),))


def tanh(x):
    return scaled_tanh(x, 1.0)


_SIGMOID_LO = 1e-300
_SIGMOID_HI = float(np.nextafter(1.0, 0.0))


def sigmoid(x):
    """Numerically stable logistic; outputs stay strictly inside (0, 1)."""
    x = _wrap(x)
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)
    return make_op(out, (x,), lambda g: (g * out * (1.0 - out),))


def atanh(x):
    x = _wrap(x)
    return make_op(np.arctanh(x.data), (x,), lambda g: (g / (1.0 - x.data * x.data),))


def take(a, indices):
    """Gather rows along axis 0; duplicate indices accumulate in the backward."""
    indices = np.asarray(indices)
    shape = a.data.shape

    def backward(g):
        out = np.zeros(shape)
        np.add.at(out, indices, g)
        return (out,)

    return make_op(a.data[indices], (a,), backward)


def segment_sum(a, segment_ids, num_segments):
    """Sum rows of ``a`` into ``num_segments`` buckets along axis 0."""
    segment_ids = np.asarray(segment_ids)
    out = np.zeros((num_segments,) + a.data.shape[1:])
    np.add.at(out, segment_ids, a.data)
    return make_op(out, (a,), lambda g: (g[segment_ids],))


def outer_product(a, b):
    """Outer product of two vectors: result[i, j] = a[i] * b[j]."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise ValueError(
            f"outer_product expects vectors, got shapes {a.data.shape} and {b.data.shape}"
        )
    return make_op(
        np.outer(a.data, b.data),
        (a, b),
        lambda g: (g @ b.data, g.T @ a.data),
    )


def batch_outer(a, b):
    """Row-wise outer products, flattened: (N,p),(N,q) -> (N, p*q)."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ValueError(
            f"batch_outer expects aligned 2-D inputs, got {a.data.shape} and {b.data.shape}"
        )
    n, p = a.data.shape
    q = b.data.shape[1]
    out = np.einsum("np,nq->npq", a.data, b.data).reshape(n, p * q)

    def backward(g):
        gm = g.reshape(n, p, q)
        return (
            np.einsum("npq,nq->np", gm, b.data),
            np.einsum("npq,np->nq", gm, a.data),
        )

    return make_op(out, (a, b), backward)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy over a batch of one-hot labels.

    ``logits`` and ``labels`` are (N, M); each label row must be one-hot.
    The gradient w.r.t. the logits is (softmax - labels) / N.
    """
    logits, labels = _wrap(logits), _wrap(labels)
    if logits.data.shape != labels.data.shape or logits.data.ndim != 2:
        raise ValueError(
            f"logits/labels shape mismatch: {logits.data.shape} vs {labels.data.shape}"
        )
    y = labels.data
    one_hot = np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=1) == 1.0)
    if not one_hot:
        raise ValueError("labels must be one-hot rows summing to 1")
    n = logits.data.shape[0]
    p = _softmax(logits.data)
    loss = -np.mean(np.sum(y * np.log(np.maximum(p, LOG_FLOOR)), axis=1))
    return make_op(loss, (logits,), lambda g: (float(g) * (p - y) / n,))


def binary_cross_entropy(outputs, targets):
    """Mean bitwise cross-entropy between probabilities and {0,1} targets."""
    outputs, targets = _wrap(outputs), _wrap(targets)
    o, y = outputs.data, targets.data
    if o.shape != y.shape:
        raise ValueError(f"outputs/targets shape mismatch: {o.shape} vs {y.shape}")
    if np.any(o <= 0.0) or np.any(o >= 1.0):
        raise ValueError("binary_cross_entropy outputs must lie strictly in (0, 1)")
    n = o.size
    loss = -np.sum(
        y * np.log(np.maximum(o, LOG_FLOOR))
        + (1.0 - y) * np.log(np.maximum(1.0 - o, LOG_FLOOR))
    ) / n
    return make_op(loss, (outputs,), lambda g: (float(g) * (o - y) / (o * (1.0 - o)) / n,))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Adam moment accumulators and hyper-parameters."""

    step_size: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    timestep: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")
        if self.epsilon <= 0.0 or self.step_size <= 0.0:
            raise ValueError("Adam step size and epsilon must be positive")


def adam_step(params, grads, state):
    """One Adam update with bias correction.

    ``params`` maps names to Tensors, ``grads`` maps the same names to
    gradient arrays. Parameter data is updated in place; the incremented
    state is returned alongside the params.
    """
    state.timestep += 1
    t = state.timestep
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter '{name}'")
        m = state.first_moment.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            v = state.second_moment[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        state.first_moment[name] = m
        state.second_moment[name] = v
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= state.step_size * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return params, state


class Adam:
    """Convenience wrapper: holds named parameters and applies adam_step."""

    def __init__(self, params, step_size=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = dict(params)
        self.state = AdamState(step_size, beta1, beta2, epsilon)

    def step(self):
        grads = {}
        for name, p in self.params.items():
            if p.grad is None:
                raise TrainingError(f"parameter '{name}' has no gradient; run backward first")
            grads[name] = p.grad
        adam_step(self.params, grads, self.state)


# ---------------------------------------------------------------------------
# finite-difference check
# ---------------------------------------------------------------------------

@dataclass
class GradientCheckReport:
    max_relative_error: float
    per_input: list

    def passed(self, tolerance):
        return self.max_relative_error < tolerance


def gradient_check(fn, inputs, step=1e-5):
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn`` maps the given Tensors to a scalar Tensor. Returns a report with
    the maximum relative error over every input component.
    """
    inputs = [t if isinstance(t, Tensor) else Tensor(t, requires_grad=True) for t in inputs]
    for t in inputs:
        t.requires_grad = True
    out = fn(*inputs)
    GradientTape(out).backward()
    # an input the function never touches has a genuinely zero gradient
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]

    per_input = []
    worst = 0.0
    for idx, t in enumerate(inputs):
        flat = t.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            with no_grad():
                hi = float(fn(*inputs).data)
            flat[i] = orig - step
            with no_grad():
                lo = float(fn(*inputs).data)
            flat[i] = orig
            fd[i] = (hi - lo) / (2.0 * step)
        fd = fd.reshape(t.data.shape)
        denom = np.maximum(np.maximum(np.abs(analytic[idx]), np.abs(fd)), 1e-8)
        rel = float(np.max(np.abs(analytic[idx] - fd) / denom)) if fd.size else 0.0
        per_input.append(rel)
        worst = max(worst, rel)
    return GradientCheckReport(worst, per_input)
