"""Sum-product belief propagation on the Tanner graph of a parity-check matrix.

The message-passing core operates on autodiff tensors shaped (edges, batch)
with a flooding schedule. One round, ``_bp_round``, sends variable-to-check
then check-to-variable messages. ``bp_forward`` unrolls it under the
trainable decoder's weights, one dict whose names and shapes
``unit_weights`` lays out. Classical BP is those weights at one: a weight of
one changes no bit, so ``decode_bp_batch``, which runs ``bp_forward`` at unit
weights over a (B, n) batch, and the decoder take the same bits from the
posterior by ``hard_decision`` when every weight is one.

A round is one primitive. Its numpy forward runs the weighted channel term,
the per-variable message sum, the gather, the clamps, tanh(x/2), the check's
leave-one-out product (``_loo``, shared with the ``leave_one_out_prod``
primitive: prefix/suffix scans, linear in the check degree) and 2 atanh.
The scans run along a slot-major layout. Below ``SCAN_LANES`` (check, word)
lanes, which takes in one word of any code here, ``np.multiply.accumulate``
runs one short loop per lane; from there on, one multiply per slot spans
every lane at once.
Its backward applies the chain-rule factors of the chain of up to thirteen
single-op primitives it replaces, one IEEE step each on the same operands in
the same order, and a clamp passes the gradient exactly where its output lies
strictly inside the bounds, so outputs and gradients are bitwise the chain's.
The posterior, ``_marginalize``, is one primitive in the same way.

Under ``ad.no_grad`` ``bp_forward`` runs the words in blocks of
``DECODE_BLOCK``, so the memory a round holds no longer grows with the batch.

Gathers by an edge or slot index call ``ndarray.take`` along axis 0, the same
copy as fancy indexing at less dispatch cost. Steps work in place on
temporaries their primitive made and finish them before it returns: no write
reaches an array that a backward closure reads later.

Conventions: positive LLR means bit 0 is more likely; channel LLRs and
variable-to-check messages are clamped to +/-30, and the product fed to atanh
to +/-(1 - 1e-12). Check messages need no clamp: that product bound keeps
2 atanh under 2 atanh(1 - 1e-12) = 28.3 < 30. Clamps call ``ndarray.clip``,
which is ``np.clip`` bit for bit without its Python wrapper.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _unbroadcast, make_op

LLR_CLAMP = 30.0
ATANH_CLAMP = 1.0 - 1e-12
# r*B lanes from which a scan takes one multiply per slot over every lane
# instead of one accumulate loop per lane; the two cross at 300-450 lanes on
# BCH(63,45), (127,85) and (255,187) alike (2-core x86 host). The accumulate
# form stays for single words: with the per-slot form at every width, the
# benchmark's B = 1 `serve` operation took 0.453 ms against 0.270 ms (medians
# of ten alternating 45 s runs each)
SCAN_LANES = 384
# words per pass of a ``bp_forward`` that records no tape. One round's padded
# arrays grow with it. Decoding 1,400 words on BCH(63,45) and 512 on (127,85)
# and (255,187) in blocks of 512 / 64 / 16 words peaked at +16.5 / 3.2 / 2.0,
# +73 / 10 / 3.3 and +236 / 31 / 9.3 MiB (tracemalloc) and took 59-77 / 42-54 /
# 69-93, 135 / 95-105 / 86-156 and 451-501 / 339-377 / 293-352 ms (fastest of
# 7 calls in each of two sweeps, 2-core x86 host). Small blocks slow n = 63,
# whose scans drop under SCAN_LANES; 64 words is among the fastest at all three
DECODE_BLOCK = 64


class TannerGraph:
    """Bipartite variable/check graph with a dense slot-major edge layout.

    Edges are ordered by (check, variable); that ordering defines the edge
    index every weight vector uses.
    """

    def __init__(self, H):
        H = np.asarray(H, dtype=np.uint8)
        if H.ndim != 2 or not np.any(H):
            raise ValueError("parity-check matrix must be a nonzero 2-D binary matrix")
        zero_rows = np.nonzero(~H.any(axis=1))[0]
        if zero_rows.size:
            raise ValueError(f"parity-check matrix has all-zero row {zero_rows[0]}")
        zero_cols = np.nonzero(~H.any(axis=0))[0]
        if zero_cols.size:
            raise ValueError(f"parity-check matrix has all-zero column {zero_cols[0]}")

        self.H = H
        self.r, self.n = H.shape
        checks, vars_ = np.nonzero(H)
        self.edge_check = checks.astype(np.int64)
        self.edge_var = vars_.astype(np.int64)
        self.num_edges = self.edge_check.size

        # dense slot-major (slot, check) layout used for leave-one-out
        # products: one slot of every check is one contiguous (r, B) block
        degrees = H.sum(axis=1).astype(np.int64)
        self.max_check_degree = int(degrees.max())
        first = np.cumsum(degrees) - degrees  # each check's first edge
        slot = np.arange(self.num_edges) - first[self.edge_check]
        self.edge_slot_flat = slot * self.r + self.edge_check
        # the inverse map: each flat slot's edge, or num_edges for a padding
        # slot, which gathers the layout from the edges plus one row of ones
        self.slot_edge = np.full(self.max_check_degree * self.r, self.num_edges)
        self.slot_edge[self.edge_slot_flat] = np.arange(self.num_edges)


# ---------------------------------------------------------------------------
# the leave-one-out product and the BP round, each one primitive
# ---------------------------------------------------------------------------

def _loo(graph, t):
    """Leave-one-out products of edge values ``t`` (edges, B), and their VJP.

    A check's edges sit in a dense (slot, check) layout padded with ones; the
    exclusive prefix and suffix products P and S give P_j S_j. The gradient of
    sum_i g_i prod_{l != i} t_l with respect to t_j is A_j S_j + P_j B_j, where
    A_{j+1} = A_j t_j + g_j P_j (B mirrors A from the right): linear scans,
    exact with zeros and free of division. Both scan forms round each product
    once in the same order, so they agree bit for bit.
    """
    d = graph.max_check_degree
    flat_shape = (d * graph.r,) + t.shape[1:]
    dense = np.concatenate((t, np.full((1,) + t.shape[1:], 1.0))).take(graph.slot_edge, axis=0)
    dense = dense.reshape((d, graph.r) + t.shape[1:])
    left, right = np.empty_like(dense), np.empty_like(dense)
    left[0] = right[-1] = 1.0
    if dense[0].size < SCAN_LANES:
        np.multiply.accumulate(dense[:-1], axis=0, out=left[1:])  # np.cumprod, unwrapped
        np.multiply.accumulate(dense[:0:-1], axis=0, out=right[-2::-1])
    else:
        for j in range(1, d):
            np.multiply(left[j - 1], dense[j - 1], out=left[j])
            np.multiply(right[-j], dense[-j], out=right[-j - 1])
    edges = lambda x: x.reshape(flat_shape).take(graph.edge_slot_flat, axis=0)

    def vjp(g):
        g_left = np.zeros_like(dense)
        g_left.reshape(flat_shape)[graph.edge_slot_flat] = g
        g_right = g_left * right
        g_left *= left
        a, b = np.empty_like(dense), np.empty_like(dense)
        a[0] = b[-1] = 0.0
        for j in range(1, d):
            np.multiply(a[j - 1], dense[j - 1], out=a[j])
            a[j] += g_left[j - 1]
            np.multiply(b[-j], dense[-j], out=b[-j - 1])
            b[-j - 1] += g_right[-j]
        a *= right  # A S, then + P B in place
        b *= left
        a += b
        return edges(a)

    return edges(left * right), vjp


def leave_one_out_prod(graph: TannerGraph, t_edges: Tensor) -> Tensor:
    """For each edge, the product of the other edges on the same check."""
    out, vjp = _loo(graph, t_edges.data)
    return make_op(out, (t_edges,), lambda g: (vjp(g),))


def _weighted_vjp(g, x, w):
    """Gradients for (x, w) of w * x from the gradient ``g`` of the product."""
    return g * w.data, _unbroadcast(g * x.data, w.data.shape)


def _bp_round(graph, llr, c_msgs, w_edge, w_ch):
    """One flooding round, variable-to-check then check-to-variable, as one primitive.

    A variable sends its weighted channel LLR plus the weighted sum of its
    other incoming check messages (the channel term alone in the first round,
    when ``c_msgs`` is None and ``w_edge`` is unused); a check answers
    2 atanh(prod tanh(m/2)) over its other edges.
    """
    ev = graph.edge_var
    wllr = w_ch.data * llr.data
    if c_msgs is None:
        inputs = (llr, w_ch)
        v = wllr.take(ev, axis=0)
    else:
        inputs = (llr, w_ch, c_msgs, w_edge)
        wc = w_edge.data * c_msgs.data
        v = (wllr + ad.scatter_add(ev, wc, graph.n)).take(ev, axis=0)
        v -= wc
    v.clip(-LLR_CLAMP, LLR_CLAMP, out=v)
    t = 0.5 * v
    np.tanh(t, out=t)
    prod, loo_vjp = _loo(graph, t)
    prod.clip(-ATANH_CLAMP, ATANH_CLAMP, out=prod)
    out = np.arctanh(prod)
    out *= 2.0

    def backward(g):
        # the per-op chain's factors in its order: 2x, atanh, clamp, product,
        # tanh(x/2), clamp, then the gather and the weights
        h = g * 2.0
        h /= 1.0 - prod * prod
        h *= np.abs(prod) < ATANH_CLAMP
        h = loo_vjp(h)
        h *= 0.5
        h *= 1.0 - t * t
        h *= np.abs(v) < LLR_CLAMP
        g_wllr = ad.scatter_add(ev, h, graph.n)
        grads = _weighted_vjp(g_wllr, llr, w_ch)
        if c_msgs is not None:
            g_wc = g_wllr.take(ev, axis=0)
            g_wc -= h
            grads += _weighted_vjp(g_wc, c_msgs, w_edge)
        return grads

    return make_op(out, inputs, backward)


def _marginalize(graph, c_msgs, llr, w_edge, w_ch):
    """The posterior: weighted channel LLR plus every weighted incoming check
    message, as one primitive whose backward applies the per-op chain's
    factors (``add``, ``segment_sum``, both ``mul``s) in that chain's order."""
    ev = graph.edge_var

    def backward(g):
        return _weighted_vjp(g, llr, w_ch) + _weighted_vjp(g.take(ev, axis=0), c_msgs, w_edge)

    return make_op(w_ch.data * llr.data + ad.scatter_add(ev, w_edge.data * c_msgs.data, graph.n),
                   (llr, w_ch, c_msgs, w_edge), backward)


def unit_weights(graph, iterations):
    """The decoder's weights by checkpoint name, every one at one.

    ``layer<i>/channel`` (n, 1) weighs round i's channel LLRs and, from round
    1 on, ``layer<i>/edge`` (edges, 1) its check messages; round 0 has none.
    ``out/edge`` and ``out/channel`` weigh the posterior's two terms. Each is
    a trainable leaf; under ``ad.no_grad`` no tape is built through it.
    """
    ones = lambda rows: Tensor(np.ones((rows, 1)), requires_grad=True)
    weights = {}
    for i in range(iterations):
        if i:
            weights[f"layer{i}/edge"] = ones(graph.num_edges)
        weights[f"layer{i}/channel"] = ones(graph.n)
    weights["out/edge"] = ones(graph.num_edges)
    weights["out/channel"] = ones(graph.n)
    return weights


def bp_forward(graph, llr, iterations, weights):
    """Unrolled flooding BP returning the posterior LLR tensor, shape (n, B).

    ``llr`` is a Tensor shaped (n, B) and ``weights`` a dict laid out as
    ``unit_weights``; ``unit_weights`` itself is classical BP. Under
    ``ad.no_grad`` words run ``DECODE_BLOCK`` at a time and the posteriors are
    joined along the word axis: BP treats each word alone, so every bit is the
    whole batch's. Recording a tape, the batch runs as one pass, since blocks
    would reorder the batch sums of the weight gradients.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    words = llr.data.shape[1]
    if words <= DECODE_BLOCK or ad.grad_enabled():
        return _unrolled(graph, llr, iterations, weights)
    return Tensor(np.concatenate(
        [_unrolled(graph, Tensor(llr.data[:, i : i + DECODE_BLOCK]), iterations, weights).data
         for i in range(0, words, DECODE_BLOCK)], axis=1))


def _unrolled(graph, llr, iterations, weights):
    """``bp_forward`` as one pass over every word of ``llr``."""
    llr = ad.clip(llr, -LLR_CLAMP, LLR_CLAMP)
    c_msgs = None
    for i in range(iterations):
        w_edge = weights[f"layer{i}/edge"] if i else None
        c_msgs = _bp_round(graph, llr, c_msgs, w_edge, weights[f"layer{i}/channel"])
    return _marginalize(graph, c_msgs, llr, weights["out/edge"], weights["out/channel"])


# ---------------------------------------------------------------------------
# classical decoder and the AWGN channel
# ---------------------------------------------------------------------------

def hard_decision(posterior):
    """The posterior's hard decision: bit 1 iff the LLR is negative, so 0 is
    bit 0. Hash codes use the other rule, ``nnd.hard_limit``: bit 1 iff the
    activation is <= 0, so there 0 is bit 1."""
    return (posterior < 0).astype(np.uint8)


def decode_bp_batch(graph: TannerGraph, llr_batch, iterations):
    """Classical BP, ``bp_forward`` at unit weights, over a (B, n) batch.

    Returns the hard decision and the posterior LLRs, both (B, n).
    """
    llr_batch = np.asarray(llr_batch, dtype=np.float64)
    if llr_batch.ndim != 2 or llr_batch.shape[1] != graph.n:
        raise ValueError(f"llr shape {llr_batch.shape} is not (B, n) with n = {graph.n}")
    with ad.no_grad():
        post = bp_forward(graph, Tensor(llr_batch.T.copy()), iterations,
                          unit_weights(graph, iterations)).data
    return hard_decision(post.T), post.T


def awgn_llr(transmitted_bits, sigma, rng):
    """BPSK-modulate a word, add white Gaussian noise, return channel LLRs.

    Bit b maps to 1 - 2b; LLR = 2y / sigma^2 (positive favours bit 0).
    ``sigma`` is a scalar or an array that broadcasts against the word, e.g.
    one noise level per row of a batch.
    """
    if np.any(np.asarray(sigma) <= 0):
        raise ValueError(f"noise standard deviation must be positive, got {sigma}")
    bits = np.asarray(transmitted_bits, dtype=np.uint8)
    symbols = 1.0 - 2.0 * bits
    y = symbols + sigma * rng.standard_normal(bits.shape)
    return 2.0 * y / (sigma * sigma)
