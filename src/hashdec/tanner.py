"""Sum-product belief propagation on the Tanner graph of a parity-check matrix.

The message-passing core operates on autodiff tensors shaped (edges, batch)
with a flooding schedule. One round, ``_bp_round``, sends variable-to-check
then check-to-variable messages. ``bp_forward`` unrolls it, with or without
the trainable decoder's per-layer weights; the classical ``decode_bp_batch``
is ``bp_forward`` without weights over a (B, n) batch. A weight of one
changes no bit and both decoders take bits from the posterior by
``hard_decision``, so they agree bit for bit when every weight is one.

The check-node product is one primitive, ``leave_one_out_prod``, whose
forward and backward are prefix/suffix scans over each check's edges, so
both cost time linear in the check degree.

Conventions: positive LLR means bit 0 is more likely; channel LLRs are
clamped to +/-30 on entry, check messages to +/-30 after the atanh, and the
product fed to atanh to +/-(1 - 1e-12).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, make_op

LLR_CLAMP = 30.0
ATANH_CLAMP = 1.0 - 1e-12


class TannerGraph:
    """Bipartite variable/check graph with a dense per-check edge layout.

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

        # dense (check, slot) layout used for leave-one-out products
        degrees = H.sum(axis=1).astype(np.int64)
        self.max_check_degree = int(degrees.max())
        slot = np.zeros(self.num_edges, dtype=np.int64)
        seen = np.zeros(self.r, dtype=np.int64)
        for e in range(self.num_edges):
            c = self.edge_check[e]
            slot[e] = seen[c]
            seen[c] += 1
        self.edge_slot_flat = self.edge_check * self.max_check_degree + slot


# ---------------------------------------------------------------------------
# leave-one-out product primitive
# ---------------------------------------------------------------------------

def _scatter_dense(graph, values):
    dense = np.ones((graph.r * graph.max_check_degree,) + values.shape[1:])
    dense[graph.edge_slot_flat] = values
    return dense.reshape((graph.r, graph.max_check_degree) + values.shape[1:])


def _exclusive_scans(dense):
    """Exclusive prefix and suffix products along each row (axis 1)."""
    left = np.ones_like(dense)
    np.cumprod(dense[:, :-1], axis=1, out=left[:, 1:])
    right = np.ones_like(dense)
    np.cumprod(dense[:, :0:-1], axis=1, out=right[:, -2::-1])
    return left, right


def _loo_grad(dense, g_dense, left, right):
    """Gradient of sum_i g_i prod_{l != i} t_l with respect to each t_j.

    grad_j = A_j S_j + P_j B_j, where P/S are the exclusive prefix/suffix
    products and A_{j+1} = A_j t_j + g_j P_j (B mirrors A from the right):
    two linear scans, exact with zeros and free of division.
    """
    grad = np.empty_like(dense)
    acc = np.zeros_like(dense[:, 0])
    for j in range(dense.shape[1]):
        grad[:, j] = acc * right[:, j]
        acc = acc * dense[:, j] + g_dense[:, j] * left[:, j]
    acc = np.zeros_like(dense[:, 0])
    for j in range(dense.shape[1] - 1, -1, -1):
        grad[:, j] += left[:, j] * acc
        acc = acc * dense[:, j] + g_dense[:, j] * right[:, j]
    return grad


def leave_one_out_prod(graph: TannerGraph, t_edges: Tensor) -> Tensor:
    """For each edge, the product of the other edges on the same check.

    Forward and backward both use the exclusive prefix/suffix products, so
    each is linear in the check degree and exact even with zeros.
    """
    dense = _scatter_dense(graph, t_edges.data)
    left, right = _exclusive_scans(dense)
    out = (left * right).reshape((-1,) + t_edges.data.shape[1:])[graph.edge_slot_flat]

    def backward(g):
        g_dense = np.zeros_like(dense)
        g_dense.reshape((-1,) + g.shape[1:])[graph.edge_slot_flat] = g
        grad = _loo_grad(dense, g_dense, left, right)
        return (grad.reshape((-1,) + g.shape[1:])[graph.edge_slot_flat],)

    return make_op(out, (t_edges,), backward)


# ---------------------------------------------------------------------------
# message updates (shared by plain BP and the trainable decoder)
# ---------------------------------------------------------------------------

def _var_to_check(graph, llr, c_msgs, w_edge, w_ch):
    """Channel term plus the sum of the other incoming check messages.

    In the first round, ``c_msgs`` is None and the channel term goes alone.
    """
    wllr = llr if w_ch is None else ad.mul(w_ch, llr)
    if c_msgs is None:
        return ad.clip(ad.take(wllr, graph.edge_var), -LLR_CLAMP, LLR_CLAMP)
    wc = c_msgs if w_edge is None else ad.mul(w_edge, c_msgs)
    per_var = ad.add(wllr, ad.segment_sum(wc, graph.edge_var, graph.n))
    return ad.clip(ad.sub(ad.take(per_var, graph.edge_var), wc), -LLR_CLAMP, LLR_CLAMP)


def _bp_round(graph, llr, c_msgs, w_edge, w_ch):
    """One flooding round: variable-to-check, then check-to-variable messages.

    A check answers 2 atanh(prod tanh(m/2)) over its other edges. The
    variable-to-check step is a call of its own so that, without gradients,
    its intermediates are freed before the check-node product runs.
    """
    t = ad.scaled_tanh(_var_to_check(graph, llr, c_msgs, w_edge, w_ch), 0.5)
    prod = ad.clip(leave_one_out_prod(graph, t), -ATANH_CLAMP, ATANH_CLAMP)
    return ad.clip(ad.mul(2.0, ad.atanh(prod)), -LLR_CLAMP, LLR_CLAMP)


def _marginalize(graph, c_msgs, llr, w_edge, w_ch):
    wllr = llr if w_ch is None else ad.mul(w_ch, llr)
    wc = c_msgs if w_edge is None else ad.mul(w_edge, c_msgs)
    return ad.add(wllr, ad.segment_sum(wc, graph.edge_var, graph.n))


def bp_forward(graph, llr, iterations, edge_weights=None, channel_weights=None,
               out_edge_weights=None, out_channel_weights=None):
    """Unrolled flooding BP returning the posterior LLR tensor, shape (n, B).

    ``llr`` is a Tensor shaped (n, B). Weight arguments are per-layer lists of
    (num_edges,1) / (n,1) tensors; ``None`` runs the unweighted classical
    update (identical arithmetic to weights fixed at one).
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    llr = ad.clip(llr, -LLR_CLAMP, LLR_CLAMP)
    c_msgs = None
    for it in range(iterations):
        we = edge_weights[it] if edge_weights is not None else None
        wc = channel_weights[it] if channel_weights is not None else None
        c_msgs = _bp_round(graph, llr, c_msgs, we, wc)
    return _marginalize(graph, c_msgs, llr, out_edge_weights, out_channel_weights)


# ---------------------------------------------------------------------------
# classical decoder and the AWGN channel
# ---------------------------------------------------------------------------

def hard_decision(posterior):
    """The one hard-decision rule: bit 1 iff the posterior LLR is negative."""
    return (posterior < 0).astype(np.uint8)


def decode_bp_batch(graph: TannerGraph, llr_batch, iterations=5):
    """Classical BP, ``bp_forward`` without weights, over a (B, n) batch.

    Returns the hard decision and the posterior LLRs, both (B, n).
    """
    llr_batch = np.asarray(llr_batch, dtype=np.float64)
    if llr_batch.ndim != 2 or llr_batch.shape[1] != graph.n:
        raise ValueError(f"llr shape {llr_batch.shape} is not (B, n) with n = {graph.n}")
    with ad.no_grad():
        post = bp_forward(graph, Tensor(llr_batch.T.copy()), iterations).data
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
