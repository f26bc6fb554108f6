import itertools
import math

import numpy as np
import pytest

from hashdec import autodiff as ad
from hashdec import tanner
from hashdec.autodiff import GradientTape, Tensor, gradient_check
from hashdec.bch import build_code, encode
from hashdec.tanner import (
    ATANH_CLAMP,
    LLR_CLAMP,
    TannerGraph,
    awgn_llr,
    bp_forward,
    decode_bp_batch,
    hard_decision,
    leave_one_out_prod,
    unit_weights,
)


@pytest.fixture(scope="module")
def hamming74():
    return build_code(3, 1)


@pytest.fixture(scope="module")
def hamming_graph(hamming74):
    return TannerGraph(hamming74.parity_check_matrix)


def test_edge_count_matches_nonzero_pattern():
    h = np.array([[1, 1, 0], [0, 1, 1]])
    g = TannerGraph(h)
    assert g.num_edges == int(h.sum())
    edges = list(zip(g.edge_check.tolist(), g.edge_var.tolist()))
    assert sorted(edges) == [(0, 0), (0, 1), (1, 1), (1, 2)]


def test_hamming_h_has_12_edges(hamming_graph):
    # every nonzero dual word of the (7,4) code has weight 4: 3 rows x 4 ones
    assert hamming_graph.num_edges == 12


def test_single_check_star_graph():
    g = TannerGraph(np.ones((1, 4), dtype=int))
    assert g.num_edges == 4
    assert g.r == 1 and g.n == 4


def test_zero_row_and_column_rejected():
    with pytest.raises(ValueError, match="row 1"):
        TannerGraph(np.array([[1, 1], [0, 0]]))
    with pytest.raises(ValueError, match="column 2"):
        TannerGraph(np.array([[1, 1, 0], [1, 1, 0]]))


# check degrees 4, 3 and 1: padding slots, and a check whose product is empty
_UNEVEN_H = np.array([[1, 1, 1, 1, 0],
                      [0, 1, 0, 1, 1],
                      [0, 0, 1, 0, 0]])


def _weighted_loo_sum(graph, coeffs):
    return lambda t: ad.tensor_sum(ad.mul(leave_one_out_prod(graph, t), Tensor(coeffs)))


def test_leave_one_out_prod_values_on_uneven_checks():
    g = TannerGraph(_UNEVEN_H)
    t = np.arange(2.0, 2.0 + g.num_edges)[:, None]
    out = leave_one_out_prod(g, Tensor(t)).data[:, 0]
    for e, c in enumerate(g.edge_check):
        others = [t[f, 0] for f, c2 in enumerate(g.edge_check) if c2 == c and f != e]
        assert out[e] == math.prod(others)


def test_leave_one_out_prod_gradient_matches_finite_differences():
    g = TannerGraph(_UNEVEN_H)
    rng = np.random.default_rng(3)
    t = rng.uniform(-1, 1, (g.num_edges, 3))
    on_check0 = np.nonzero(g.edge_check == 0)[0]
    t[on_check0[1], 1] = 0.0          # column 1: one exact zero on check 0
    t[on_check0[[0, 2]], 2] = 0.0     # column 2: two exact zeros on check 0
    coeffs = rng.standard_normal(t.shape)
    report = gradient_check(_weighted_loo_sum(g, coeffs), [Tensor(t)])
    assert report.max_relative_error < 1e-6


def _masked_slot_grad(graph, t, g):
    """O(d^2) reference backward: mask each slot in turn and rerun both scans.

    Its dense (check, slot) layout comes from ``graph.edge_check`` alone, so
    it shares no layout with the code under test.
    """
    checks, slots, seen = graph.edge_check, [], {}
    for c in checks.tolist():
        slots.append(seen.get(c, 0))
        seen[c] = slots[-1] + 1
    d = max(seen.values())

    def dense_of(values, fill):
        out = np.full((graph.r, d) + values.shape[1:], fill)
        out[checks, slots] = values
        return out

    def loo(dense):
        left = np.ones_like(dense)
        np.cumprod(dense[:, :-1], axis=1, out=left[:, 1:])
        right = np.ones_like(dense)
        np.cumprod(dense[:, :0:-1], axis=1, out=right[:, -2::-1])
        return left * right

    dense, g_dense = dense_of(t, 1.0), dense_of(g, 0.0)
    loo_dense = loo(dense)
    grad = np.zeros_like(dense)
    for j in range(d):
        masked = dense.copy()
        masked[:, j] = 1.0
        grad[:, j] = (g_dense * loo(masked)).sum(axis=1) - g_dense[:, j] * loo_dense[:, j]
    return grad[checks, slots]


def test_leave_one_out_prod_backward_matches_masked_slot_reference():
    g = TannerGraph(build_code(6, 3).parity_check_matrix)  # BCH(63,45), r = 18
    # B = 1, 3 and 16 take the accumulate scans, B = 64 the per-slot ones
    assert 16 * g.r < tanner.SCAN_LANES <= 64 * g.r
    for batch in (1, 3, 16, 64):
        rng = np.random.default_rng(4 + batch)
        t = rng.uniform(-1, 1, (g.num_edges, batch))
        t[np.nonzero(g.edge_check == 2)[0][:2], 0] = 0.0
        upstream = rng.standard_normal(t.shape)
        x = Tensor(t, requires_grad=True)
        GradientTape(ad.tensor_sum(ad.mul(leave_one_out_prod(g, x), Tensor(upstream)))).backward()
        assert np.max(np.abs(x.grad - _masked_slot_grad(g, t, upstream))) < 1e-12, batch


@pytest.mark.parametrize("batch", [1, 3, 16, 64])
def test_scan_forms_are_bitwise_equal(monkeypatch, batch):
    # the same input through the per-slot scans, then through accumulate:
    # signed zeros, exact zeros and the values of clamped messages included
    g = TannerGraph(build_code(6, 3).parity_check_matrix)
    rng = np.random.default_rng(batch)
    t = rng.uniform(-1, 1, (g.num_edges, batch))
    upstream = rng.standard_normal(t.shape)
    special = np.array([0.0, -0.0, ATANH_CLAMP, -ATANH_CLAMP,
                        np.tanh(0.5 * LLR_CLAMP), -np.tanh(0.5 * LLR_CLAMP)])
    for values in (t, upstream):
        pick = rng.random(values.shape) < 0.3
        values[pick] = rng.choice(special, int(pick.sum()))
    on_check0 = np.nonzero(g.edge_check == 0)[0]
    t[on_check0[:2], 0] = [0.0, -0.0]  # check 0's products all vanish in word 0
    results = []
    for lanes in (0, math.inf):
        monkeypatch.setattr(tanner, "SCAN_LANES", lanes)
        out, vjp = tanner._loo(g, t)
        results.append((out.tobytes(), vjp(upstream).tobytes()))
    assert results[0] == results[1]


# -- the BP round as one primitive against the per-op chain it replaces -------

def _ref_var_to_check(graph, llr, c_msgs, w_edge, w_ch):
    """Test-only reference: the variable-to-check step as single-op primitives."""
    wllr = llr if w_ch is None else ad.mul(w_ch, llr)
    if c_msgs is None:
        return ad.clip(ad.take(wllr, graph.edge_var), -LLR_CLAMP, LLR_CLAMP)
    wc = c_msgs if w_edge is None else ad.mul(w_edge, c_msgs)
    per_var = ad.add(wllr, ad.segment_sum(wc, graph.edge_var, graph.n))
    return ad.clip(ad.sub(ad.take(per_var, graph.edge_var), wc), -LLR_CLAMP, LLR_CLAMP)


def _ref_bp_round(graph, llr, c_msgs, w_edge, w_ch):
    """Test-only reference: one flooding round as up to thirteen single-op primitives."""
    t = ad.scaled_tanh(_ref_var_to_check(graph, llr, c_msgs, w_edge, w_ch), 0.5)
    prod = ad.clip(leave_one_out_prod(graph, t), -ATANH_CLAMP, ATANH_CLAMP)
    return ad.clip(ad.mul(2.0, ad.atanh(prod)), -LLR_CLAMP, LLR_CLAMP)


def _round_inputs(graph, later, weights, batch, rng, case):
    """Fresh leaf tensors (llr, c_msgs, w_edge, w_ch) for one round."""
    llr = rng.normal(0.0, 4.0, (graph.n, batch))
    c_msgs = rng.normal(0.0, 4.0, (graph.num_edges, batch))
    on_check0 = graph.edge_var[graph.edge_check == 0]
    if case == "clamps":
        # check 0's variables beyond +/-30, each edge of theirs at +/-40 with
        # the same sign: check 0's products saturate at +/-(1 - 1e-12)
        llr[on_check0] = 45.0 * np.where(llr[on_check0] < 0, -1.0, 1.0)
        saturated = np.isin(graph.edge_var, on_check0)
        c_msgs[saturated] = 40.0 * np.sign(llr[graph.edge_var[saturated]])
    elif case == "zeros":
        # two exact zeros on check 0: its first two variables get no evidence
        llr[on_check0[:2]] = 0.0
        c_msgs[np.isin(graph.edge_var, on_check0[:2])] = 0.0
    w_edge, w_ch = np.ones((graph.num_edges, 1)), np.ones((graph.n, 1))
    if weights == "jittered":
        w_edge = w_edge + 0.1 * rng.standard_normal(w_edge.shape)
        w_ch = w_ch + 0.1 * rng.standard_normal(w_ch.shape)
    values = (llr, c_msgs if later else None, w_edge, w_ch)
    return [None if v is None else Tensor(v, requires_grad=True) for v in values]


def _round_and_grads(round_fn, graph, inputs, coeffs):
    for t in inputs:
        if t is not None:
            t.grad = None
    out = round_fn(graph, *inputs)
    GradientTape(ad.tensor_sum(ad.mul(out, Tensor(coeffs)))).backward()
    return out.data, [None if t is None else t.grad for t in inputs]


def _assert_fused_is_the_chain(fused_fn, ref_fn, graph, inputs, coeffs, names, weights):
    """Outputs and gradients of ``fused_fn`` and ``ref_fn`` agree bit for bit.

    ``inputs`` end with the two weights. At ``weights == "none"`` the fused
    primitive runs at unit weights and the chain multiplies by no weight at
    all, so classical BP is the decoder at one; only the message gradients
    are compared then.
    """
    fused, fused_grads = _round_and_grads(fused_fn, graph, inputs, coeffs)
    ref_inputs = inputs[:-2] + [None, None] if weights == "none" else inputs
    ref, ref_grads = _round_and_grads(ref_fn, graph, ref_inputs, coeffs)
    assert np.array_equal(fused, ref)
    compared = len(names) - 2 if weights == "none" else len(names)
    for name, a, b in list(zip(names, fused_grads, ref_grads))[:compared]:
        assert (a is None) == (b is None), name
        assert a is None or np.array_equal(a, b), name
    return fused


@pytest.mark.parametrize("case", ["plain", "clamps", "zeros"])
@pytest.mark.parametrize("batch", [1, 3, 160])  # 3 to 480 lanes: both scan forms
@pytest.mark.parametrize("weights", ["none", "unit", "jittered"])
@pytest.mark.parametrize("later", [False, True], ids=["first", "later"])
@pytest.mark.parametrize("h", ["hamming74", "uneven"])
def test_fused_round_is_bitwise_the_per_op_chain(h, later, weights, batch, case):
    graph = TannerGraph(build_code(3, 1).parity_check_matrix if h == "hamming74" else _UNEVEN_H)
    labels = (h, later, weights, batch, case)
    rng = np.random.default_rng([sum(map(ord, str(x))) for x in labels])
    inputs = _round_inputs(graph, later, weights, batch, rng, case)
    coeffs = rng.standard_normal((graph.num_edges, batch))
    fused = _assert_fused_is_the_chain(tanner._bp_round, _ref_bp_round, graph, inputs, coeffs,
                                       ("llr", "c_msgs", "w_edge", "w_ch"), weights)
    plain = [None if t is None else Tensor(t.data) for t in inputs]
    v = _ref_var_to_check(graph, *plain).data
    prod = leave_one_out_prod(graph, Tensor(np.tanh(0.5 * v))).data
    if case == "clamps":
        # the inputs reach the message clamp and the product clamp, and the
        # round sends the saturated check message, which the reference's
        # final clamp passed unchanged
        assert np.any(np.abs(v) == LLR_CLAMP) and np.any(np.abs(prod) > ATANH_CLAMP)
        assert np.any(np.abs(fused) == 2.0 * np.arctanh(ATANH_CLAMP))
    if case == "zeros":
        assert np.count_nonzero(v[graph.edge_check == 0] == 0.0) >= 2


def test_check_message_clamp_cannot_bind():
    # the largest check message is 2 atanh of the clamped product, so a clamp
    # of check messages at +/-LLR_CLAMP would never act
    assert 2.0 * np.arctanh(ATANH_CLAMP) < LLR_CLAMP


def _ref_marginalize(graph, c_msgs, llr, w_edge, w_ch):
    """Test-only reference: the posterior as single-op primitives."""
    wllr = llr if w_ch is None else ad.mul(w_ch, llr)
    wc = c_msgs if w_edge is None else ad.mul(w_edge, c_msgs)
    return ad.add(wllr, ad.segment_sum(wc, graph.edge_var, graph.n))


@pytest.mark.parametrize("batch", [1, 3, 160])
@pytest.mark.parametrize("weights", ["none", "unit", "jittered"])
def test_marginalization_is_bitwise_the_per_op_chain(weights, batch):
    graph = TannerGraph(_UNEVEN_H)
    rng = np.random.default_rng([batch, sum(map(ord, weights))])
    llr, c_msgs, w_edge, w_ch = _round_inputs(graph, True, weights, batch, rng, "plain")
    coeffs = rng.standard_normal((graph.n, batch))
    _assert_fused_is_the_chain(tanner._marginalize, _ref_marginalize, graph,
                               [c_msgs, llr, w_edge, w_ch], coeffs,
                               ("c_msgs", "llr", "w_edge", "w_ch"), weights)


def test_marginalization_is_one_node_of_the_posterior_tape():
    graph = TannerGraph(_UNEVEN_H)
    rng = np.random.default_rng(10)
    llr = Tensor(rng.normal(0.0, 2.0, (graph.n, 2)), requires_grad=True)
    post = bp_forward(graph, llr, 2, unit_weights(graph, 2))
    order = GradientTape(ad.tensor_sum(post)).order
    # the sum, the posterior, two rounds and the channel clamp: the posterior
    # takes the last round's messages directly
    assert len(order) == 5 and order[1] is post and order[2] in post.node.inputs


def test_unrolled_decoder_is_bitwise_the_per_op_chain(monkeypatch):
    # the channel LLRs feed every round and the output: their gradient sums
    # six terms, in the same order as the per-op graph summed them
    graph = TannerGraph(build_code(6, 3).parity_check_matrix)
    rng = np.random.default_rng(8)
    n = graph.n
    weights = {name: 1 + 0.05 * rng.standard_normal(t.data.shape)
               for name, t in unit_weights(graph, 5).items()}

    def run(llr, coeffs):
        llr = Tensor(llr.copy(), requires_grad=True)
        w = {name: Tensor(v.copy(), requires_grad=True) for name, v in weights.items()}
        post = bp_forward(graph, llr, 5, w)
        GradientTape(ad.tensor_sum(ad.mul(post, Tensor(coeffs)))).backward()
        return [post.data, llr.grad] + [t.grad for t in w.values()]

    assert 4 * graph.r < tanner.SCAN_LANES <= 64 * graph.r  # both scan forms
    for batch in (4, 64):
        llr, coeffs = rng.normal(0.0, 5.0, (n, batch)), rng.standard_normal((n, batch))
        fused = run(llr, coeffs)
        with monkeypatch.context() as patched:
            patched.setattr(tanner, "_bp_round", _ref_bp_round)
            for a, b in zip(fused, run(llr, coeffs)):
                assert np.array_equal(a, b)


def test_weighted_bp_forward_gradient_matches_finite_differences(hamming_graph):
    g = hamming_graph
    rng = np.random.default_rng(9)
    llr = Tensor(rng.uniform(-2.0, 2.0, (g.n, 2)))
    shapes = {name: t.data.shape for name, t in unit_weights(g, 2).items()}
    weights = [Tensor(1 + 0.1 * rng.standard_normal(shape)) for shape in shapes.values()]
    coeffs = Tensor(rng.standard_normal((g.n, 2)))

    def f(llr, *w):
        return ad.tensor_sum(ad.mul(bp_forward(g, llr, 2, dict(zip(shapes, w))), coeffs))

    report = gradient_check(f, [llr, *weights])
    assert report.max_relative_error < 1e-6, report.per_input


def test_strong_positive_llrs_decode_to_zero_word():
    for m, t in ((3, 1), (6, 3)):
        code = build_code(m, t)
        g = TannerGraph(code.parity_check_matrix)
        hard, _ = decode_bp_batch(g, np.full((1, code.n), 20.0), iterations=1)
        assert not np.any(hard)


def test_single_parity_check_hand_update():
    g = TannerGraph(np.ones((1, 3), dtype=int))
    llr = np.array([2.0, 2.0, -1.0])
    hard, soft = decode_bp_batch(g, llr[None, :], iterations=1)
    # check message to bit 3: sign(+), magnitude 2 atanh(tanh(1)^2)
    msg = 2.0 * math.atanh(math.tanh(1.0) * math.tanh(1.0))
    assert soft[0, 2] == pytest.approx(-1.0 + msg, abs=1e-12)
    assert hard[0, 2] == 0  # pulled toward bit 0


def test_codeword_fixed_point(hamming74, hamming_graph):
    rng = np.random.default_rng(0)
    for _ in range(20):
        cw = encode(hamming74, rng.integers(0, 2, 4).astype(np.uint8))
        llr = np.where(cw == 0, 12.0, -12.0)
        hard, _ = decode_bp_batch(hamming_graph, llr[None, :], iterations=5)
        assert np.array_equal(hard[0], cw)


def test_negation_symmetry_with_all_ones_complement(hamming74, hamming_graph):
    # the all-ones word is a codeword of every narrow-sense BCH code
    ones = np.ones(7, dtype=np.uint8)
    assert not np.any((hamming74.parity_check_matrix @ ones) % 2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        llr = awgn_llr(np.zeros(7, dtype=np.uint8), 0.8, rng)
        a_hard, a_soft = decode_bp_batch(hamming_graph, llr[None, :], iterations=5)
        b_hard, b_soft = decode_bp_batch(hamming_graph, -llr[None, :], iterations=5)
        assert np.array_equal(b_hard, a_hard ^ 1)
        assert np.allclose(b_soft, -a_soft, atol=1e-9)


def _enumeration_posteriors(codewords, llr):
    post = []
    for i in range(llr.size):
        num = den = 0.0
        for cw in codewords:
            w = math.exp(0.5 * float(np.dot(llr, 1.0 - 2.0 * np.asarray(cw))))
            if cw[i] == 0:
                num += w
            else:
                den += w
        post.append(math.log(num / den))
    return np.array(post)


def test_exact_posteriors_on_cycle_free_graphs():
    rng = np.random.default_rng(2)
    # repetition code on a star graph: codewords 000..0 and 111..1
    for n in (3, 5, 10):
        h = np.zeros((n - 1, n), dtype=int)
        h[:, 0] = 1
        h[np.arange(n - 1), np.arange(1, n)] = 1
        g = TannerGraph(h)
        llr = rng.uniform(-2, 2, n)
        _, soft = decode_bp_batch(g, llr[None, :], iterations=10)
        expected = _enumeration_posteriors([np.zeros(n), np.ones(n)], llr)
        assert np.allclose(soft[0], expected, atol=1e-9)
    # single parity check: all even-weight words
    n = 4
    cws = [np.array(c) for c in itertools.product([0, 1], repeat=n) if sum(c) % 2 == 0]
    g = TannerGraph(np.ones((1, n), dtype=int))
    llr = rng.uniform(-2, 2, n)
    _, soft = decode_bp_batch(g, llr[None, :], iterations=3)
    assert np.allclose(soft[0], _enumeration_posteriors(cws, llr), atol=1e-9)


def test_awgn_llr_noiseless_limit():
    rng = np.random.default_rng(3)
    llr = awgn_llr(np.zeros(63, dtype=np.uint8), 1e-6, rng)
    assert np.allclose(llr * 1e-12 / 2.0, 1.0, rtol=1e-3)  # ~ +2/sigma^2
    assert not np.any(llr < 0)


def test_awgn_llr_seed_reproducibility():
    bits = np.zeros(16, dtype=np.uint8)
    a = awgn_llr(bits, 0.7, np.random.default_rng(9))
    b = awgn_llr(bits, 0.7, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_awgn_llr_monte_carlo_mean():
    rng = np.random.default_rng(4)
    sigma = 0.9
    draws = awgn_llr(np.zeros(10**6, dtype=np.uint8), sigma, rng)
    assert draws.mean() == pytest.approx(2.0 / sigma**2, rel=0.01)


def test_awgn_llr_rejects_bad_sigma():
    with pytest.raises(ValueError, match="positive"):
        awgn_llr(np.zeros(4, dtype=np.uint8), 0.0, np.random.default_rng(0))
    # one noise level per row: a single bad row is enough to refuse
    with pytest.raises(ValueError, match="positive"):
        awgn_llr(np.zeros((2, 4), dtype=np.uint8), np.array([[0.5], [-0.1]]),
                 np.random.default_rng(0))


def test_awgn_llr_one_sigma_per_row():
    # the all-zeros word's LLRs are 2 (1 + sigma z) / sigma^2, bit for bit
    sig = np.array([[0.5], [0.9], [0.7]])
    llr = awgn_llr(np.zeros((3, 5), dtype=np.uint8), sig, np.random.default_rng(2))
    noise = np.random.default_rng(2).standard_normal((3, 5))
    assert np.array_equal(llr, 2.0 * (1.0 + sig * noise) / sig**2)


def test_batch_decode_matches_single(hamming_graph):
    rng = np.random.default_rng(5)
    llrs = rng.uniform(-4, 4, (16, 7))
    hard_b, soft_b = decode_bp_batch(hamming_graph, llrs, iterations=4)
    for i in range(16):
        hard, soft = decode_bp_batch(hamming_graph, llrs[i : i + 1], iterations=4)
        assert np.array_equal(hard_b[i], hard[0])
        assert np.array_equal(soft_b[i], soft[0])


@pytest.mark.parametrize("m, t", [(6, 3), (7, 6), (8, 9)], ids=["n63", "n127", "n255"])
def test_no_grad_blocks_are_bitwise_one_pass(m, t):
    code = build_code(m, t)
    graph = TannerGraph(code.parity_check_matrix)
    rng = np.random.default_rng(m)
    unit, weights = unit_weights(graph, 5), unit_weights(graph, 5)
    for w in weights.values():
        w.data = w.data * (1.0 + 0.05 * rng.standard_normal(w.data.shape))
    block = tanner.DECODE_BLOCK
    for words in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        # (words, n) as the decoder holds them, some beyond the clamp
        x = rng.normal(1.0, 4.0, (words, graph.n)) * rng.choice([1.0, 10.0], (words, graph.n))
        with ad.no_grad():
            one_pass = tanner._unrolled(graph, Tensor(x.T), 5, weights).data
            post = bp_forward(graph, Tensor(x.T), 5, weights).data
            unit_pass = tanner._unrolled(graph, Tensor(x.T), 5, unit).data
        assert post.shape == (graph.n, words) and post.tobytes() == one_pass.tobytes(), words
        hard, soft = decode_bp_batch(graph, x, iterations=5)
        assert hard.shape == soft.shape == (words, graph.n), words
        assert soft.tobytes() == unit_pass.T.tobytes(), words
        assert np.array_equal(hard, hard_decision(unit_pass.T)), words


def test_coded_ber_beats_uncoded_at_moderate_noise(hamming74, hamming_graph):
    # Hamming(7,4), 5 BP iterations, sigma = 0.5, zero codeword transmitted
    rng = np.random.default_rng(6)
    words = 100_000
    sigma = 0.5
    y = 1.0 + sigma * rng.standard_normal((words, 7))
    llrs = 2.0 * y / sigma**2
    uncoded_ber = float(np.mean(llrs < 0))
    hard, _ = decode_bp_batch(hamming_graph, llrs, iterations=5)
    coded_ber = float(np.mean(hard))
    assert coded_ber < uncoded_ber


def test_bp_close_to_ml_block_error(hamming74, hamming_graph):
    # soft-decision ML oracle by enumerating all 16 codewords; measured BP/ML
    # block-error ratio at this operating point is ~3.2 (flooding sum-product
    # is a constant factor off ML on this short, cycle-heavy graph)
    rng = np.random.default_rng(7)
    words = 1_000_000
    sigma = 0.4
    y = 1.0 + sigma * rng.standard_normal((words, 7))
    llrs = 2.0 * y / sigma**2
    hard, _ = decode_bp_batch(hamming_graph, llrs, iterations=5)
    bp_blocks = int(np.count_nonzero(np.any(hard, axis=1)))
    cws = hamming74.all_codewords()
    symbols = 1.0 - 2.0 * cws.astype(np.float64)
    ml_blocks = int(np.count_nonzero(np.argmax(y @ symbols.T, axis=1) != 0))
    assert ml_blocks > 0
    assert bp_blocks <= 4.0 * ml_blocks


def test_llr_length_and_iteration_validation(hamming_graph):
    for shape in ((1, 6), (1, 8), (7,), (1, 1, 7)):
        with pytest.raises(ValueError, match="n = 7"):
            decode_bp_batch(hamming_graph, np.zeros(shape), iterations=3)
    with pytest.raises(ValueError, match="iterations"):
        decode_bp_batch(hamming_graph, np.zeros((1, 7)), iterations=0)
