import itertools
import math

import numpy as np
import pytest

from hashdec import autodiff as ad
from hashdec.autodiff import GradientTape, Tensor, gradient_check
from hashdec.bch import build_code, encode
from hashdec.tanner import (
    TannerGraph,
    awgn_llr,
    decode_bp,
    decode_bp_batch,
    leave_one_out_prod,
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
    assert sorted(g.edges) == [(0, 0), (0, 1), (1, 1), (1, 2)]


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


def test_adjacency_consistent_with_edges(hamming_graph):
    g = hamming_graph
    for c, v in g.edges:
        assert v in g.check_neighbors[c]
        assert c in g.var_neighbors[v]
    assert sum(len(nb) for nb in g.check_neighbors) == g.num_edges


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
    for e, (c, _) in enumerate(g.edges):
        others = [t[f, 0] for f, (c2, _) in enumerate(g.edges) if c2 == c and f != e]
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
    """O(d^2) reference backward: mask each slot in turn and rerun both scans."""
    d = graph.max_check_degree

    def dense_of(values, fill):
        out = np.full((graph.r * d,) + values.shape[1:], fill)
        out[graph.edge_slot_flat] = values
        return out.reshape((graph.r, d) + values.shape[1:])

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
    return grad.reshape((-1,) + t.shape[1:])[graph.edge_slot_flat]


def test_leave_one_out_prod_backward_matches_masked_slot_reference():
    g = TannerGraph(build_code(6, 3).parity_check_matrix)  # BCH(63,45)
    rng = np.random.default_rng(4)
    t = rng.uniform(-1, 1, (g.num_edges, 3))
    t[np.nonzero(g.edge_check == 2)[0][:2], 0] = 0.0
    upstream = rng.standard_normal(t.shape)
    x = Tensor(t, requires_grad=True)
    GradientTape(ad.tensor_sum(ad.mul(leave_one_out_prod(g, x), Tensor(upstream)))).backward()
    assert np.max(np.abs(x.grad - _masked_slot_grad(g, t, upstream))) < 1e-12


def test_strong_positive_llrs_decode_to_zero_word():
    for m, t in ((3, 1), (6, 3)):
        code = build_code(m, t)
        g = TannerGraph(code.parity_check_matrix)
        res = decode_bp(g, np.full(code.n, 20.0), iterations=1)
        assert res.converged and not np.any(res.hard)


def test_single_parity_check_hand_update():
    g = TannerGraph(np.ones((1, 3), dtype=int))
    llr = np.array([2.0, 2.0, -1.0])
    res = decode_bp(g, llr, iterations=1, early_exit=False)
    # check message to bit 3: sign(+), magnitude 2 atanh(tanh(1)^2)
    msg = 2.0 * math.atanh(math.tanh(1.0) * math.tanh(1.0))
    assert res.soft[2] == pytest.approx(-1.0 + msg, abs=1e-12)
    assert res.hard[2] == 0  # pulled toward bit 0


def test_codeword_fixed_point(hamming74, hamming_graph):
    rng = np.random.default_rng(0)
    for _ in range(20):
        cw = encode(hamming74, rng.integers(0, 2, 4).astype(np.uint8))
        llr = np.where(cw == 0, 12.0, -12.0)
        res = decode_bp(hamming_graph, llr, iterations=5, early_exit=False)
        assert np.array_equal(res.hard, cw)


def test_negation_symmetry_with_all_ones_complement(hamming74, hamming_graph):
    # the all-ones word is a codeword of every narrow-sense BCH code
    ones = np.ones(7, dtype=np.uint8)
    assert not np.any((hamming74.parity_check_matrix @ ones) % 2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        llr = awgn_llr(np.zeros(7, dtype=np.uint8), 0.8, rng)
        a = decode_bp(hamming_graph, llr, iterations=5, early_exit=False)
        b = decode_bp(hamming_graph, -llr, iterations=5, early_exit=False)
        assert np.array_equal(b.hard, a.hard ^ 1)
        assert np.allclose(b.soft, -a.soft, atol=1e-9)


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
        res = decode_bp(g, llr, iterations=10, early_exit=False)
        expected = _enumeration_posteriors([np.zeros(n), np.ones(n)], llr)
        assert np.allclose(res.soft, expected, atol=1e-9)
    # single parity check: all even-weight words
    n = 4
    cws = [np.array(c) for c in itertools.product([0, 1], repeat=n) if sum(c) % 2 == 0]
    g = TannerGraph(np.ones((1, n), dtype=int))
    llr = rng.uniform(-2, 2, n)
    res = decode_bp(g, llr, iterations=3, early_exit=False)
    assert np.allclose(res.soft, _enumeration_posteriors(cws, llr), atol=1e-9)


def test_early_exit_reports_iterations(hamming_graph):
    res = decode_bp(hamming_graph, np.full(7, 15.0), iterations=5, early_exit=True)
    assert res.converged and res.iterations_run == 1
    res2 = decode_bp(hamming_graph, np.full(7, 15.0), iterations=5, early_exit=False)
    assert res2.iterations_run == 5 and np.array_equal(res2.hard, res.hard)


def test_early_exit_equals_batch_decode_at_rounds_run(hamming_graph):
    rng = np.random.default_rng(11)
    rounds = set()
    for _ in range(40):
        llr = awgn_llr(np.zeros(7, dtype=np.uint8), 0.9, rng)
        res = decode_bp(hamming_graph, llr, iterations=6)
        hard, soft = decode_bp_batch(hamming_graph, llr[None, :], iterations=res.iterations_run)
        assert np.array_equal(res.soft, soft[0]) and np.array_equal(res.hard, hard[0])
        rounds.add(res.iterations_run)
    assert len(rounds) > 1  # some words stop early, some run longer


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


def test_batch_decode_matches_single(hamming_graph):
    rng = np.random.default_rng(5)
    llrs = rng.uniform(-4, 4, (16, 7))
    hard_b, soft_b = decode_bp_batch(hamming_graph, llrs, iterations=4)
    for i in range(16):
        res = decode_bp(hamming_graph, llrs[i], iterations=4, early_exit=False)
        assert np.array_equal(hard_b[i], res.hard)
        assert np.array_equal(soft_b[i], res.soft)


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
    with pytest.raises(ValueError, match="n = 7"):
        decode_bp(hamming_graph, np.zeros(6), iterations=3)
    with pytest.raises(ValueError, match="iterations"):
        decode_bp(hamming_graph, np.zeros(7), iterations=0)
