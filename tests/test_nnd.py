import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hashdec import autodiff as ad
from hashdec import nnd, tanner
from hashdec.autodiff import Tensor, TrainingError, gradient_check
from hashdec.bch import build_code, decode_hard, encode, syndromes
from hashdec.checkpoint import CheckpointFormatError
from hashdec.config import ConfigError, ExperimentConfig
from hashdec.nnd import (
    VAL_WORDS,
    GroundTruthTable,
    NndModel,
    bm_decode,
    codeword_error_rate,
    finetune_biometric,
    hard_limit,
    llr_from_activations,
    make_ground_truth,
    pretrain_awgn,
    sigma_from_snr_db,
    sweep_llr_scale,
    train_loop,
)
from hashdec.pipeline import PipelineError, _load_ground_truth
from hashdec.tanner import TannerGraph, awgn_llr, decode_bp_batch


@pytest.fixture(scope="module")
def hamming74():
    return build_code(3, 1)


@pytest.fixture(scope="module")
def bch63():
    return build_code(6, 3)


def test_build_initialises_weights_at_one(hamming74):
    model = NndModel(hamming74, iterations=3)
    for name, t in model.parameters().items():
        assert np.all(t.data == 1.0), name


def test_single_iteration_structure(hamming74):
    model = NndModel(hamming74, iterations=1)
    names = set(model.parameters())
    # one variable layer (channel weights only) plus the marginalization
    assert names == {"layer0/channel", "out/edge", "out/channel"}
    assert model.params["layer0/channel"].data.shape == (7, 1)
    assert model.params["out/edge"].data.shape == (12, 1)


def test_edge_weight_count_matches_graph(hamming74):
    model = NndModel(hamming74, iterations=4)
    for i in range(1, 4):
        assert model.params[f"layer{i}/edge"].data.shape == (12, 1)
    # a checkpoint stores the weights in this order; round 0 has no edge weight
    assert list(model.parameters()) == ["layer0/channel"] + [
        f"layer{i}/{kind}" for i in range(1, 4) for kind in ("edge", "channel")] + [
        "out/edge", "out/channel"]


def test_untrained_model_equals_classical_bp(bch63):
    """Both sides run ``bp_forward`` at unit weights: this pins
    ``NndModel.decode``'s plumbing (chunks, transposes, hard decision). That
    unit weights are classical BP bit for bit is shown against the unweighted
    per-op chain in ``test_tanner``."""
    graph = TannerGraph(bch63.parity_check_matrix)
    model = NndModel(bch63, iterations=5)
    rng = np.random.default_rng(0)
    for sigma in (0.5, 0.8):
        msgs = rng.integers(0, 2, (200, bch63.k)).astype(np.uint8)
        words = np.stack([encode(bch63, m) for m in msgs])
        llrs = np.stack([awgn_llr(w, sigma, rng) for w in words])
        hard_bp, _ = decode_bp_batch(graph, llrs, iterations=5)
        assert np.array_equal(model.decode(llrs), hard_bp)


def test_untrained_model_equals_bp_on_llr_grid(hamming74):
    graph = TannerGraph(hamming74.parity_check_matrix)
    model = NndModel(hamming74, iterations=5)
    grid = np.array(np.meshgrid(*[[-2.0, 0.5]] * 7)).reshape(7, -1).T
    # both sides run bp_forward at unit weights, as above; a posterior just
    # below zero is bit 1 for both
    grid = np.vstack([grid, [-1e-17, 0, 0, 0, 0, 0, 0]])
    hard_bp, _ = decode_bp_batch(graph, grid, iterations=5)
    assert np.array_equal(model.decode(grid), hard_bp)


def _check_major_loo(graph, t):
    """The leave-one-out product and its VJP on a (check, slot) layout, one
    accumulate per lane and one running sum per slot: the kernel the
    slot-major scans replaced, kept to pin them bit for bit."""
    d = graph.max_check_degree
    degrees = np.bincount(graph.edge_check, minlength=graph.r)
    slot = np.arange(graph.num_edges) - (np.cumsum(degrees) - degrees)[graph.edge_check]
    flat = graph.edge_check * d + slot
    flat_shape = (graph.r * d,) + t.shape[1:]
    dense = np.ones(flat_shape)
    dense[flat] = t
    dense = dense.reshape((graph.r, d) + t.shape[1:])
    left = np.ones_like(dense)
    np.multiply.accumulate(dense[:, :-1], axis=1, out=left[:, 1:])
    right = np.ones_like(dense)
    np.multiply.accumulate(dense[:, :0:-1], axis=1, out=right[:, -2::-1])
    edges = lambda x: x.reshape(flat_shape)[flat]

    def vjp(g):
        g_dense = np.zeros_like(dense)
        g_dense.reshape(flat_shape)[flat] = g
        grad = np.empty_like(dense)
        acc = np.zeros_like(dense[:, 0])
        for j in range(d):
            grad[:, j] = acc * right[:, j]
            acc = acc * dense[:, j] + g_dense[:, j] * left[:, j]
        acc = np.zeros_like(dense[:, 0])
        for j in range(d - 1, -1, -1):
            grad[:, j] += left[:, j] * acc
            acc = acc * dense[:, j] + g_dense[:, j] * right[:, j]
        return edges(grad)

    return edges(left * right), vjp


@pytest.mark.parametrize("batch", [1, 64, 512])
def test_decode_and_gradient_are_bitwise_the_check_major_scans(bch63, monkeypatch, batch):
    # both sides run this host's tanh/arctanh, so only the scans can differ
    rng = np.random.default_rng(batch)
    model = _jittered(NndModel(bch63, iterations=5), rng)
    llr = awgn_llr(np.zeros((batch, bch63.n), dtype=np.uint8),
                   rng.uniform(0.5, 1.0, (batch, 1)), rng)
    targets = Tensor(np.zeros((batch, bch63.n)))

    def run():
        for t in model.parameters().values():
            t.grad = None
        posterior = model.forward(llr)
        ad.GradientTape(ad.binary_cross_entropy(posterior, targets)).backward()
        return (model.decode(llr), posterior.data.copy(),
                [t.grad.copy() for t in model.parameters().values()])

    bits, posterior, grads = run()
    monkeypatch.setattr(tanner, "_loo", _check_major_loo)
    ref_bits, ref_posterior, ref_grads = run()
    assert np.array_equal(bits, ref_bits)
    assert posterior.tobytes() == ref_posterior.tobytes()
    assert len(grads) == len(ref_grads) > 0
    for g, ref in zip(grads, ref_grads):
        assert g.tobytes() == ref.tobytes()


def _jittered(model, rng):
    for t in model.parameters().values():
        t.data = t.data * (1.0 + 0.05 * rng.standard_normal(t.data.shape))
    return model


# sha256 of the decoded bits and of the weight gradients of one forward and
# backward pass, per batch size; any change to the decoder's arithmetic or
# its order of operations moves them (x86-64, numpy 2.4)
DECODER_GOLDEN_63 = {
    1: ("bba606d6efb3f0a2b381bc2026056509d7549dd075dd9cb866ed93d3f30f931b",
        "75e906f52e382c0936fc9e400f4ec971c6acc0610dfc619c5a548d4c1470b6c2"),
    64: ("20e500d5e4b521e80c59a5504a5859c9139d92e2e620094bf8697ff3aa0c6bb5",
         "8ff06dad82bf5526d9932c06fb504102fb524c5fd6f892da34803a6dedfd8e7e"),
    512: ("83d66d2d8b0ea89c8bf7c5d4a4afd0c596573fd9b5959e9c78c27ae0e6c2f4ca",
          "9a262a2c019d924527e1ece542291c9fbd8d0b381996ab016748ba56fade7350"),
}


@pytest.mark.parametrize("batch", [1, 64, 512])
def test_decoder_golden_digest(bch63, batch):
    rng = np.random.default_rng(batch)
    model = _jittered(NndModel(bch63, iterations=5), rng)
    sigma = sigma_from_snr_db(3.0, bch63.k / bch63.n)
    llr = awgn_llr(np.zeros((batch, bch63.n), dtype=np.uint8), sigma, rng)
    bits = model.decode(llr)
    targets = Tensor(np.zeros((batch, bch63.n)))
    ad.GradientTape(ad.binary_cross_entropy(model.forward(llr), targets)).backward()
    grads = hashlib.sha256()
    for t in model.parameters().values():
        grads.update(t.grad.tobytes())
    digests = (hashlib.sha256(bits.tobytes()).hexdigest(), grads.hexdigest())
    assert digests == DECODER_GOLDEN_63[batch]


def test_decode_in_chunks_equals_row_by_row(bch63, monkeypatch):
    rng = np.random.default_rng(11)
    model = _jittered(NndModel(bch63, iterations=5), rng)
    llrs = rng.normal(0.0, 3.0, (1100, 63))
    # full blocks and a partial one, each one pass of the unrolled rounds
    # within one ``bp_forward`` call, as a tracer wrapping it counts
    calls, sizes = [], []
    forward, unrolled = nnd.bp_forward, tanner._unrolled
    monkeypatch.setattr(nnd, "bp_forward", lambda *a: calls.append(1) or forward(*a))
    monkeypatch.setattr(tanner, "_unrolled",
                        lambda g, llr, *a: sizes.append(llr.data.shape[1]) or unrolled(g, llr, *a))
    bits = model.decode(llrs)
    full, rest = divmod(1100, tanner.DECODE_BLOCK)
    assert rest and sizes == [tanner.DECODE_BLOCK] * full + [rest]
    assert calls == [1]
    monkeypatch.undo()
    assert bits.shape == (1100, 63) and bits.dtype == np.uint8
    for i in range(1100):
        assert np.array_equal(bits[i], model.decode(llrs[i])[0]), i
    empty = model.decode(np.zeros((0, 63)))
    assert empty.shape == (0, 63) and empty.dtype == np.uint8
    with pytest.raises(ValueError, match="n = 63"):
        model.decode(np.zeros((0, 62)))


def test_one_graph_node_per_bp_round(bch63):
    # a BP round is one primitive: an added iteration adds one node to the
    # recorded graph, so per-op dispatch cannot creep back unnoticed
    llr = Tensor(np.random.default_rng(12).normal(0.0, 3.0, (2, 63)), requires_grad=True)
    sizes = [len(ad.GradientTape(ad.tensor_sum(NndModel(bch63, t).posterior(llr))).order)
             for t in range(1, 6)]
    assert np.diff(sizes).tolist() == [1, 1, 1, 1]


def test_forward_outputs_strictly_inside_unit_interval(bch63):
    model = NndModel(bch63, iterations=5)
    rng = np.random.default_rng(1)
    probs = model.forward(rng.uniform(-30, 30, (16, 63))).data
    assert np.all(probs > 0.0) and np.all(probs < 1.0)
    strong = model.forward(np.full((1, 63), 20.0)).data
    assert np.all(strong < 1e-6)  # decodes to the zero codeword


def test_forward_validates_width(bch63):
    model = NndModel(bch63, iterations=2)
    with pytest.raises(ValueError, match="n = 63"):
        model.forward(np.zeros((2, 62)))
    with pytest.raises(ValueError, match=r"shape \(63,\)"):
        model.forward(np.zeros(63))


def test_loss_gradients_match_finite_differences(hamming74):
    model = NndModel(hamming74, iterations=3)
    rng = np.random.default_rng(2)
    llr = rng.uniform(-3, 3, (4, 7))
    targets = rng.integers(0, 2, (4, 7)).astype(float)

    def f(*weights):
        return ad.binary_cross_entropy(model.forward(llr), Tensor(targets))

    report = gradient_check(f, list(model.parameters().values()))
    assert report.max_relative_error < 1e-4


def test_gradient_flows_into_llr_input(hamming74):
    model = NndModel(hamming74, iterations=2)
    rng = np.random.default_rng(3)
    llr = Tensor(rng.uniform(-2, 2, (3, 7)), requires_grad=True)
    loss = ad.binary_cross_entropy(model.forward(llr), Tensor(np.zeros((3, 7))))
    ad.GradientTape(loss).backward()
    assert llr.grad is not None and np.any(llr.grad != 0)


def test_pretrain_zero_steps_is_identity(bch63):
    model = NndModel(bch63, iterations=5)
    before = {k: t.data.copy() for k, t in model.parameters().items()}
    model, curve = pretrain_awgn(model, ExperimentConfig(nnd_pretrain_steps=0), seed=5)
    assert all(np.array_equal(before[k], t.data) for k, t in model.parameters().items())
    assert len(curve) == 1


def test_pretrain_initial_loss_equals_classical_bp_loss(bch63):
    cfg = ExperimentConfig(nnd_snr_range_db=(2.0, 4.0), nnd_pretrain_steps=0)
    model = NndModel(bch63, iterations=5)
    _, curve = pretrain_awgn(model, cfg, seed=6)
    # recompute by hand: same validation words through decode_bp_batch's
    # posteriors, bp_forward at unit weights
    rng = np.random.default_rng(6 + 1)
    rate = bch63.k / bch63.n
    sigmas = np.array([sigma_from_snr_db(s, rate) for s in cfg.nnd_snr_range_db])
    sig = rng.choice(sigmas, size=VAL_WORDS)
    noise = rng.standard_normal((VAL_WORDS, bch63.n))
    val = 2.0 * (1.0 + sig[:, None] * noise) / sig[:, None] ** 2
    graph = TannerGraph(bch63.parity_check_matrix)
    _, soft = decode_bp_batch(graph, val, iterations=5)
    with ad.no_grad():
        expected = float(
            ad.binary_cross_entropy(ad.sigmoid(Tensor(-soft)), Tensor(np.zeros_like(soft))).data
        )
    assert curve[0] == pytest.approx(expected, abs=1e-15)


def test_pretrain_requires_snrs():
    # the config refuses an empty list when it loads, before any pretraining
    with pytest.raises(ConfigError, match="nnd_snr_range_db must be nonempty"):
        ExperimentConfig(nnd_snr_range_db=())


def test_training_divergence_raises(hamming74):
    # feed one easy batch (small initial loss), then batches whose targets
    # contradict confident inputs: the loss stays far above 10x the initial
    # value and the divergence guard must trip after 100 such steps
    model = NndModel(hamming74, iterations=2)
    easy_llr = np.full((4, 7), 20.0)
    easy_targets = np.zeros((4, 7))
    hard_targets = np.ones((4, 7))

    def sample_batch(step):
        if step == 0:
            return easy_llr, easy_targets
        return easy_llr, hard_targets

    def loss(llr, targets):
        return ad.binary_cross_entropy(model.forward(llr), Tensor(targets))

    with pytest.raises(TrainingError, match="diverged"):
        train_loop(model.parameters(), loss, sample_batch, (easy_llr, easy_targets),
                   steps=150, step_size=1e-9, val_every=25)


def test_llr_from_activations():
    acts = np.array([1.0, 0.0, -1.0])
    assert np.array_equal(llr_from_activations(acts, 8.0), [8.0, 0.0, -8.0])
    assert np.all(np.abs(llr_from_activations(acts, 64.0)) <= 30.0)
    # the clamp is np.clip's, bit for bit: NaN, signed zeros, infinities, the bounds
    edge = np.array([[np.nan, 0.0, -0.0, np.inf, -np.inf, 30.0, -30.0,
                      np.nextafter(30.0, 31.0), np.nextafter(-30.0, -31.0), 29.5]])
    rng = np.random.default_rng(14)
    for x in (edge, rng.normal(0.0, 1.0, (512, 63))):
        want = np.clip(40.0 * x, -30.0, 30.0)
        assert np.array_equal(llr_from_activations(x, 40.0).view(np.uint64), want.view(np.uint64))
    with pytest.raises(ValueError, match="positive"):
        llr_from_activations(acts, 0.0)


def test_llr_sign_convention_decodes_zero(bch63):
    model = NndModel(bch63, iterations=5)
    bits = model.decode(llr_from_activations(np.ones((1, 63)), 8.0))
    assert not np.any(bits)


def test_hard_limit_boundary():
    assert np.array_equal(hard_limit(np.array([0.3, 0.0, -0.2])), [0, 1, 1])


def _acts_for(code, cw, margin=0.9):
    return np.where(cw == 0, margin, -margin)


def _far_from(code, good, rng, flips=25):
    """``good`` with ``flips`` of its signs flipped, at random positions."""
    bad = good.copy()
    far = rng.choice(code.n, flips, replace=False)
    bad[far] = -bad[far]
    return bad


def test_bm_decode_is_decode_hard_per_row(bch63):
    rng = np.random.default_rng(12)
    rows = []
    for flips in range(8):  # within and beyond t = 3
        cw = encode(bch63, rng.integers(0, 2, 45).astype(np.uint8))
        good = np.where(cw == 0, 0.9, -0.9)
        rows.append(_far_from(bch63, good, rng, flips) if flips else good)
    acts = np.stack(rows)
    bits, ok = bm_decode(bch63, acts)
    assert bits.dtype == np.uint8 and ok.dtype == bool and bits.shape == acts.shape
    assert ok[:4].all() and not ok.all()
    for row, word, decoded in zip(acts, bits, ok):
        result = decode_hard(bch63, hard_limit(row))
        assert decoded == result.success
        if decoded:
            assert np.array_equal(word, result.codeword) and not syndromes(bch63, word).any()
        else:
            assert np.array_equal(word, hard_limit(row))


def test_ground_truth_unanimous(hamming74):
    cw = encode(hamming74, np.array([1, 0, 1, 1], dtype=np.uint8))
    table = make_ground_truth(np.stack([_acts_for(hamming74, cw)] * 4), [5] * 4, hamming74)
    assert np.array_equal(table.labels[5], cw)
    assert table.support[5] == 4 and table.failures[5] == 0


def test_ground_truth_plurality(hamming74):
    a = encode(hamming74, np.array([1, 0, 0, 0], dtype=np.uint8))
    b = encode(hamming74, np.array([0, 1, 0, 0], dtype=np.uint8))
    rows = np.stack([_acts_for(hamming74, a), _acts_for(hamming74, a), _acts_for(hamming74, b)])
    table = make_ground_truth(rows, [1, 1, 1], hamming74)
    assert np.array_equal(table.labels[1], a)
    assert table.support[1] == 2


def test_ground_truth_tie_breaks_lexicographically(hamming74):
    msgs = [np.array([1, 0, 0, 0], np.uint8), np.array([0, 1, 0, 0], np.uint8)]
    a, b = (encode(hamming74, m) for m in msgs)
    rows = np.stack([_acts_for(hamming74, w) for w in (a, a, b, b)])
    table = make_ground_truth(rows, [1] * 4, hamming74)
    expected = min((tuple(a), tuple(b)))
    assert tuple(table.labels[1]) == expected


def test_ground_truth_order_invariance(hamming74):
    rng = np.random.default_rng(8)
    cws = [encode(hamming74, rng.integers(0, 2, 4).astype(np.uint8)) for _ in range(3)]
    rows = np.stack([_acts_for(hamming74, cws[i]) for i in (0, 0, 1, 2, 1, 0, 2, 2)])
    subjects = np.array([3, 3, 3, 3, 3, 3, 4, 4])
    perm = rng.permutation(len(rows))
    t1 = make_ground_truth(rows, subjects, hamming74)
    t2 = make_ground_truth(rows[perm], subjects[perm], hamming74)
    for subject in (3, 4):
        assert np.array_equal(t1.labels[subject], t2.labels[subject])
    assert t1.support == t2.support and t1.totals == t2.totals


def test_ground_truth_failures_excluded(bch63):
    rng = np.random.default_rng(9)
    cw = encode(bch63, rng.integers(0, 2, 45).astype(np.uint8))
    good = np.where(cw == 0, 0.9, -0.9)
    # a word > t flips away from every codeword in its sphere fails to decode
    bad = _far_from(bch63, good, rng)
    assert not decode_hard(bch63, hard_limit(bad)).success
    table = make_ground_truth(np.stack([good, bad, bad, bad]), [1, 1, 2, 2], bch63)
    assert table.failures[1] == 1 and np.array_equal(table.labels[1], cw)
    assert table.excluded == [2]
    assert 2 not in table.labels


def test_ground_truth_empty_subject_rejected(hamming74):
    # a subject can only appear with rows; what is refused is input that is
    # not (N >= 1, n) or whose subject ids are not one per row
    for shape in ((0, 7), (3, 6), (7,)):
        with pytest.raises(ValueError, match=r"not \(N >= 1, n = 7\)"):
            make_ground_truth(np.zeros(shape), [1] * (shape[0] if len(shape) == 2 else 1), hamming74)
    with pytest.raises(ValueError, match="2 subject ids for 3 samples"):
        make_ground_truth(np.ones((3, 7)), [1, 1], hamming74)


def test_ground_truth_all_failed_raises(bch63):
    rng = np.random.default_rng(10)
    rows = rng.uniform(-1, 1, (3, 63))
    # craft rows that certainly fail by checking first
    bad = [r for r in rows if not decode_hard(bch63, hard_limit(r)).success]
    if not bad:
        pytest.skip("random rows all decoded (astronomically unlikely)")
    with pytest.raises(RuntimeError, match="every subject"):
        make_ground_truth(np.stack(bad), [1] * len(bad), bch63)


def _dict_vote(code, activations, subjects):
    """The ground-truth vote as a per-subject dict of codeword counts, the
    modal codeword chosen by ``min`` over (-count, word): the reference."""
    labels, support, failures = {}, {}, {}
    for subject in sorted(set(subjects)):
        counts = {}
        failures[subject] = 0
        for row in activations[np.asarray(subjects) == subject]:
            res = decode_hard(code, hard_limit(row))
            if res.success:
                key = tuple(res.codeword.tolist())
                counts[key] = counts.get(key, 0) + 1
            else:
                failures[subject] += 1
        if counts:
            labels[subject] = min(counts, key=lambda cw: (-counts[cw], cw))
            support[subject] = counts[labels[subject]]
    return labels, support, failures


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.sets(st.integers(0, 14), max_size=4)), min_size=1, max_size=24))
def test_ground_truth_vote_is_the_dict_rule(samples):
    # BCH(15,7), t = 2: up to 2 flips decode back, 3-4 may fail or land on
    # another codeword; four messages per subject make ties common
    code = test_ground_truth_vote_is_the_dict_rule.code
    rows, subjects = [], []
    for subject, message, flips in samples:
        cw = encode(code, ((message * 37 >> np.arange(code.k)) & 1).astype(np.uint8))
        acts = np.where(cw == 0, 0.9, -0.9)
        acts[sorted(flips)] *= -1
        rows.append(acts)
        subjects.append(subject)
    rows = np.stack(rows)
    labels, support, failures = _dict_vote(code, rows, subjects)
    if not labels:
        with pytest.raises(RuntimeError, match="every subject"):
            make_ground_truth(rows, subjects, code)
        return
    table = make_ground_truth(rows, subjects, code)
    assert {s: tuple(w.tolist()) for s, w in table.labels.items()} == labels
    assert table.support == support and table.failures == failures
    assert table.excluded == sorted(set(failures) - set(labels))


test_ground_truth_vote_is_the_dict_rule.code = build_code(4, 2)


def test_ground_truth_table_round_trip(tmp_path, hamming74, bch63):
    cw = encode(hamming74, np.array([1, 1, 0, 0], dtype=np.uint8))
    table = make_ground_truth(np.stack([_acts_for(hamming74, cw)] * 3), [4] * 3, hamming74)
    table.excluded.append(9)
    path = tmp_path / "ground_truth.ckpt"
    table.save(path, {"fingerprint": "6f84bf01455adfae"})
    loaded, meta = GroundTruthTable.load(path)
    assert np.array_equal(loaded.labels[4], cw)
    assert loaded.support[4] == 3 and loaded.failures[4] == 0
    assert loaded.excluded == [9] and loaded.n == 7
    assert meta == {"kind": "ground_truth", "n": 7, "fingerprint": "6f84bf01455adfae"}

    # failure counts and totals, an excluded subject's included, survive too
    rng = np.random.default_rng(9)
    cw63 = encode(bch63, rng.integers(0, 2, 45).astype(np.uint8))
    good = np.where(cw63 == 0, 0.9, -0.9)
    bad = _far_from(bch63, good, rng)
    table = make_ground_truth(np.stack([good, good, bad, bad, bad]), [1, 1, 1, 2, 2], bch63)
    assert table.excluded == [2] and table.failure_rate == 3 / 5
    table.save(path)
    loaded, _ = GroundTruthTable.load(path)
    assert loaded.failure_rate == table.failure_rate
    assert loaded.totals == {1: 3, 2: 2} and loaded.failures == {1: 1, 2: 2}
    assert loaded.excluded == [2] and set(loaded.labels) == {1}
    assert np.array_equal(loaded.labels[1], cw63) and loaded.support == {1: 2}


@pytest.mark.parametrize("n", [63, 127, 255])
def test_ground_truth_labels_round_trip_at_long_codes(tmp_path, n):
    # a label with its top bit set survives save/load at every code length
    rng = np.random.default_rng(n)
    labels = {s: rng.integers(0, 2, n).astype(np.uint8) for s in range(3)}
    labels[0][-1] = 1
    labels[1][:] = 1
    labels[2][:] = 0
    table = GroundTruthTable(n=n, labels=labels, support=dict.fromkeys(labels, 2),
                             failures=dict.fromkeys(labels, 0), totals=dict.fromkeys(labels, 2))
    table.save(tmp_path / "ground_truth.ckpt")
    loaded, _ = GroundTruthTable.load(tmp_path / "ground_truth.ckpt")
    for subject, bits in labels.items():
        assert loaded.labels[subject].dtype == np.uint8
        assert np.array_equal(loaded.labels[subject], bits)


def test_ground_truth_label_wider_than_the_code_refused(tmp_path):
    table = GroundTruthTable(n=63, labels={4: np.ones(64, dtype=np.uint8)},
                             support={4: 1}, failures={4: 0}, totals={4: 1})
    path = tmp_path / "ground_truth.ckpt"
    table.save(path, {"fingerprint": ExperimentConfig().fingerprint()})
    with pytest.raises(CheckpointFormatError, match=r"labels of shape \(1, 64\) for n = 63"):
        GroundTruthTable.load(path)
    # the pipeline reports it as a bad record that names the file
    with pytest.raises(PipelineError, match="ground_truth.ckpt.*labels of shape"):
        _load_ground_truth(ExperimentConfig(), tmp_path)


def test_finetune_confident_labels_barely_move_weights(hamming74):
    model = NndModel(hamming74, iterations=2)
    cw = encode(hamming74, np.array([1, 0, 1, 0], dtype=np.uint8))
    inputs = llr_from_activations(np.stack([_acts_for(hamming74, cw, 0.999)] * 6), 20.0)
    targets = np.tile(cw.astype(np.float64), (6, 1))
    before = {k: t.data.copy() for k, t in model.parameters().items()}
    model = finetune_biometric(model, inputs, targets,
                               ExperimentConfig(nnd_finetune_steps=30, nnd_batch_size=4), seed=11)
    drift = max(np.max(np.abs(before[k] - t.data)) for k, t in model.parameters().items())
    assert drift < 1e-3


def test_finetune_requires_labels_and_data(hamming74):
    model = NndModel(hamming74, iterations=2)
    before = {k: t.data.copy() for k, t in model.parameters().items()}
    cases = [(np.zeros((0, 7)), np.zeros((0, 7))), (np.zeros(7), np.zeros(7)),
             (np.zeros((2, 6)), np.zeros((2, 6)))]
    cases += [(np.zeros((2, 7)), t) for t in (np.zeros((3, 7)), np.zeros((2, 6)), np.zeros(14))]
    for inputs, targets in cases:
        with pytest.raises(ValueError, match="shape"):
            finetune_biometric(model, inputs, targets, ExperimentConfig(nnd_finetune_steps=1),
                               seed=0)
    assert all(np.array_equal(before[k], t.data) for k, t in model.parameters().items())


def test_codeword_error_rate():
    a = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    b = np.array([[0, 1], [0, 1]], dtype=np.uint8)
    assert codeword_error_rate(a, b) == 0.5


def test_sweep_llr_scale_returns_each_rate_and_the_best(hamming74):
    model = NndModel(hamming74, iterations=3)
    cw = encode(hamming74, np.array([0, 1, 1, 0], dtype=np.uint8))
    acts = np.stack([_acts_for(hamming74, cw, 0.8)] * 2)
    targets = np.tile(cw.astype(np.float64), (2, 1))
    results, best = sweep_llr_scale(model, acts, targets, scales=(2.0, 4.0))
    assert [scale for scale, _ in results] == [2.0, 4.0]
    for scale, cer in results:
        bits = model.decode(llr_from_activations(acts, scale))
        assert cer == codeword_error_rate(bits, targets)
    assert best == min(results, key=lambda r: (r[1], r[0]))[0]
