import numpy as np
import pytest

from hashdec import autodiff as ad
from hashdec.autodiff import Tensor, TrainingError, gradient_check
from hashdec.bch import build_code, encode
from hashdec.config import ConfigError, ExperimentConfig
from hashdec.nnd import (
    VAL_WORDS,
    GroundTruthTable,
    NndModel,
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
    assert model.channel_weights[0].data.shape == (7, 1)
    assert model.out_edge_weights.data.shape == (12, 1)


def test_edge_weight_count_matches_graph(hamming74):
    model = NndModel(hamming74, iterations=4)
    for i in range(1, 4):
        assert model.edge_weights[i].data.shape == (12, 1)


def test_untrained_model_equals_classical_bp(bch63):
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
    # a posterior just below zero is bit 1 for both decoders
    grid = np.vstack([grid, [-1e-17, 0, 0, 0, 0, 0, 0]])
    hard_bp, _ = decode_bp_batch(graph, grid, iterations=5)
    assert np.array_equal(model.decode(grid), hard_bp)


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
    # recompute by hand: same validation words through plain BP posteriors
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


def test_ground_truth_unanimous(hamming74):
    cw = encode(hamming74, np.array([1, 0, 1, 1], dtype=np.uint8))
    table = make_ground_truth({5: np.stack([_acts_for(hamming74, cw)] * 4)}, hamming74)
    assert np.array_equal(table.labels[5], cw)
    assert table.support[5] == 4 and table.failures[5] == 0


def test_ground_truth_plurality(hamming74):
    a = encode(hamming74, np.array([1, 0, 0, 0], dtype=np.uint8))
    b = encode(hamming74, np.array([0, 1, 0, 0], dtype=np.uint8))
    rows = np.stack([_acts_for(hamming74, a), _acts_for(hamming74, a), _acts_for(hamming74, b)])
    table = make_ground_truth({1: rows}, hamming74)
    assert np.array_equal(table.labels[1], a)
    assert table.support[1] == 2


def test_ground_truth_tie_breaks_lexicographically(hamming74):
    msgs = [np.array([1, 0, 0, 0], np.uint8), np.array([0, 1, 0, 0], np.uint8)]
    a, b = (encode(hamming74, m) for m in msgs)
    rows = np.stack([_acts_for(hamming74, w) for w in (a, a, b, b)])
    table = make_ground_truth({1: rows}, hamming74)
    expected = min((tuple(a), tuple(b)))
    assert tuple(table.labels[1]) == expected


def test_ground_truth_order_invariance(hamming74):
    rng = np.random.default_rng(8)
    cws = [encode(hamming74, rng.integers(0, 2, 4).astype(np.uint8)) for _ in range(3)]
    rows = np.stack([_acts_for(hamming74, cws[i]) for i in (0, 0, 1, 2, 1, 0)])
    t1 = make_ground_truth({3: rows}, hamming74)
    t2 = make_ground_truth({3: rows[::-1]}, hamming74)
    assert np.array_equal(t1.labels[3], t2.labels[3])


def test_ground_truth_failures_excluded(bch63):
    rng = np.random.default_rng(9)
    cw = encode(bch63, rng.integers(0, 2, 45).astype(np.uint8))
    good = np.where(cw == 0, 0.9, -0.9)
    # a word > t flips away from every codeword in its sphere fails to decode
    bad = good.copy()
    far = rng.choice(63, 25, replace=False)
    bad[far] = -bad[far]
    from hashdec.bch import decode_hard

    assert not decode_hard(bch63, hard_limit(bad)).success
    table = make_ground_truth({1: np.stack([good, bad]), 2: np.stack([bad, bad])}, bch63)
    assert table.failures[1] == 1 and np.array_equal(table.labels[1], cw)
    assert table.excluded == [2]
    assert 2 not in table.labels


def test_ground_truth_empty_subject_rejected(hamming74):
    with pytest.raises(ValueError, match="no samples"):
        make_ground_truth({1: np.zeros((0, 7))}, hamming74)


def test_ground_truth_all_failed_raises(bch63):
    rng = np.random.default_rng(10)
    rows = rng.uniform(-1, 1, (3, 63))
    # craft rows that certainly fail by checking first
    from hashdec.bch import decode_hard

    bad = [r for r in rows if not decode_hard(bch63, hard_limit(r)).success]
    if not bad:
        pytest.skip("random rows all decoded (astronomically unlikely)")
    with pytest.raises(RuntimeError, match="every subject"):
        make_ground_truth({1: np.stack(bad)}, bch63)


def test_ground_truth_table_round_trip(tmp_path, hamming74, bch63):
    cw = encode(hamming74, np.array([1, 1, 0, 0], dtype=np.uint8))
    table = make_ground_truth({4: np.stack([_acts_for(hamming74, cw)] * 3)}, hamming74)
    table.excluded.append(9)
    table.fingerprint = "6f84bf01455adfae"
    path = tmp_path / "gt.txt"
    table.save(path)
    loaded = GroundTruthTable.load(path)
    assert np.array_equal(loaded.labels[4], cw)
    assert loaded.support[4] == 3 and loaded.failures[4] == 0
    assert loaded.excluded == [9] and loaded.n == 7
    assert loaded.fingerprint == "6f84bf01455adfae"
    # the fingerprint is the last line: a file cut at a line boundary has none
    lines = path.read_text().splitlines()
    assert lines[-1] == "fingerprint 6f84bf01455adfae"
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert GroundTruthTable.load(path).fingerprint is None

    # failure counts and totals, an excluded subject's included, survive too
    rng = np.random.default_rng(9)
    cw63 = encode(bch63, rng.integers(0, 2, 45).astype(np.uint8))
    good = np.where(cw63 == 0, 0.9, -0.9)
    bad = good.copy()
    far = rng.choice(63, 25, replace=False)
    bad[far] = -bad[far]
    table = make_ground_truth({1: np.stack([good, good, bad]), 2: np.stack([bad, bad])}, bch63)
    assert table.excluded == [2] and table.failure_rate == 3 / 5
    table.save(path)
    loaded = GroundTruthTable.load(path)
    assert loaded.failure_rate == table.failure_rate
    assert loaded.totals == {1: 3, 2: 2} and loaded.failures == {1: 1, 2: 2}
    assert loaded.excluded == [2] and set(loaded.labels) == {1}
    assert np.array_equal(loaded.labels[1], cw63) and loaded.support == {1: 2}


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
