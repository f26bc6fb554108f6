"""Acceptance criteria for the complete system, one test per criterion.

Each test prints a [PASS] line with its headline measurement; run with -s
(or read captured output) for the full report. The heavy end-to-end runs
are shared through session-scoped fixtures.
"""

import filecmp
import glob
import os
import time
from pathlib import Path

import numpy as np
import pytest

from hashdec import autodiff as ad
from hashdec.autodiff import Tensor, gradient_check
from hashdec.bch import brute_force_ml_decode, build_code, decode_hard, encode
from hashdec.config import ExperimentConfig
from hashdec.evaluation import read_metrics, roc_and_eer, score_protocol
from hashdec.mdh import MdhModel, total_loss
from hashdec.nnd import NndModel, pretrain_awgn, sigma_from_snr_db
from hashdec.pipeline import run_all, stage_bench
from hashdec.tanner import TannerGraph, decode_bp_batch

from test_evaluation import sweep_oracle

pytestmark = pytest.mark.acceptance

SEEDS = (42, 43, 44)
SLACK = 0.001  # 0.1 percentage points


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    """Default-config pipelines for three seeds plus unimodal arms."""
    root = tmp_path_factory.mktemp("bench")
    runs = {}
    for seed in SEEDS:
        cfg = ExperimentConfig(seed=seed)
        run_dir = str(root / f"multi_{seed}")
        runs[("multi", seed)] = (cfg, run_dir, run_all(cfg, run_dir))
        for mode in ("face", "iris"):
            ucfg = ExperimentConfig(seed=seed, fusion_mode=mode)
            udir = str(root / f"{mode}_{seed}")
            runs[(mode, seed)] = (ucfg, udir, run_all(ucfg, udir))
    return runs


@pytest.fixture(scope="session")
def noiseless_run(tmp_path_factory):
    cfg = ExperimentConfig(seed=SEEDS[0], sigma_face=0.0, sigma_iris=0.0,
                           gain_jitter=0.0, offset_sigma=0.0)
    run_dir = str(tmp_path_factory.mktemp("noiseless"))
    return cfg, run_dir, run_all(cfg, run_dir)


def test_criterion_1_protocol_counts(benchmark_runs):
    t0 = time.time()
    rng = np.random.default_rng(0)
    codes = {s: rng.integers(0, 2, (20, 63)).astype(np.uint8) for s in range(70)}
    genuine, impostor = score_protocol(codes, 70, 20)
    elapsed = time.time() - t0
    assert genuine.size == 13_300
    assert impostor.size == 966_000
    assert elapsed < 10.0
    # the real benchmark evaluation must produce the same counts
    for _, _, results in (benchmark_runs[("multi", SEEDS[0])],):
        m = results[("auth", "mdhnd")]
        assert m["genuine_count"] == 13_300 and m["impostor_count"] == 966_000
    _report(1, f"13300 genuine / 966000 impostor scores in {elapsed:.2f}s")


def test_criterion_2_bch_codec_correctness():
    t0 = time.time()
    rng = np.random.default_rng(1)
    for m, t in ((6, 3), (7, 6), (8, 9)):
        code = build_code(m, t)
        msgs = rng.integers(0, 2, (64, code.k)).astype(np.uint8)
        words = [encode(code, msg) for msg in msgs]
        for i in range(10_000):
            cw = words[i % 64]
            weight = rng.integers(0, code.t + 1)
            err = rng.choice(code.n, weight, replace=False)
            rx = cw.copy()
            rx[err] ^= 1
            res = decode_hard(code, rx)
            assert res.success and np.array_equal(res.codeword, cw)
            assert res.errors_corrected == weight
    # exhaustive oracle agreement on BCH(15,7) for every weight <= 2 pattern
    code = build_code(4, 2)
    patterns = [np.zeros(15, dtype=np.uint8)]
    for i in range(15):
        p = np.zeros(15, dtype=np.uint8)
        p[i] = 1
        patterns.append(p)
        for j in range(i + 1, 15):
            q = p.copy()
            q[j] = 1
            patterns.append(q)
    for cw in code.all_codewords():
        for p in patterns:
            rx = cw ^ p
            res = decode_hard(code, rx)
            assert res.success
            assert np.array_equal(res.codeword, brute_force_ml_decode(code, rx))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(2, f"3x10^4 bounded-error decodes + 15488 oracle decodes in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_2_slow_tier_bch_511():
    code = build_code(9, 15)
    assert (code.n, code.k) == (511, 376)
    rng = np.random.default_rng(2)
    msgs = rng.integers(0, 2, (32, code.k)).astype(np.uint8)
    words = [encode(code, msg) for msg in msgs]
    for i in range(10_000):
        cw = words[i % 32]
        err = rng.choice(code.n, rng.integers(0, code.t + 1), replace=False)
        rx = cw.copy()
        rx[err] ^= 1
        res = decode_hard(code, rx)
        assert res.success and np.array_equal(res.codeword, cw)
    _report("2 (slow)", "BCH(511,376): 10^4 bounded-error decodes all corrected")


def test_criterion_3_untrained_decoder_equals_bp():
    # decode_bp_batch and the untrained model both run bp_forward at unit
    # weights, so this pins NndModel.decode's plumbing; test_tanner shows unit
    # weights equal the unweighted per-op chain bit for bit
    t0 = time.time()
    code = build_code(6, 3)
    graph = TannerGraph(code.parity_check_matrix)
    model = NndModel(code, iterations=5)
    rng = np.random.default_rng(3)
    for sigma in (0.5, 0.8):
        msgs = rng.integers(0, 2, (1000, code.k)).astype(np.uint8)
        words = np.stack([encode(code, m) for m in msgs])
        noise = rng.standard_normal(words.shape)
        llrs = 2.0 * ((1.0 - 2.0 * words) + sigma * noise) / sigma**2
        hard_bp, _ = decode_bp_batch(graph, llrs, iterations=5)
        assert np.array_equal(model.decode(llrs), hard_bp)
    ham = build_code(3, 1)
    hgraph = TannerGraph(ham.parity_check_matrix)
    hmodel = NndModel(ham, iterations=5)
    grid = np.array(np.meshgrid(*[[-8.0, -0.5, 0.5, 8.0]] * 7)).reshape(7, -1).T
    hard_bp, _ = decode_bp_batch(hgraph, grid, iterations=5)
    assert np.array_equal(hmodel.decode(grid), hard_bp)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(3, f"hard decisions identical on 2000 AWGN words + {grid.shape[0]}-point grid "
               f"in {elapsed:.1f}s")


def test_criterion_4_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0

    # primitives on random inputs
    x = rng.uniform(-2, 2, (3, 4))
    c = Tensor(rng.uniform(-2, 2, (3, 4)))
    prims = [
        lambda t: ad.tensor_sum(ad.square(ad.add(t, c))),
        lambda t: ad.tensor_sum(ad.mul(t, c)),
        lambda t: ad.tensor_sum(ad.scaled_tanh(t, 2.5)),
        lambda t: ad.tensor_sum(ad.sigmoid(t)),
        lambda t: ad.mean(ad.square(t)),
        lambda t: ad.sum_sq(t),
        lambda t: ad.tensor_sum(ad.square(ad.take(t, np.array([0, 2, 1, 2])))),
        lambda t: ad.tensor_sum(ad.square(ad.segment_sum(t, np.array([1, 0, 1]), 2))),
    ]
    for f in prims:
        worst = max(worst, gradient_check(f, [Tensor(x.copy())]).max_relative_error)

    logits = rng.standard_normal((3, 4))
    labels = np.eye(4)[rng.integers(0, 4, 3)]
    worst = max(worst, gradient_check(
        lambda t: ad.softmax_cross_entropy(t, Tensor(labels)), [Tensor(logits)]
    ).max_relative_error)
    probs = rng.uniform(0.1, 0.9, 10)
    bits = rng.integers(0, 2, 10).astype(float)
    worst = max(worst, gradient_check(
        lambda t: ad.binary_cross_entropy(t, Tensor(bits)), [Tensor(probs)]
    ).max_relative_error)
    worst = max(worst, gradient_check(
        lambda a, b: ad.tensor_sum(ad.square(ad.outer_product(a, b))),
        [Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(4))],
    ).max_relative_error)

    # both full fusion paths through the composite loss
    for mode in ("fca", "bla"):
        model = MdhModel(mode, 4, 4, 3, 5, feature_dim=2, fusion_dim=4, hidden=(3,), seed=5)
        face, iris = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        y = np.eye(3)[[1, 2]]

        def full_path(*params):
            acts, logits = model.forward(face, iris)
            loss, _ = total_loss(logits, acts, Tensor(y), model.weight_tensors(),
                                 ExperimentConfig())
            return loss

        worst = max(worst, gradient_check(
            full_path, list(model.parameters().values())
        ).max_relative_error)

    # decoder loss w.r.t. every weight class
    ham = build_code(3, 1)
    nnd_model = NndModel(ham, iterations=3)
    llr = rng.uniform(-3, 3, (4, 7))
    targets = rng.integers(0, 2, (4, 7)).astype(float)

    def nnd_loss(*params):
        return ad.binary_cross_entropy(nnd_model.forward(llr), Tensor(targets))

    worst = max(worst, gradient_check(
        nnd_loss, list(nnd_model.parameters().values())
    ).max_relative_error)

    elapsed = time.time() - t0
    assert worst < 1e-4
    assert elapsed < 60.0
    _report(4, f"max relative gradient error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_5_hashing_saturation_and_balance(benchmark_runs):
    import json

    _, run_dir, _ = benchmark_runs[("multi", SEEDS[0])]
    summary = json.loads(Path(run_dir, "mdh_log.jsonl").read_text().splitlines()[-1])
    assert summary["saturation"] >= 0.95
    assert summary["balance_per_bit_mean"] <= 0.2
    assert summary["balance_per_sample_max"] <= 0.2
    _report(5, f"saturation {summary['saturation']:.3f}, per-bit mean balance "
               f"{summary['balance_per_bit_mean']:.3f}, per-sample balance "
               f"{summary['balance_per_sample_max']:.3f}")


def test_benchmark_operating_point(benchmark_runs):
    """The default distortion places matched-pair code distances near the
    correction radius t = 3 (frozen from the tuning sweep: mean ~3.3, 58%
    of pairs within t, 87% within 2t)."""
    from hashdec.biodata import load_dataset
    from hashdec.evaluation import pairwise_hamming
    from hashdec.nnd import hard_limit
    from hashdec.pipeline import load_models

    cfg, run_dir, _ = benchmark_runs[("multi", SEEDS[0])]
    model, _ = load_models(os.path.join(run_dir, "mdh.ckpt"), cfg,
                           build_code(cfg.code_m, cfg.code_t))
    test = load_dataset(os.path.join(run_dir, "data.ckpt"))[0]["test"]
    probe = test.select(test.role == "probe")
    with ad.no_grad():
        acts, _ = model.forward(probe.face, probe.iris)
    codes = hard_limit(acts.data)
    dists = []
    for s in np.unique(probe.subject):
        c = codes[probe.subject == s]
        iu = np.triu_indices(c.shape[0], 1)
        dists.extend(pairwise_hamming(c, c)[iu].tolist())
    dists = np.asarray(dists)
    assert 1.5 <= dists.mean() <= 4.5
    assert np.mean(dists <= 3) >= 0.5
    assert np.mean(dists <= 6) >= 0.8


def test_criterion_6_ablation_ladder(benchmark_runs):
    eers = {v: [] for v in ("mdh", "ext", "nnd", "mdhnd")}
    uni = []
    for seed in SEEDS:
        _, _, results = benchmark_runs[("multi", seed)]
        for v in eers:
            eers[v].append(results[("auth", v)]["eer"])
        uni.append(min(
            benchmark_runs[("face", seed)][2][("auth", "mdh")]["eer"],
            benchmark_runs[("iris", seed)][2][("auth", "mdh")]["eer"],
        ))
    med = {v: float(np.median(e)) for v, e in eers.items()}
    best_uni = float(np.median(uni))
    assert med["mdhnd"] <= med["nnd"] + SLACK
    assert med["nnd"] <= med["ext"] + SLACK
    assert med["ext"] <= med["mdh"] + SLACK
    assert med["mdhnd"] < best_uni
    _report(6, "median EER ladder "
               f"mdhnd={med['mdhnd']:.4%} <= nnd={med['nnd']:.4%} <= "
               f"ext={med['ext']:.4%} <= mdh={med['mdh']:.4%} (0.1pp slack); "
               f"multimodal {med['mdhnd']:.4%} < best unimodal {best_uni:.4%}")


def test_criterion_7_pretraining_benefit():
    t0 = time.time()
    code = build_code(6, 3)
    graph = TannerGraph(code.parity_check_matrix)
    snrs = (2.0, 4.0, 6.0)
    cfg = ExperimentConfig(nnd_snr_range_db=snrs, nnd_batch_size=64, nnd_pretrain_steps=300)
    model, _ = pretrain_awgn(NndModel(code, iterations=5), cfg, seed=7)
    rate = code.k / code.n
    rng = np.random.default_rng(8)
    words = 100_000
    lines = []
    for snr in snrs:
        sigma = sigma_from_snr_db(snr, rate)
        bits_bp = 0
        bits_nnd = 0
        for start in range(0, words, 2000):
            count = min(2000, words - start)
            llrs = 2.0 * (1.0 + sigma * rng.standard_normal((count, code.n))) / sigma**2
            hard_bp, _ = decode_bp_batch(graph, llrs, iterations=5)
            bits_bp += int(hard_bp.sum())
            bits_nnd += int(model.decode(llrs).sum())
        total_bits = words * code.n
        ber_bp = bits_bp / total_bits
        ber_nnd = bits_nnd / total_bits
        se = np.sqrt(max(ber_bp * (1.0 - ber_bp), 1e-12) / total_bits)
        assert ber_nnd <= ber_bp + 3.0 * se, (snr, ber_nnd, ber_bp, se)
        lines.append(f"{snr:g}dB {ber_nnd:.2e}<= {ber_bp:.2e}+3se")
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(7, f"pretrained decoder BER within 3 SE of BP at every trained SNR "
               f"({'; '.join(lines)}) in {elapsed:.0f}s")


def test_criterion_8_identification(benchmark_runs, noiseless_run):
    accs = {"mdh": [], "mdhnd": []}
    for seed in SEEDS:
        _, _, results = benchmark_runs[("multi", seed)]
        for v in accs:
            accs[v].append(results[("ident", v)]["identification_accuracy"])
    med_mdh = float(np.median(accs["mdh"]))
    med_mdhnd = float(np.median(accs["mdhnd"]))
    assert med_mdhnd >= med_mdh
    _, _, clean = noiseless_run
    assert clean[("ident", "mdhnd")]["identification_accuracy"] == 1.0
    assert clean[("ident", "mdh")]["identification_accuracy"] == 1.0
    _report(8, f"identification mdhnd={med_mdhnd:.4f} >= mdh={med_mdh:.4f}; "
               f"noiseless accuracy 1.0")


def test_criterion_9_roc_eer_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(4, 64))
        genuine = rng.integers(0, n + 1, int(rng.integers(1, 50)))
        impostor = rng.integers(0, n + 1, int(rng.integers(1, 50)))
        _, eer = roc_and_eer(genuine, impostor, n)
        assert abs(eer - sweep_oracle(genuine.tolist(), impostor.tolist(), n)) < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(9, f"100 randomized score sets match the sweep oracle to 1e-12 in {elapsed:.1f}s")


def test_criterion_10_pipeline_determinism(benchmark_runs, tmp_path_factory):
    cfg, first_dir, _ = benchmark_runs[("multi", SEEDS[0])]
    second_dir = str(tmp_path_factory.mktemp("determinism"))
    run_all(ExperimentConfig(seed=SEEDS[0]), second_dir)
    compared = 0
    for path in sorted(glob.glob(os.path.join(first_dir, "metrics_*.txt"))):
        name = os.path.basename(path)
        assert filecmp.cmp(path, os.path.join(second_dir, name), shallow=False), name
        compared += 1
    for name in ("roc_auth_mdh.csv", "roc_auth_mdhnd.csv", "ground_truth.ckpt",
                 "data.ckpt"):
        assert filecmp.cmp(os.path.join(first_dir, name),
                           os.path.join(second_dir, name), shallow=False), name
        compared += 1
    assert compared >= 10
    _report(10, f"{compared} metrics/ROC/ground-truth/data files bitwise identical across two runs")


def _latency_for_code(m, t, repetitions=100):
    """Per-authentication wall time for one code size; weights untrained
    (timing does not depend on the weight values)."""
    from hashdec.evaluation import bench_authentication, hamming
    from hashdec.nnd import llr_from_activations

    code = build_code(m, t)
    mdh = MdhModel("bla", 64, 64, 8, code.n, feature_dim=16, fusion_dim=128,
                   hidden=(128, 64), seed=0)
    mdh.discard_head()
    nndm = NndModel(code, iterations=5)
    rng = np.random.default_rng(m)
    queries = [(rng.standard_normal(64), rng.standard_normal(64),
                rng.integers(0, 2, code.n).astype(np.uint8)) for _ in range(8)]

    def authenticate(query):
        face, iris, template = query
        with ad.no_grad():
            acts, _ = mdh.forward(face[None, :], iris[None, :])
        bits = nndm.decode(llr_from_activations(acts.data, 2.0))[0]
        return hamming(bits, template)

    return bench_authentication(authenticate, queries, repetitions)


def test_criterion_11_latency_report(benchmark_runs):
    cfg, run_dir, _ = benchmark_runs[("multi", SEEDS[0])]
    stats = stage_bench(cfg, run_dir, repetitions=50)
    report = read_metrics(os.path.join(run_dir, "bench_mdhnd.txt"))
    for key in ("latency_mean_ms", "latency_median_ms", "latency_p95_ms",
                "latency_repetitions"):
        assert key in report
    lines = [f"trained BCH(63,45) system mean {stats['latency_mean_ms']:.2f} ms"]
    for m, t in ((6, 3), (7, 6), (8, 9)):
        per_code = _latency_for_code(m, t)
        lines.append(f"BCH({(1 << m) - 1},.) mean {per_code['latency_mean_ms']:.2f} ms")
    _report(11, "; ".join(lines) + " - reported, not gated")


@pytest.mark.slow
def test_latency_monotone_in_code_size():
    small = _latency_for_code(6, 3, repetitions=300)
    large = _latency_for_code(8, 9, repetitions=300)
    assert large["latency_mean_ms"] >= small["latency_mean_ms"]
    _report("11 (slow)", f"BCH(255,187) {large['latency_mean_ms']:.2f} ms >= "
                         f"BCH(63,45) {small['latency_mean_ms']:.2f} ms per authentication")
