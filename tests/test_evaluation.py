import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hashdec.evaluation import (
    RocCurve,
    bench_authentication,
    gar_at_far,
    hamming,
    identification_accuracy,
    pairwise_hamming,
    read_metrics,
    roc_and_eer,
    score_protocol,
    write_metrics,
    write_roc_csv,
)


def sweep_oracle(genuine, impostor, n):
    """Independent threshold sweep: explicit counting loops plus the
    documented linear interpolation at the FAR/FRR sign change."""
    points = []
    for tau in range(-1, n + 1):
        far = sum(1 for s in impostor if s <= tau) / len(impostor)
        gar = sum(1 for s in genuine if s <= tau) / len(genuine)
        points.append((tau, far, 1.0 - gar))
    for (t0, far0, frr0), (t1, far1, frr1) in zip(points, points[1:]):
        f0, f1 = far0 - frr0, far1 - frr1
        if f0 < 0.0 <= f1:
            lam = -f0 / (f1 - f0)
            return far0 + lam * (far1 - far0)
    raise AssertionError("no crossing found")


def test_hamming_basics():
    a = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert hamming(a, a) == 0
    assert hamming(a, a ^ 1) == 4
    big = np.zeros(63, dtype=np.uint8)
    assert hamming(big, big ^ 1) == 63


def test_hamming_matches_naive_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 2, 255).astype(np.uint8)
        b = rng.integers(0, 2, 255).astype(np.uint8)
        naive = sum(int(x != y) for x, y in zip(a, b))
        assert hamming(a, b) == naive


def test_hamming_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        hamming(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))


def test_pairwise_matches_scalar():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, (5, 63)).astype(np.uint8)
    b = rng.integers(0, 2, (7, 63)).astype(np.uint8)
    d = pairwise_hamming(a, b)
    for i in range(5):
        for j in range(7):
            assert d[i, j] == hamming(a[i], b[j])


@pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 127, 255])
def test_pairwise_matches_hamming_loop_at_word_and_chunk_edges(n):
    # codes of one or more 64-bit words, padded or not; stacks of 0 and 1
    # rows and of either side of a PAIRWISE_ROWS block
    rng = np.random.default_rng(n)
    b = rng.integers(0, 2, (5, n)).astype(np.uint8)
    for rows in (0, 1, 256, 257):
        a = rng.integers(0, 2, (rows, n)).astype(np.uint8)
        d = pairwise_hamming(a, b)
        assert d.dtype == np.uint16 and d.shape == (rows, 5)
        assert d.tolist() == [[hamming(x, y) for y in b] for x in a]
    assert pairwise_hamming(b, b[:0]).shape == (5, 0)
    assert pairwise_hamming(b[:1], b[:1]).tolist() == [[0]]


def test_score_protocol_lists_pairs_in_row_major_order():
    # the reference walks the upper triangle of the stacked codes row by row
    rng = np.random.default_rng(4)
    t = 4
    codes = {s: rng.integers(0, 2, (t, 65)).astype(np.uint8) for s in (9, 2, 5)}
    stacked = np.concatenate([codes[s] for s in sorted(codes)])
    owner = np.repeat(sorted(codes), t)
    genuine, impostor = [], []
    for i in range(len(stacked)):
        for j in range(i + 1, len(stacked)):
            (genuine if owner[i] == owner[j] else impostor).append(hamming(stacked[i], stacked[j]))
    got_genuine, got_impostor = score_protocol(codes, 3, t)
    assert got_genuine.tolist() == genuine
    assert got_impostor.tolist() == impostor
    assert got_genuine.dtype == got_impostor.dtype == np.uint16


def test_score_protocol_closed_form_counts():
    rng = np.random.default_rng(2)
    codes = {s: rng.integers(0, 2, (20, 63)).astype(np.uint8) for s in range(70)}
    genuine, impostor = score_protocol(codes, 70, 20)
    assert genuine.size == 13_300
    assert impostor.size == 966_000


def test_score_protocol_hand_case():
    z = np.zeros(4, dtype=np.uint8)
    o = np.ones(4, dtype=np.uint8)
    codes = {0: np.stack([z, z]), 1: np.stack([o, o])}
    genuine, impostor = score_protocol(codes, 2, 2)
    assert sorted(genuine.tolist()) == [0, 0]
    assert sorted(impostor.tolist()) == [4, 4, 4, 4]


def test_score_protocol_single_subject_has_no_impostors():
    codes = {0: np.zeros((3, 8), dtype=np.uint8)}
    genuine, impostor = score_protocol(codes, 1, 3)
    assert genuine.size == 3 and impostor.size == 0


def test_score_protocol_rejects_ragged_input():
    codes = {0: np.zeros((3, 8), dtype=np.uint8), 1: np.zeros((2, 8), dtype=np.uint8)}
    with pytest.raises(ValueError, match="expected 3"):
        score_protocol(codes, 2, 3)
    with pytest.raises(ValueError, match="subjects"):
        score_protocol(codes, 3, 3)


def test_eer_perfect_separation():
    roc, eer = roc_and_eer(np.zeros(6, dtype=int), np.full(12, 20, dtype=int), 20)
    assert eer == 0.0
    assert roc.far[0] == 0.0 and roc.gar[-1] == 1.0


def test_eer_identical_distributions():
    rng = np.random.default_rng(3)
    base = rng.integers(0, 21, 100)
    # identical genuine and impostor distributions cross at 0.5
    _, eer = roc_and_eer(base, base.copy(), 20)
    assert eer == pytest.approx(0.5, abs=0.01)


def test_eer_hand_case_frozen():
    # genuine {1,1,3}, impostor {2,4,4,5}: crossing between tau=2 and tau=3
    # interpolates to exactly 1/4 (computed with the sweep oracle)
    genuine = np.array([1, 1, 3])
    impostor = np.array([2, 4, 4, 5])
    _, eer = roc_and_eer(genuine, impostor, 6)
    oracle = sweep_oracle(genuine.tolist(), impostor.tolist(), 6)
    assert eer == pytest.approx(0.25, abs=1e-12)
    assert eer == pytest.approx(oracle, abs=1e-12)


def test_eer_monotone_curves():
    rng = np.random.default_rng(4)
    roc, _ = roc_and_eer(rng.integers(0, 10, 6), rng.integers(5, 30, 12), 30)
    assert np.all(np.diff(roc.far) >= 0)
    assert np.all(np.diff(roc.gar) >= 0)
    assert roc.thresholds[0] == -1 and roc.thresholds[-1] == 30


def test_roc_is_the_same_bytes_for_int64_and_uint16_scores():
    rng = np.random.default_rng(6)
    genuine = rng.integers(0, 20, 300)
    impostor = rng.integers(10, 64, 2_000)
    wide, eer_wide = roc_and_eer(genuine, impostor, 63)
    narrow, eer_narrow = roc_and_eer(genuine.astype(np.uint16), impostor.astype(np.uint16), 63)
    for field in ("thresholds", "far", "gar"):
        a, b = getattr(wide, field), getattr(narrow, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert eer_wide == eer_narrow


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_eer_matches_sweep_oracle(data):
    n = data.draw(st.integers(4, 40))
    genuine = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=60))
    impostor = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=60))
    _, eer = roc_and_eer(genuine, impostor, n)
    assert eer == pytest.approx(sweep_oracle(genuine, impostor, n), abs=1e-12)
    assert 0.0 <= eer <= 1.0


def test_eer_symmetry_under_reflection():
    rng = np.random.default_rng(5)
    n = 24
    genuine = rng.integers(0, 8, 40)
    impostor = rng.integers(6, n + 1, 40)
    _, e1 = roc_and_eer(genuine, impostor, n)
    _, e2 = roc_and_eer(n - impostor, n - genuine, n)
    assert e1 == pytest.approx(e2, abs=1e-12)


def test_roc_requires_nonempty_lists():
    with pytest.raises(ValueError, match="nonempty"):
        roc_and_eer(np.array([1]), np.array([], dtype=int), 4)


def test_gar_at_far_rules():
    genuine = np.array([1, 1, 3])
    impostor = np.array([2, 4, 4, 5])
    roc, _ = roc_and_eer(genuine, impostor, 6)
    # largest threshold with FAR <= 0.25 is tau=3, where GAR = 1
    assert gar_at_far(roc, 0.25) == 1.0
    assert gar_at_far(roc, 0.999) == 1.0  # target above max achievable FAR
    perfect = RocCurve(np.arange(-1, 3), np.array([0.0, 0.0, 0.5, 1.0]),
                       np.array([0.0, 1.0, 1.0, 1.0]))
    assert gar_at_far(perfect, 0.01) == 1.0
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        gar_at_far(roc, 1.0)


def test_identification_exact_match():
    rng = np.random.default_rng(6)
    enrolled = rng.integers(0, 2, (5, 31)).astype(np.uint8)
    ids = np.arange(5) * 3
    acc = identification_accuracy(enrolled, ids, enrolled, ids)
    assert acc == 1.0


def test_identification_tie_goes_to_lowest_id():
    e = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.uint8)
    probe = np.array([[1, 1, 0, 0]], dtype=np.uint8)  # distance 2 to both
    assert identification_accuracy(probe, np.array([4]), e, np.array([4, 9])) == 1.0
    assert identification_accuracy(probe, np.array([9]), e, np.array([4, 9])) == 0.0


def test_identification_random_codes_near_half():
    rng = np.random.default_rng(7)
    enrolled = rng.integers(0, 2, (2, 63)).astype(np.uint8)
    probes = rng.integers(0, 2, (10_000, 63)).astype(np.uint8)
    truth = rng.integers(0, 2, 10_000) * 7  # ids {0, 7}
    acc = identification_accuracy(probes, truth, enrolled, np.array([0, 7]))
    assert acc == pytest.approx(0.5, abs=3 * 0.005)


def test_identification_probe_order_invariance():
    rng = np.random.default_rng(8)
    enrolled = rng.integers(0, 2, (6, 15)).astype(np.uint8)
    ids = np.arange(6)
    probes = rng.integers(0, 2, (40, 15)).astype(np.uint8)
    truth = rng.integers(0, 6, 40)
    a = identification_accuracy(probes, truth, enrolled, ids)
    perm = rng.permutation(40)
    b = identification_accuracy(probes[perm], truth[perm], enrolled, ids)
    assert a == b


def test_identification_validates_inputs():
    e = np.zeros((2, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="duplicate"):
        identification_accuracy(e, np.array([1, 1]), e, np.array([3, 3]))
    with pytest.raises(ValueError, match="not enrolled"):
        identification_accuracy(e[:1], np.array([9]), e, np.array([1, 2]))


def test_bench_authentication():
    calls = []
    stats = bench_authentication(lambda q: calls.append(q), ["a", "b"], repetitions=10)
    assert stats["latency_repetitions"] == 10 and len(calls) == 10
    assert stats["latency_mean_ms"] >= 0.0
    assert stats["latency_p95_ms"] >= stats["latency_median_ms"] >= 0.0
    with pytest.raises(ValueError, match="repetitions"):
        bench_authentication(lambda q: None, ["a"], repetitions=0)
    with pytest.raises(ValueError, match="query"):
        bench_authentication(lambda q: None, [], repetitions=3)


def test_metrics_file_round_trip(tmp_path):
    metrics = {"eer": 0.012345678901234567, "variant": "mdhnd", "latency_mean_ms": 1.25,
               "latency_median_ms": 1.0, "latency_p95_ms": 2.5, "latency_repetitions": 100}
    path = tmp_path / "metrics.txt"
    write_metrics(path, metrics)
    loaded = read_metrics(path)
    assert loaded["eer"] == metrics["eer"]
    assert loaded["variant"] == "mdhnd"
    assert loaded["latency_repetitions"] == 100


def test_roc_csv_format(tmp_path):
    roc = RocCurve(np.array([-1, 0, 1]), np.array([0.0, 0.25, 1.0]), np.array([0.0, 0.5, 1.0]))
    path = tmp_path / "roc.csv"
    write_roc_csv(path, roc)
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,far,gar"
    assert lines[1] == "-1,0.0,0.0"
    assert len(lines) == 4
