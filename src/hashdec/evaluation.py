"""Authentication and identification metrics over binary codes.

Scores are integer Hamming distances; acceptance means distance <= threshold,
so FAR and GAR are non-decreasing step functions over the integer threshold
sweep and the EER comes from linear interpolation at the FAR/FRR crossing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import write_lines

def hamming(a, b):
    """Number of differing positions between two equal-length bit vectors."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def pack_codes(codes):
    """Each code's bits packed into uint64 words, zero-padded to a whole word."""
    packed = np.packbits(np.asarray(codes, dtype=np.uint8), axis=1)
    words = np.zeros((packed.shape[0], -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


PAIRWISE_ROWS = 256  # rows of ``codes_a`` per block: bounds each XOR temporary


def pairwise_hamming(codes_a, codes_b):
    """Distance matrix between two stacks of equal-length codes, as uint16:
    no code length that ``gf2m`` allows exceeds 1023 bits.

    Word by word, the popcount of the XOR of two codes' words is added to
    their distance; the zero padding never differs.
    """
    pa, pb = pack_codes(codes_a), pack_codes(codes_b)
    out = np.zeros((pa.shape[0], pb.shape[0]), dtype=np.uint16)
    for i in range(0, pa.shape[0], PAIRWISE_ROWS):
        block = out[i : i + PAIRWISE_ROWS]
        for w in range(pa.shape[1]):
            block += np.bitwise_count(pa[i : i + PAIRWISE_ROWS, w, None] ^ pb[:, w])
    return out


def score_protocol(codes_by_subject, n_subjects, samples_per_subject):
    """The (genuine, impostor) distances of all intra-subject and all
    inter-subject unordered pairs: Nt(t-1)/2 and N(N-1)t^2/2 of them.

    ``codes_by_subject`` maps subject -> (t, n) bit array; every subject must
    contribute exactly ``samples_per_subject`` codes.
    """
    subjects = sorted(codes_by_subject)
    if len(subjects) != n_subjects:
        raise ValueError(f"expected {n_subjects} subjects, got {len(subjects)}")
    stacks = []
    for s in subjects:
        codes = np.asarray(codes_by_subject[s], dtype=np.uint8)
        if codes.ndim != 2 or codes.shape[0] != samples_per_subject:
            raise ValueError(
                f"subject {s} has {np.atleast_2d(codes).shape[0]} codes, "
                f"expected {samples_per_subject}"
            )
        stacks.append(codes)
    codes = np.concatenate(stacks)
    dist = pairwise_hamming(codes, codes)
    # each subject owns a run of t rows; pairs are listed in row-major order
    # of the upper triangle, genuine pairs inside a run and impostors past it
    owner = np.repeat(np.arange(n_subjects), samples_per_subject)
    rows, cols = np.triu_indices(samples_per_subject, k=1)
    first = samples_per_subject * np.arange(n_subjects)[:, None]
    genuine = dist[first + rows, first + cols].ravel()
    impostor = dist[owner[:, None] < owner[None, :]]
    return genuine, impostor


@dataclass
class RocCurve:
    """(threshold, FAR, GAR) over every integer threshold from -1 to n."""

    thresholds: np.ndarray
    far: np.ndarray
    gar: np.ndarray


def roc_and_eer(genuine, impostor, n):
    """Threshold sweep plus the interpolated equal error rate.

    FAR(tau) is the fraction of impostor scores <= tau, GAR likewise for
    genuine scores, FRR = 1 - GAR. The EER interpolates linearly between the
    two adjacent integer thresholds where FAR - FRR changes sign.
    """
    gen, imp = np.sort(genuine), np.sort(impostor)
    if gen.size == 0 or imp.size == 0:
        raise ValueError("roc_and_eer requires nonempty genuine and impostor score lists")
    gar, far = _share_at_or_below(gen, n), _share_at_or_below(imp, n)
    frr = 1.0 - gar
    f = far - frr
    idx = int(np.argmax(f >= 0.0))  # f(-1) = -1, f(n) = +1: a crossing always exists
    lam = -f[idx - 1] / (f[idx] - f[idx - 1])
    eer = far[idx - 1] + lam * (far[idx] - far[idx - 1])
    return RocCurve(np.arange(-1, n + 1), far, gar), float(eer)


def _share_at_or_below(sorted_scores, n):
    """The share of the sorted integer scores <= tau for each tau from -1 to n.
    The grid takes the scores' dtype, so a uint16 list is searched, not widened."""
    grid = np.arange(n + 1, dtype=sorted_scores.dtype)
    count = np.concatenate((np.searchsorted(sorted_scores, grid[:1]),
                            np.searchsorted(sorted_scores, grid, side="right")))
    return count / sorted_scores.size


def gar_at_far(roc: RocCurve, far_target):
    """GAR at the largest threshold whose FAR does not exceed the target."""
    if not 0.0 < far_target < 1.0:
        raise ValueError(f"far_target must lie in (0, 1), got {far_target}")
    idx = int(np.searchsorted(roc.far, far_target, side="right")) - 1
    return float(roc.gar[max(idx, 0)])


def identification_accuracy(probe_codes, probe_subjects, enrolled_codes, enrolled_subjects):
    """Closed-set identification: nearest enrolled code wins, ties to lowest id."""
    probe_subjects = np.asarray(probe_subjects)
    enrolled_subjects = np.asarray(enrolled_subjects)
    uniq, counts = np.unique(enrolled_subjects, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"duplicate enrolled subject ids: {uniq[counts > 1].tolist()}")
    missing = np.setdiff1d(probe_subjects, enrolled_subjects)
    if missing.size:
        raise ValueError(f"probe subjects not enrolled: {missing[:5].tolist()}")
    order = np.argsort(enrolled_subjects)
    enrolled_codes = np.asarray(enrolled_codes, dtype=np.uint8)[order]
    enrolled_subjects = enrolled_subjects[order]
    dist = pairwise_hamming(probe_codes, enrolled_codes)
    predicted = enrolled_subjects[np.argmin(dist, axis=1)]  # argmin: first = lowest id
    return float(np.mean(predicted == probe_subjects))


def bench_authentication(authenticate, queries, repetitions):
    """Wall-clock statistics for single end-to-end authentications, as the
    ``latency_*`` report keys (milliseconds, and the repetition count).

    ``authenticate`` is a callable taking one element of ``queries``;
    repetitions cycle through the query list.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if not queries:
        raise ValueError("bench_authentication needs at least one query")
    times = np.empty(repetitions)
    for i in range(repetitions):
        q = queries[i % len(queries)]
        t0 = time.perf_counter()
        authenticate(q)
        times[i] = (time.perf_counter() - t0) * 1e3
    return {"latency_mean_ms": float(times.mean()), "latency_median_ms": float(np.median(times)),
            "latency_p95_ms": float(np.percentile(times, 95)), "latency_repetitions": repetitions}


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def write_metrics(path, mapping):
    """Key/value metrics document; floats use shortest round-trip repr."""
    lines = ["# hashdec metrics v1"]
    for key in sorted(mapping):
        value = mapping[key]
        lines.append(f"{key} {float(value)!r}" if isinstance(value, float) else f"{key} {value}")
    write_lines(path, lines)


def read_metrics(path):
    out = {}
    with open(path) as fh:
        for ln in fh:
            if ln.startswith("#") or not ln.strip():
                continue
            key, value = ln.rstrip("\n").split(" ", 1)
            try:
                out[key] = int(value)
            except ValueError:
                try:
                    out[key] = float(value)
                except ValueError:
                    out[key] = value
    return out


def write_roc_csv(path, roc: RocCurve):
    rows = zip(roc.thresholds, roc.far, roc.gar)
    write_lines(path, ["threshold,far,gar"] + [f"{int(t)},{float(fa)!r},{float(ga)!r}"
                                               for t, fa, ga in rows])
