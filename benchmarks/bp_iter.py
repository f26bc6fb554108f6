"""Time one BP iteration of the learned decoder at n = 63, 127 and 255.

Usage, from the repository root:

    python3 benchmarks/bp_iter.py

Each point of the grid BCH(63,45), BCH(127,85), BCH(255,187) x B = 1, 64,
512 runs in its own child process with ``OPENBLAS_NUM_THREADS=1``. The child
builds the code's ``NndModel`` with every weight moved off one, draws B
seeded AWGN words around the all-zeros codeword and times two operations:

- ``forward``: ``NndModel.decode``, no gradient recorded, so B = 512 runs
  in blocks of ``tanner.DECODE_BLOCK`` words;
- ``forward_backward``: ``NndModel.forward``, the bitwise cross-entropy
  against the all-zeros word and ``GradientTape.backward``.

Each sample repeats the operation until 50 ms have passed and keeps the mean
per call. A point reports the minimum and quartiles of ``REPEATS`` samples,
whole and divided by the decoder's iterations, the minor page faults per call
over the timed samples (a freed and re-faulted heap shows here), the child's
peak RSS, the frame error rate of the decoded words, and sha256 digests of
the decoded bits and of the weight gradients, which match across commits
that change no arithmetic. The record goes to
``BENCH_<date>_bp_iter_<label>.json`` at the repository root; the label is
the short git sha, with ``-modified`` when ``src/`` differs from that commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CODES = {63: (6, 3), 127: (7, 6), 255: (8, 9)}
BATCHES = (1, 64, 512)
ITERATIONS = 5       # the default config's nnd_iterations
SNR_DB = 3.0         # Eb/N0 of the AWGN words
WEIGHT_JITTER = 0.05
SAMPLE_S = 0.05
REPEATS = 11         # samples per operation
BLAS_THREADS = "1"


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _spread(values):
    """Minimum and quartiles: a slow phase of a shared host moves the
    quartiles, the minimum far less."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"min": float(min(values)), "q1": float(q1), "median": float(median), "q3": float(q3)}


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _sample_ms(op):
    """``REPEATS`` samples of the mean milliseconds per call of ``op``, and the
    minor page faults per call over those samples."""
    op()  # warm-up
    t0 = time.perf_counter()
    op()
    calls = max(1, int(SAMPLE_S / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    faults = _minflt()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            op()
        samples.append(1e3 * (time.perf_counter() - t0) / calls)
    return samples, (_minflt() - faults) / (REPEATS * calls)


def measure_point(n, batch):
    """The record of one grid point, measured in this process."""
    from hashdec import autodiff as ad
    from hashdec.bch import build_code
    from hashdec.nnd import NndModel, sigma_from_snr_db
    from hashdec.tanner import awgn_llr

    code = build_code(*CODES[n])
    rng = np.random.default_rng(n * 1000 + batch)
    model = NndModel(code, ITERATIONS)
    for t in model.parameters().values():
        t.data = t.data * (1.0 + WEIGHT_JITTER * rng.standard_normal(t.data.shape))
    sigma = sigma_from_snr_db(SNR_DB, code.k / code.n)
    llr = awgn_llr(np.zeros((batch, n), dtype=np.uint8), sigma, rng)
    targets = ad.Tensor(np.zeros((batch, n)))

    def forward_backward():
        for t in model.parameters().values():
            t.grad = None
        ad.GradientTape(ad.binary_cross_entropy(model.forward(llr), targets)).backward()

    bits = model.decode(llr)
    forward_backward()
    grads = hashlib.sha256()
    for t in model.parameters().values():
        grads.update(t.grad.tobytes())
    record = {"n": n, "k": code.k, "batch": batch, "iterations": ITERATIONS,
              "frame_error_rate": float(np.mean(bits.any(axis=1))),
              "bits_sha256": hashlib.sha256(bits.tobytes()).hexdigest(),
              "grads_sha256": grads.hexdigest()}
    for name, op in (("forward", lambda: model.decode(llr)), ("forward_backward", forward_backward)):
        samples, faults = _sample_ms(op)
        spread = _spread(samples)
        record[f"{name}_ms"] = spread
        record[f"{name}_per_iter_ms"] = {k: v / ITERATIONS for k, v in spread.items()}
        record[f"{name}_minflt_per_call"] = faults
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--point", nargs=2, type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        print(json.dumps(measure_point(*args.point)))
        return 0

    env = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS, "PYTHONPATH": str(ROOT / "src")}
    points = []
    for n in CODES:
        for batch in BATCHES:
            out = subprocess.run([sys.executable, __file__, "--point", str(n), str(batch)],
                                 env=env, capture_output=True, text=True, check=True).stdout
            points.append(json.loads(out.splitlines()[-1]))
            p = points[-1]
            print(f"n={n:3d} B={batch:3d} ms/iter (min, median): "
                  f"forward {p['forward_per_iter_ms']['min']:.3f}, {p['forward_per_iter_ms']['median']:.3f}; "
                  f"forward+backward {p['forward_backward_per_iter_ms']['min']:.3f}, "
                  f"{p['forward_backward_per_iter_ms']['median']:.3f}; minor faults/call: "
                  f"{p['forward_minflt_per_call']:.0f}, {p['forward_backward_minflt_per_call']:.0f}",
                  file=sys.stderr)
    sha = _git("rev-parse", "HEAD")
    modified = bool(_git("status", "--porcelain", "--", "src"))
    record = {
        "benchmark": "bp_iter",
        "date": time.strftime("%Y-%m-%d"),
        "git_sha": sha,
        "src_modified": modified,
        "cpu_count": os.cpu_count(),
        "openblas_num_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": REPEATS,
        "snr_db": SNR_DB,
        "points": points,
    }
    label = sha[:7] + ("-modified" if modified else "")
    path = ROOT / f"BENCH_{record['date']}_bp_iter_{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
