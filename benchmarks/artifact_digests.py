"""Record the sha256 of every ``run-all`` artifact at two config points.

Two commits whose records agree on every digest wrote byte-identical
checkpoints, logs, metrics and ROC files.

Usage, from the repository root:

    python3 benchmarks/artifact_digests.py --label L

Each point runs ``pipeline.run_all`` in a temporary directory, in its own
child process with ``OPENBLAS_NUM_THREADS=1``:

- ``eighth``: the default config with every step field of ``perfbench``'s
  ``train`` workload (``STEP_FIELDS``) scaled by ``STEP_SCALE`` = 1/8, seed 1;
- ``sigma0.3``: the default config with sigma_face = sigma_iris = 0.3 and
  seed 43, at full step counts.

The record, ``BENCH_<date>_digests_<L>.json`` at the repository root, holds
the git sha and, per point, the sha256 of each ``*.ckpt``, ``metrics_*``,
``roc_*`` and ``mdh_log.jsonl`` file of the run directory: 19 per point.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
POINTS = ("eighth", "sigma0.3")
PATTERNS = ("*.ckpt", "metrics_*", "roc_*", "mdh_log.jsonl")


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _config(point):
    from hashdec.config import ExperimentConfig

    cfg = ExperimentConfig()
    if point == "eighth":
        sys.path.insert(0, str(ROOT / "perfbench"))
        from workloads import STEP_FIELDS, STEP_SCALE

        fields = {f: max(1, round(getattr(cfg, f) * STEP_SCALE)) for f in STEP_FIELDS}
        fields["seed"] = 1
    else:
        fields = {"sigma_face": 0.3, "sigma_iris": 0.3, "seed": 43}
    return ExperimentConfig.from_dict({**cfg.to_dict(), **fields})


def digest_point(point):
    """The sha256 of each artifact file of one ``run_all`` at ``point``, by name."""
    from hashdec.pipeline import run_all

    with tempfile.TemporaryDirectory() as run_dir:
        with contextlib.redirect_stdout(sys.stderr):
            run_all(_config(point), run_dir)
        paths = sorted({p for pattern in PATTERNS for p in Path(run_dir).glob(pattern)})
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="names the record: BENCH_<date>_digests_<label>.json")
    parser.add_argument("--point", choices=POINTS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        print(json.dumps(digest_point(args.point)))
        return 0
    if not args.label:
        parser.error("--label is required")

    env = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS, "PYTHONPATH": str(ROOT / "src")}
    points = {}
    for point in POINTS:
        out = subprocess.run([sys.executable, __file__, "--point", point], env=env,
                             capture_output=True, text=True, check=True).stdout
        points[point] = json.loads(out.splitlines()[-1])
        print(f"{point}: {len(points[point])} files", file=sys.stderr)
    record = {
        "benchmark": "artifact_digests",
        "date": time.strftime("%Y-%m-%d"),
        "git_sha": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "openblas_num_threads": BLAS_THREADS,
        "points": points,
    }
    path = ROOT / f"BENCH_{record['date']}_digests_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
