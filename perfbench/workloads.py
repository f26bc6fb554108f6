"""The three workloads of the hashdec benchmark.

Each workload splits into ``setup`` (inputs and models made from the seed),
``op`` (the one timed operation) and ``finish`` (untimed checks on what the
operation returned). Operations call ``hashdec`` through module attributes
(``evaluation.hamming``), so a traced run sees them; checks use the bindings
captured below at import time, which the tracer never patches, so checking
adds nothing to the per-layer figures.

- ``train``: one in-process ``hashdec run-all`` on the default config with
  every step count scaled by ``STEP_SCALE``; the with-gradient path.
- ``serve``: single-query authentication at B=1 on BCH(63,45), a closed loop
  driven by one client; Python dispatch per autodiff op dominates.
- ``batch``: 512 probes per operation on BCH(255,187), verified 1:1 against
  their claimed template and identified 1:N against a 2,000-template gallery;
  numpy kernels dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from hashdec import autodiff as ad
from hashdec import bch, biodata, cli, evaluation, mdh, nnd, pipeline, tanner
from hashdec.config import ExperimentConfig
from hashdec.evaluation import hamming as _ref_hamming, read_metrics

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(__file__).resolve().parent / "_work"

# ExperimentConfig fields that count optimisation steps; ``train`` scales them
# all by STEP_SCALE so that two pipelines fit in one run.
STEP_FIELDS = ("phase_a_steps", "stage_max_steps", "patience",
               "nnd_pretrain_steps", "nnd_finetune_steps", "joint_steps")
STEP_SCALE = 1 / 8
QUALITY_NAMES = ("eer_mdh", "eer_ext", "eer_nnd", "eer_mdhnd",
                 "gar_at_far_0.001_mdhnd", "ident_acc_mdhnd")
# relative spread of the NND weights around one in serve and batch
WEIGHT_JITTER = 0.05


def _perturbed_decoder(code, iterations, rng):
    """NND with every weight moved off one, so no path can assume BP weights."""
    model = nnd.NndModel(code, iterations)
    for tensor in model.parameters().values():
        tensor.data = tensor.data * (1.0 + WEIGHT_JITTER * rng.standard_normal(tensor.data.shape))
    return model


def _hash_activations(model, face, iris):
    with ad.no_grad():
        acts, _ = model.forward(face, iris)
    return acts.data


class Workload:
    """Defaults for the optional parts of a workload."""

    def extra_checks(self, state):
        """Checks run once per run, outside the loop: (attempted, failed)."""
        return 0, 0

    def quality(self, results):
        """Quality metrics of the run's results, by per-layer metric name."""
        return {}

    def close(self, state):
        pass


class Train(Workload):
    """``hashdec run-all`` on the default config, steps scaled by ``step_scale``."""

    name = "train"

    def __init__(self, step_scale=STEP_SCALE, overrides=None):
        self.step_scale = step_scale
        self.overrides = dict(overrides or {})

    def setup(self, seed):
        """A config written by ``hashdec init-config`` in a fresh interpreter."""
        work = WORK_DIR / f"train-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        path = work / "config.json"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        # no timeout: with one, Popen polls for the child's exit at up to 50 ms
        # intervals, which would add 0-50 ms steps to setup_s
        subprocess.run([sys.executable, "-m", "hashdec.cli", "init-config", "--out", str(path)],
                       check=True, env=env, stdout=subprocess.DEVNULL)
        cfg = ExperimentConfig.load(path)
        fields = {f: max(1, round(getattr(cfg, f) * self.step_scale)) for f in STEP_FIELDS}
        fields.update(self.overrides)
        fields["seed"] = seed
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), **fields})
        cfg.save(path)
        return SimpleNamespace(cfg=cfg, config_path=path, work=work)

    def op(self, state, i):
        run_dir = state.work / f"run-{i}"
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["run-all", "--config", str(state.config_path),
                             "--run-dir", str(run_dir), "--overwrite"])
        return code, run_dir

    def finish(self, state, i, raw):
        """Protocol counts and metric ranges; returns (ok, comparable result)."""
        code, run_dir = raw
        if code != 0:
            shutil.rmtree(run_dir, ignore_errors=True)
            return False, None
        n, t = state.cfg.test_subjects, state.cfg.samples_per_subject
        ok = True
        result = {}
        for variant in pipeline.VARIANTS:
            auth = read_metrics(run_dir / f"metrics_auth_{variant}.txt")
            ident = read_metrics(run_dir / f"metrics_ident_{variant}.txt")
            ok &= auth["genuine_count"] == n * t * (t - 1) // 2
            ok &= auth["impostor_count"] == n * (n - 1) * t * t // 2
            values = {f"eer_{variant}": auth["eer"],
                      f"ident_acc_{variant}": ident["identification_accuracy"]}
            values.update({f"{k}_{variant}": v for k, v in auth.items() if k.startswith("gar_at_far_")})
            ok &= all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in values.values())
            result.update(values)
        digest = hashlib.sha256()
        for path in sorted(run_dir.glob("metrics_*.txt")) + sorted(run_dir.glob("roc_*.csv")):
            digest.update(path.read_bytes())
        digest.update((run_dir / "mdhnd.ckpt").read_bytes())
        result["artifacts_sha256"] = digest.hexdigest()
        shutil.rmtree(run_dir)
        # a fixed seed must give the same pipeline every time
        if i == 0:
            state.first = result
        ok &= result == state.first
        return bool(ok), result

    def quality(self, results):
        if results[-1] is None:
            return {}
        return {name: float(results[-1][name]) for name in QUALITY_NAMES}

    def close(self, state):
        shutil.rmtree(state.work, ignore_errors=True)


class Serve(Workload):
    """Single-query authentication: MDH forward, NND decode, Hamming match."""

    name = "serve"

    def __init__(self, overrides=None):
        self.overrides = dict(overrides or {})

    def setup(self, seed):
        cfg = ExperimentConfig(seed=seed, **self.overrides)
        test = biodata.generate(cfg.split_spec(), cfg.distortion(), cfg.dims(), seed)[2]
        code = bch.build_code(cfg.code_m, cfg.code_t)
        hasher = mdh.MdhModel(cfg.fusion_mode, cfg.face_dim, cfg.iris_dim, cfg.train_subjects,
                              code.n, cfg.feature_dim, cfg.fusion_dim, cfg.encoder_hidden, seed=seed)
        hasher.discard_head()
        decoder = _perturbed_decoder(code, cfg.nnd_iterations, np.random.default_rng(seed))
        # batched reference over the whole split: templates from the enroll
        # samples, expected bits and scores for every probe
        acts = _hash_activations(hasher, test.face, test.iris)
        bits = decoder.decode(nnd.llr_from_activations(acts, cfg.llr_scale))
        templates, ids = pipeline.enrollment_templates(bits, test.subject, test.role)
        probes = np.nonzero(test.role == "probe")[0]
        claimed = np.searchsorted(ids, test.subject[probes])
        ref_scores = evaluation.pairwise_hamming(bits[probes], templates)
        return SimpleNamespace(
            face=test.face, iris=test.iris, scale=cfg.llr_scale, hasher=hasher, decoder=decoder,
            templates=templates, probes=probes, claimed=claimed,
            ref_bits=bits[probes], ref_scores=ref_scores[np.arange(probes.size), claimed],
        )

    def op(self, state, i):
        q = i % state.probes.size
        row = state.probes[q]
        acts = _hash_activations(state.hasher, state.face[row:row + 1], state.iris[row:row + 1])
        bits = state.decoder.decode(nnd.llr_from_activations(acts, state.scale))[0]
        return bits, evaluation.hamming(bits, state.templates[state.claimed[q]])

    def finish(self, state, i, raw):
        q = i % state.probes.size
        bits, score = raw
        ok = np.array_equal(bits, state.ref_bits[q]) and score == state.ref_scores[q]
        return bool(ok), (bits.tobytes(), int(score))


class Batch(Workload):
    """Bulk verification and 1:N identification at n=255."""

    name = "batch"
    CODE_M, CODE_T = 8, 9          # BCH(255,187)
    CHECKED_PER_BATCH = 4          # probes whose argmin is re-derived by a hamming loop
    UNIT_WEIGHT_SAMPLE = 16        # probes decoded by unit-weight NND and by plain BP

    def __init__(self, gallery=2000, batch_size=512):
        self.gallery = gallery
        self.batch_size = batch_size

    def setup(self, seed):
        cfg = ExperimentConfig(seed=seed, code_m=self.CODE_M, code_t=self.CODE_T)
        spec = biodata.SplitSpec(train_subjects=1, nnd_subjects=1, test_subjects=self.gallery,
                                 samples_per_subject=2)
        gal = biodata.generate(spec, cfg.distortion(), cfg.dims(), seed)[2]
        code = bch.build_code(cfg.code_m, cfg.code_t)
        hasher = mdh.MdhModel(cfg.fusion_mode, cfg.face_dim, cfg.iris_dim, cfg.train_subjects,
                              code.n, cfg.feature_dim, cfg.fusion_dim, cfg.encoder_hidden, seed=seed)
        hasher.discard_head()
        decoder = _perturbed_decoder(code, cfg.nnd_iterations, np.random.default_rng(seed))
        # enrollment stores the hashed code of each subject's enroll sample
        enroll = np.nonzero(gal.role == "enroll")[0]
        order = enroll[np.argsort(gal.subject[enroll])]
        templates = nnd.hard_limit(_hash_activations(hasher, gal.face[order], gal.iris[order]))
        ids = gal.subject[order]
        probes = np.nonzero(gal.role == "probe")[0]
        return SimpleNamespace(
            cfg=cfg, code=code, face=gal.face, iris=gal.iris, hasher=hasher, decoder=decoder,
            templates=templates, probes=probes, claimed=np.searchsorted(ids, gal.subject[probes]),
        )

    def _rows(self, state, i):
        return (i * self.batch_size + np.arange(self.batch_size)) % state.probes.size

    def op(self, state, i):
        rows = self._rows(state, i)
        idx = state.probes[rows]
        acts = _hash_activations(state.hasher, state.face[idx], state.iris[idx])
        bits = state.decoder.decode(nnd.llr_from_activations(acts, state.cfg.llr_scale))
        claimed = state.templates[state.claimed[rows]]
        verify = np.array([evaluation.hamming(b, c) for b, c in zip(bits, claimed)])
        dist = evaluation.pairwise_hamming(bits, state.templates)
        return bits, verify, np.argmin(dist, axis=1), dist

    def finish(self, state, i, raw):
        bits, verify, best, dist = raw
        rows = self._rows(state, i)
        ok = np.array_equal(verify, dist[np.arange(rows.size), state.claimed[rows]])
        for j in np.linspace(0, rows.size - 1, self.CHECKED_PER_BATCH).astype(int):
            loop = [_ref_hamming(bits[j], t) for t in state.templates]
            ok &= int(np.argmin(loop)) == int(best[j])
        return bool(ok), (bits.tobytes(), verify.tobytes(), best.tobytes())

    def extra_checks(self, state):
        """Unit-weight NND against classical BP, bit for bit, on a sample."""
        idx = state.probes[: self.UNIT_WEIGHT_SAMPLE]
        acts = _hash_activations(state.hasher, state.face[idx], state.iris[idx])
        llr = nnd.llr_from_activations(acts, state.cfg.llr_scale)
        unit = nnd.NndModel(state.code, state.cfg.nnd_iterations)
        expected, _ = tanner.decode_bp_batch(unit.graph, llr, state.cfg.nnd_iterations)
        mismatched = np.any(unit.decode(llr) != expected, axis=1)
        return idx.size, int(mismatched.sum())


WORKLOADS = {"train": Train, "serve": Serve, "batch": Batch}
