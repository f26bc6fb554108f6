"""Out-of-package tracer for the hashdec benchmark.

The tracer wraps the public functions of each ``hashdec`` module from the
outside: every module-level binding of a wrapped function (``from .x import
y`` copies included) and the traced methods of ``NndModel``, ``MdhModel`` and
``GradientTape`` are replaced while the tracer is installed and restored
afterwards. Nothing inside ``src/`` knows about it.

Spans live in flat in-memory arrays (name, start, end, parent, request) and
are only aggregated when the benchmark asks for the per-layer metrics at the
end of the run. A metric ending in ``_s`` is self time: the summed span
durations of that name minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# autodiff primitives traced as forward spans; ``tanh`` is left out because it
# only forwards to ``scaled_tanh``, which is traced.
PRIMITIVES = (
    "add", "sub", "mul", "neg", "matmul", "transpose", "reshape", "concat",
    "tensor_sum", "mean", "square", "sum_sq", "clip", "scaled_tanh", "sigmoid",
    "atanh", "take", "segment_sum", "outer_product", "batch_outer",
    "softmax_cross_entropy", "binary_cross_entropy",
)
# primitives that get their own forward/backward metric
REPORTED_PRIMITIVES = (
    "matmul", "take", "segment_sum", "clip", "scaled_tanh", "atanh", "mul", "add",
    "batch_outer", "binary_cross_entropy", "softmax_cross_entropy",
)
PIPELINE_STAGES = (
    "stage_generate_data", "stage_train_mdh", "stage_ground_truth", "stage_train_nnd",
    "stage_joint_optimize", "stage_evaluate", "variant_codes",
)


def per_layer_metric_units():
    """Every metric the tracer reports, in report order, with its unit."""
    units = {
        "autodiff.fwd_s": "s", "autodiff.fwd_calls": "count",
        "autodiff.bwd_s": "s", "autodiff.backward_calls": "count",
        "autodiff.adam_s": "s", "autodiff.adam_calls": "count",
    }
    for op in REPORTED_PRIMITIVES:
        units[f"autodiff.{op}.fwd_s"] = "s"
        units[f"autodiff.{op}.bwd_s"] = "s"
    units.update({
        "tanner.leave_one_out_prod.fwd_s": "s", "tanner.leave_one_out_prod.bwd_s": "s",
        "tanner.leave_one_out_prod.calls": "count",
        "tanner.bp_forward_s": "s", "tanner.bp_forward_calls": "count", "tanner.bp_iter_ms": "ms",
        "nnd.forward_s": "s", "nnd.decode_s": "s", "nnd.decode_words": "count",
        "nnd.pretrain_awgn_s": "s", "nnd.finetune_biometric_s": "s",
        "nnd.make_ground_truth_s": "s", "nnd.sweep_llr_scale_s": "s",
        "nnd.gt_decode_ok_ratio": "fraction", "nnd.gt_decode_samples": "count",
        "mdh.forward_s": "s", "mdh.forward_calls": "count", "mdh.train_step1_s": "s",
        "mdh.stages_capped_ratio": "fraction", "mdh.stages": "count",
        "bch.build_code_s": "s", "bch.build_code_calls": "count",
        "bch.decode_hard_s": "s", "bch.decode_hard_calls": "count",
        "bch.decode_hard_ok_ratio": "fraction",
        "biodata.generate_s": "s", "biodata.save_dataset_s": "s",
        "biodata.load_dataset_s": "s", "biodata.load_dataset_calls": "count",
        "biodata.bytes_parsed": "bytes",
        "checkpoint.save_params_s": "s", "checkpoint.load_params_s": "s",
        "checkpoint.load_params_calls": "count", "checkpoint.bytes_read": "bytes",
        "evaluation.hamming_s": "s", "evaluation.pairwise_hamming_s": "s",
        "evaluation.pairwise_hamming_pairs": "count", "evaluation.score_protocol_s": "s",
        "evaluation.roc_and_eer_s": "s", "evaluation.identification_accuracy_s": "s",
    })
    for stage in PIPELINE_STAGES:
        units[f"pipeline.{stage}_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.spans"] = "count"
    return units


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.request_id = 0
        self.counters = {}
        self._patches = []
        self._bwd_of = {}       # forward span name id -> backward span name id

    # -- spans -----------------------------------------------------------
    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` updates counters."""
        return functools.wraps(fn)(self._spanned(self.intern(name), fn, after))

    def _spanned(self, nid, fn, after=None):
        stack, ids, parent, request = self._stack, self.name_id, self.parent, self.request
        start, end, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1])
            request.append(self.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def _patch_everywhere(self, module, attr, make):
        """Replace every ``hashdec`` module binding of ``module.attr``."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hashdec" or mod_name.startswith("hashdec.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def _patch_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after))

    def install(self):
        """Patch every traced binding; undo with ``uninstall``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        from hashdec import autodiff, bch, biodata, checkpoint, evaluation, mdh, nnd, pipeline, tanner

        for op in PRIMITIVES:
            self._patch_everywhere(autodiff, op, lambda f, op=op: self.wrap(f"autodiff.{op}.fwd", f))
        self._patch_everywhere(tanner, "leave_one_out_prod",
                               lambda f: self.wrap("tanner.leave_one_out_prod.fwd", f))
        for nid_name in [n for n in self.names if n.endswith(".fwd")]:
            self._bwd_of[self._ids[nid_name]] = self.intern(nid_name[:-4] + ".bwd")
        self._patch_everywhere(autodiff, "make_op", self._wrap_make_op)
        self._patch_method(autodiff.GradientTape, "backward", "autodiff.backward")
        self._patch_everywhere(autodiff, "adam_step", lambda f: self.wrap("autodiff.adam", f))

        self._patch_everywhere(tanner, "bp_forward", lambda f: self.wrap(
            "tanner.bp_forward", f,
            lambda a, k, r: self.count("tanner.bp_iterations", k.get("iterations", a[2] if len(a) > 2 else 0))))

        self._patch_method(nnd.NndModel, "forward", "nnd.forward")
        self._patch_method(nnd.NndModel, "decode", "nnd.decode",
                           lambda a, k, r: self.count("nnd.decode_words", int(r.shape[0])))
        for fn in ("pretrain_awgn", "finetune_biometric", "sweep_llr_scale"):
            self._patch_everywhere(nnd, fn, lambda f, fn=fn: self.wrap(f"nnd.{fn}", f))
        self._patch_everywhere(nnd, "make_ground_truth", lambda f: self.wrap(
            "nnd.make_ground_truth", f, self._count_ground_truth))

        self._patch_method(mdh.MdhModel, "forward", "mdh.forward")
        self._patch_everywhere(mdh, "train_step1", lambda f: self.wrap(
            "mdh.train_step1", f, self._count_stages))

        self._patch_everywhere(bch, "build_code", lambda f: self.wrap("bch.build_code", f))
        self._patch_everywhere(bch, "decode_hard", lambda f: self.wrap(
            "bch.decode_hard", f, lambda a, k, r: self.count("bch.decode_hard_ok", int(bool(r.success)))))

        self._patch_everywhere(biodata, "generate", lambda f: self.wrap("biodata.generate", f))
        self._patch_everywhere(biodata, "save_dataset", lambda f: self.wrap("biodata.save_dataset", f))
        self._patch_everywhere(biodata, "load_dataset", lambda f: self.wrap(
            "biodata.load_dataset", f,
            lambda a, k, r: self.count("biodata.bytes_parsed", os.path.getsize(a[0]))))

        self._patch_everywhere(checkpoint, "save_params", lambda f: self.wrap("checkpoint.save_params", f))
        self._patch_everywhere(checkpoint, "load_params", lambda f: self.wrap(
            "checkpoint.load_params", f,
            lambda a, k, r: self.count("checkpoint.bytes_read", os.path.getsize(a[0]))))

        self._patch_everywhere(evaluation, "hamming", lambda f: self.wrap("evaluation.hamming", f))
        self._patch_everywhere(evaluation, "pairwise_hamming", lambda f: self.wrap(
            "evaluation.pairwise_hamming", f,
            lambda a, k, r: self.count("evaluation.pairwise_hamming_pairs", int(r.size))))
        for fn in ("score_protocol", "roc_and_eer", "identification_accuracy"):
            self._patch_everywhere(evaluation, fn, lambda f, fn=fn: self.wrap(f"evaluation.{fn}", f))

        for stage in PIPELINE_STAGES:
            self._patch_everywhere(pipeline, stage, lambda f, stage=stage: self.wrap(f"pipeline.{stage}", f))

    def uninstall(self):
        """Restore every binding ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- counters fed from return values ---------------------------------
    def _count_ground_truth(self, args, kwargs, table):
        total = sum(table.totals.values())
        self.count("nnd.gt_decode_samples", total)
        self.count("nnd.gt_decode_ok", total - sum(table.failures.values()))

    def _count_stages(self, args, kwargs, result):
        _, log = result
        stages = [r for r in log if r.get("event") == "stage_done"]
        self.count("mdh.stages", len(stages))
        self.count("mdh.stages_capped", sum(1 for r in stages if not r["converged"]))

    def _wrap_make_op(self, make_op):
        """Time each backward closure under the primitive that created it."""
        stack, ids, bwd_of = self._stack, self.name_id, self._bwd_of
        other = self.intern("autodiff.other.bwd")

        @functools.wraps(make_op)
        def traced_make_op(data, inputs, backward):
            top = stack[-1]
            bwd_nid = bwd_of.get(ids[top], other) if top >= 0 else other
            return make_op(data, inputs, self._spanned(bwd_nid, backward))

        return traced_make_op

    # -- aggregation -----------------------------------------------------
    def summary(self):
        """Per span name: calls, self seconds and inclusive seconds."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        incl_s = np.bincount(name_id, weights=dur, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(self.names) if calls[i]
        }

    def per_layer_metrics(self):
        """The tracer-derived per-layer metrics (quality and overhead excluded)."""
        spans = self.summary()
        c = self.counters

        def self_s(name):
            return spans.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return spans.get(name, {}).get("calls", 0)

        def ratio(ok, base):
            return ok / base if base else 0.0

        fwd = [s for s in spans if s.endswith(".fwd")]
        bwd = [s for s in spans if s.endswith(".bwd")]
        m = {
            "autodiff.fwd_s": sum(self_s(s) for s in fwd),
            "autodiff.fwd_calls": sum(calls(s) for s in fwd),
            "autodiff.bwd_s": sum(self_s(s) for s in bwd),
            "autodiff.backward_calls": calls("autodiff.backward"),
            "autodiff.adam_s": self_s("autodiff.adam"),
            "autodiff.adam_calls": calls("autodiff.adam"),
        }
        for op in REPORTED_PRIMITIVES:
            m[f"autodiff.{op}.fwd_s"] = self_s(f"autodiff.{op}.fwd")
            m[f"autodiff.{op}.bwd_s"] = self_s(f"autodiff.{op}.bwd")
        iterations = c.get("tanner.bp_iterations", 0)
        bp_incl = spans.get("tanner.bp_forward", {}).get("incl_s", 0.0)
        m.update({
            "tanner.leave_one_out_prod.fwd_s": self_s("tanner.leave_one_out_prod.fwd"),
            "tanner.leave_one_out_prod.bwd_s": self_s("tanner.leave_one_out_prod.bwd"),
            "tanner.leave_one_out_prod.calls": calls("tanner.leave_one_out_prod.fwd"),
            "tanner.bp_forward_s": self_s("tanner.bp_forward"),
            "tanner.bp_forward_calls": calls("tanner.bp_forward"),
            "tanner.bp_iter_ms": 1e3 * bp_incl / iterations if iterations else 0.0,
            "nnd.forward_s": self_s("nnd.forward"),
            "nnd.decode_s": self_s("nnd.decode"),
            "nnd.decode_words": c.get("nnd.decode_words", 0),
            "nnd.pretrain_awgn_s": self_s("nnd.pretrain_awgn"),
            "nnd.finetune_biometric_s": self_s("nnd.finetune_biometric"),
            "nnd.make_ground_truth_s": self_s("nnd.make_ground_truth"),
            "nnd.sweep_llr_scale_s": self_s("nnd.sweep_llr_scale"),
            "nnd.gt_decode_ok_ratio": ratio(c.get("nnd.gt_decode_ok", 0), c.get("nnd.gt_decode_samples", 0)),
            "nnd.gt_decode_samples": c.get("nnd.gt_decode_samples", 0),
            "mdh.forward_s": self_s("mdh.forward"),
            "mdh.forward_calls": calls("mdh.forward"),
            "mdh.train_step1_s": self_s("mdh.train_step1"),
            "mdh.stages_capped_ratio": ratio(c.get("mdh.stages_capped", 0), c.get("mdh.stages", 0)),
            "mdh.stages": c.get("mdh.stages", 0),
            "bch.build_code_s": self_s("bch.build_code"),
            "bch.build_code_calls": calls("bch.build_code"),
            "bch.decode_hard_s": self_s("bch.decode_hard"),
            "bch.decode_hard_calls": calls("bch.decode_hard"),
            "bch.decode_hard_ok_ratio": ratio(c.get("bch.decode_hard_ok", 0), calls("bch.decode_hard")),
            "biodata.generate_s": self_s("biodata.generate"),
            "biodata.save_dataset_s": self_s("biodata.save_dataset"),
            "biodata.load_dataset_s": self_s("biodata.load_dataset"),
            "biodata.load_dataset_calls": calls("biodata.load_dataset"),
            "biodata.bytes_parsed": c.get("biodata.bytes_parsed", 0),
            "checkpoint.save_params_s": self_s("checkpoint.save_params"),
            "checkpoint.load_params_s": self_s("checkpoint.load_params"),
            "checkpoint.load_params_calls": calls("checkpoint.load_params"),
            "checkpoint.bytes_read": c.get("checkpoint.bytes_read", 0),
            "evaluation.hamming_s": self_s("evaluation.hamming"),
            "evaluation.pairwise_hamming_s": self_s("evaluation.pairwise_hamming"),
            "evaluation.pairwise_hamming_pairs": c.get("evaluation.pairwise_hamming_pairs", 0),
            "evaluation.score_protocol_s": self_s("evaluation.score_protocol"),
            "evaluation.roc_and_eer_s": self_s("evaluation.roc_and_eer"),
            "evaluation.identification_accuracy_s": self_s("evaluation.identification_accuracy"),
        })
        for stage in PIPELINE_STAGES:
            m[f"pipeline.{stage}_s"] = self_s(f"pipeline.{stage}")
        m["trace.spans"] = len(self.start)
        return m
