"""Command-line pipeline driver.

Every command reads one JSON config file and operates on a run directory,
where each stage's record gates the next (data -> train-mdh -> ground-truth ->
train-nnd -> joint-optimize). Exit code 0 on success; otherwise one error line
goes to stderr and the code is 2 (config), 3 (pipeline) or 1 (runtime).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig
from . import pipeline
from .pipeline import PipelineError


def _add_common(parser):
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--run-dir", required=True, help="directory holding this run's artifacts")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hashdec",
        description="multimodal biometric hashing with a trainable BP decoder",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-config", help="write a config file with every default value")
    p.add_argument("--out", required=True)

    for name, help_text in (
        ("generate-data", "generate the three subject-disjoint dataset splits"),
        ("train-mdh", "step 1: train the hashing network"),
        ("ground-truth", "step 2: decode hash codes and vote per-subject labels"),
        ("train-nnd", "step 3a: pretrain the decoder on AWGN, then fine-tune"),
        ("joint-optimize", "step 3b: end-to-end optimisation of the composed system"),
        ("evaluate", "score a system variant on the benchmark"),
        ("bench", "per-authentication latency of the joint system"),
        ("run-all", "run every stage and evaluation for this config"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name in ("generate-data", "run-all"):
            p.add_argument("--overwrite", action="store_true",
                           help="replace existing dataset files")
        if name == "evaluate":
            p.add_argument("--mode", choices=("auth", "ident"), required=True)
            p.add_argument("--variant", choices=pipeline.VARIANTS, required=True)
        if name == "bench":
            p.add_argument("--repetitions", type=int, default=200)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "init-config":
            ExperimentConfig().save(args.out)
            print(f"wrote default config to {args.out}")
            return 0
        cfg = ExperimentConfig.load(args.config)
        if args.command == "generate-data":
            manifest = pipeline.stage_generate_data(cfg, args.run_dir, overwrite=args.overwrite)
            print(f"generated splits: {sorted(manifest['files'])}")
        elif args.command == "train-mdh":
            summary = pipeline.stage_train_mdh(cfg, args.run_dir)
            print(f"trained hashing network: {summary}")
        elif args.command == "ground-truth":
            table = pipeline.stage_ground_truth(cfg, args.run_dir)
            print(
                f"ground truth: {len(table.labels)} subjects labeled, "
                f"{len(table.excluded)} excluded, failure rate {table.failure_rate:.3f}"
            )
        elif args.command == "train-nnd":
            info = pipeline.stage_train_nnd(cfg, args.run_dir)
            print(f"decoder trained; llr-scale sweep: {info['scale_sweep']}")
        elif args.command == "joint-optimize":
            info = pipeline.stage_joint_optimize(cfg, args.run_dir)
            print(f"joint optimisation: {info}")
        elif args.command == "evaluate":
            metrics = pipeline.stage_evaluate(cfg, args.run_dir, args.mode, args.variant)
            for key in sorted(metrics):
                print(f"{key} {metrics[key]}")
        elif args.command == "bench":
            stats = pipeline.stage_bench(cfg, args.run_dir, args.repetitions)
            print(
                f"latency mean {stats.mean_ms:.3f} ms, median {stats.median_ms:.3f} ms, "
                f"p95 {stats.p95_ms:.3f} ms over {stats.repetitions} repetitions"
            )
        elif args.command == "run-all":
            results = pipeline.run_all(cfg, args.run_dir, overwrite=args.overwrite)
            for (mode, variant), metrics in results.items():
                key = "eer" if mode == "auth" else "identification_accuracy"
                print(f"{mode} {variant}: {key}={metrics[key]}")
        return 0
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error[pipeline]: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error[runtime]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
