"""Run perfbench on a parent and a change source tree in alternating pairs.

Usage, from the repository root:

    python3 benchmarks/perf_pairs.py run PARENT_TREE CHANGE_TREE --label L \
        [--workloads train,serve] [--pairs 10]
    python3 benchmarks/perf_pairs.py summary FILE.jsonl

``run`` writes ``BENCH_<date>_pairs_<label>.jsonl`` at the repository root
and refuses to overwrite one, so a file holds exactly one run. Its first
record (``kind`` "env") holds the git sha of each tree, read before the file
is made, the interpreter and the environment variables that set threading or
Python's behaviour; both sides run under that one environment, with
``PYTHONPATH`` removed so that each tree imports its own ``src/``. Pair i runs
``perfbench/run.py --workload W --seed <41 + i> --seconds S --trace 0`` from
each tree's root, S being ``BENCHMARK.json``'s ``run_seconds``, the parent
first in even pairs and the change first in odd ones, and appends one
``kind`` "perfbench" record per run: ``workload``, ``pair``, ``side``,
``first``, ``seed``, ``wall_s``, ``returncode``, ``correct``, ``attempted``,
``failed`` and ``metrics``, the last four as perfbench printed them (``None``
when a run printed no result).

``summary`` (printed by ``run`` too) gives, per workload and end-to-end
metric of ``BENCHMARK.json`` (read, never written): the parent's and the
change's median, the change's median relative to the parent's, the parent's
interquartile range as a share of its median, and the pairs the change won
(a tie counts for neither side). A metric whose parent IQR share exceeds the
metric's bound is marked "unresolved": its runs spread too widely to tell a
change of that size.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
FIRST_SEED = 41  # seed of pair 0; pair i uses FIRST_SEED + i


def _git_sha(tree):
    """HEAD of ``tree``, with ``-modified`` when its files differ; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True).stdout.strip()
    sha = git("rev-parse", "HEAD")
    return (sha + ("-modified" if git("status", "--porcelain") else "")) if sha else None


def run_once(tree, workload, seed, seconds, env):
    """One ``perfbench/run.py`` run in ``tree``: (wall seconds, return code, report or None)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        report = None
    return wall, proc.returncode, report


def run_pairs(trees, workloads, pairs, seconds, out):
    """Alternate the two trees over ``pairs`` pairs per workload, writing records to ``out``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    recorded = {k: v for k, v in sorted(env.items())
                if k.endswith("_NUM_THREADS") or k.startswith("PYTHON")}
    # the shas are read before ``out`` exists, so its tree is not seen as modified by it
    shas = {f"{side}_sha": _git_sha(tree) for side, tree in zip(SIDES, trees)}
    with open(out, "x") as fh:
        def append(record):
            fh.write(json.dumps(record) + "\n")
            fh.flush()

        append({"kind": "env", "python": sys.version.split()[0], "cpu_count": os.cpu_count(),
                "env": recorded, "workloads": workloads, "pairs": pairs, "seconds": seconds,
                **shas})
        for workload in workloads:
            for pair in range(pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    tree = trees[SIDES.index(side)]
                    seed = FIRST_SEED + pair
                    wall, rc, report = run_once(tree, workload, seed, seconds, env)
                    report = report or {}
                    append({"kind": "perfbench", "workload": workload, "pair": pair,
                            "side": side, "first": order[0], "seed": seed,
                            "wall_s": wall, "returncode": rc,
                            "correct": report.get("correct", False),
                            "attempted": report.get("attempted"),
                            "failed": report.get("failed"), "metrics": report.get("metrics")})
                    print(f"{workload} pair {pair} {side}: rc {rc}, {wall:.1f} s", file=sys.stderr)


def summarize(records, end_to_end):
    """Per (workload, metric) comparison rows of ``perfbench`` records.

    ``end_to_end`` is ``BENCHMARK.json``'s list of ``{"name", "better",
    "bound"}``. Each row holds both medians, ``relative`` (the change's
    median over the parent's, minus one), ``parent_iqr_share``, ``wins``
    and ``pairs`` (pairs where both sides report the metric), ``runs`` and
    ``bad_runs`` (runs that were not correct or had a failed operation) and
    ``unresolved``.
    """
    runs = [r for r in records if r.get("kind") == "perfbench"]
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        bad = sum(1 for r in mine if not r["correct"] or r["failed"] != 0)
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            values = {}  # (side, pair) -> value
            for r in mine:
                if r["metrics"] and name in r["metrics"]:
                    values[r["side"], r["pair"]] = r["metrics"][name]["value"]
            side_values = {s: [v for (side, _), v in values.items() if side == s] for s in SIDES}
            if not all(side_values.values()):
                continue
            parent, change = (float(np.median(side_values[s])) for s in SIDES)
            q1, q3 = np.percentile(side_values["parent"], [25, 75])
            both = [p for (side, p) in values if side == "parent" and ("change", p) in values]
            wins = sum(1 for p in both
                       if sign * (values["change", p] - values["parent", p]) < 0)
            share = float(q3 - q1) / abs(parent) if parent else float("inf")
            rows.append({"workload": workload, "metric": name, "parent_median": parent,
                         "change_median": change, "relative": change / parent - 1.0 if parent
                         else float("inf"), "parent_iqr_share": share, "wins": wins,
                         "pairs": len(both), "runs": len(mine), "bad_runs": bad,
                         "unresolved": share > metric["bound"]})
    return rows


def format_rows(rows):
    lines = [f"{'workload':8} {'metric':12} {'parent':>10} {'change':>10} {'rel':>7} "
             f"{'IQR/med':>7} {'won':>5}"]
    for r in rows:
        lines.append(
            f"{r['workload']:8} {r['metric']:12} {r['parent_median']:10.4g} "
            f"{r['change_median']:10.4g} {r['relative']:+7.1%} {r['parent_iqr_share']:7.1%} "
            f"{r['wins']:>2}/{r['pairs']:<2}"
            + ("  unresolved" if r["unresolved"] else "")
            + (f"  {r['bad_runs']} of {r['runs']} runs not correct" if r["bad_runs"] else ""))
    return "\n".join(lines)


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the pairs, append their records, print the summary")
    p.add_argument("parent", type=Path, help="source tree of the parent commit")
    p.add_argument("change", type=Path, help="source tree of the change")
    p.add_argument("--label", required=True,
                   help="names the record: BENCH_<date>_pairs_<label>.jsonl")
    p.add_argument("--workloads", default="train,serve")
    p.add_argument("--pairs", type=int, default=10)
    p = sub.add_parser("summary", help="print the summary of a pairs file")
    p.add_argument("path", type=Path)
    args = parser.parse_args(argv)

    if args.command == "run":
        for tree in (args.parent, args.change):
            if not (tree / "perfbench" / "run.py").is_file():
                parser.error(f"{tree}: no perfbench/run.py")
        path = ROOT / f"BENCH_{time.strftime('%Y-%m-%d')}_pairs_{args.label}.jsonl"
        if path.exists():
            parser.error(f"{path} exists; pick another --label")
        run_pairs((args.parent.resolve(), args.change.resolve()), args.workloads.split(","),
                  args.pairs, float(_benchmark()["run_seconds"]), path)
        print(path)
    else:
        path = args.path
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    print(format_rows(summarize(records, _benchmark()["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
