"""The summary of ``benchmarks/perf_pairs.py`` on hand-made records (no perfbench run)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

END_TO_END = [{"name": "op_ms", "better": "lower", "bound": 0.25},
              {"name": "rate", "better": "higher", "bound": 0.25}]


def _run(pair, side, op_ms, rate=None, correct=True, failed=0):
    metrics = {"op_ms": {"value": op_ms, "unit": "ms"}}
    if rate is not None:
        metrics["rate"] = {"value": rate, "unit": "1/s"}
    return {"kind": "perfbench", "workload": "w", "pair": pair, "side": side,
            "first": "parent", "seed": 41 + pair, "wall_s": 1.0, "returncode": 0,
            "correct": correct, "attempted": 5, "failed": failed, "metrics": metrics}


def test_summary_medians_wins_and_spread():
    records = [{"kind": "env"},
               # op_ms: the change is lower in pairs 0 and 2, ties in pair 1, loses pair 3
               _run(0, "parent", 10.0, 1.0), _run(0, "change", 9.0, 2.0),
               _run(1, "parent", 12.0, 1.0), _run(1, "change", 12.0, 1.0),
               _run(2, "parent", 14.0, 1.0), _run(2, "change", 11.0, 0.5),
               _run(3, "parent", 16.0, 1.0), _run(3, "change", 17.0, failed=1)]
    op, rate = perf_pairs.summarize(records, END_TO_END)
    assert (op["workload"], op["metric"]) == ("w", "op_ms")
    assert op["parent_median"] == 13.0 and op["change_median"] == 11.5
    assert op["relative"] == pytest.approx(11.5 / 13.0 - 1.0)
    # quartiles 11.5 and 14.5 of (10, 12, 14, 16): IQR 3 over a median of 13
    assert op["parent_iqr_share"] == pytest.approx(3.0 / 13.0)
    assert (op["wins"], op["pairs"], op["unresolved"]) == (2, 4, False)
    assert (op["runs"], op["bad_runs"]) == (8, 1)
    # higher is better, and pair 3's change reports no rate, so only three pairs count
    assert (rate["wins"], rate["pairs"], rate["parent_iqr_share"]) == (1, 3, 0.0)
    assert rate["change_median"] == 1.0


def test_summary_marks_a_wide_parent_spread_unresolved():
    records = [_run(p, side, v) for p, (a, b) in enumerate([(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)])
               for side, v in (("parent", a), ("change", b))]
    (op,) = perf_pairs.summarize(records, END_TO_END)
    assert op["wins"] == 0 and op["relative"] == 0.0
    # quartiles 1.5 and 3 over a median of 2: 75% > the 0.25 bound
    assert op["parent_iqr_share"] == pytest.approx(0.75) and op["unresolved"]
    assert "unresolved" in perf_pairs.format_rows([op])
