"""``benchmarks/bp_iter.py``'s record of one grid point, measured in process
with few, short samples."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bp_iter.py"
_spec = importlib.util.spec_from_file_location("bp_iter", _PATH)
bp_iter = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp_iter)


def test_measure_point_record(monkeypatch):
    monkeypatch.setattr(bp_iter, "REPEATS", 2)
    monkeypatch.setattr(bp_iter, "SAMPLE_S", 0.001)
    first, second = bp_iter.measure_point(63, 1), bp_iter.measure_point(63, 1)
    assert {"n", "k", "batch", "iterations", "frame_error_rate", "bits_sha256", "grads_sha256",
            "peak_rss_mb"} <= set(first)
    assert (first["n"], first["k"], first["batch"]) == (63, 45, 1)
    assert 0.0 <= first["frame_error_rate"] <= 1.0
    for op in ("forward", "forward_backward"):
        spread = first[f"{op}_ms"]
        assert 0.0 < spread["min"] <= spread["q1"] <= spread["median"] <= spread["q3"]
        assert first[f"{op}_per_iter_ms"]["min"] == spread["min"] / bp_iter.ITERATIONS
        assert first[f"{op}_minflt_per_call"] >= 0
    # the digests follow from the seeded words and weights alone
    assert first["bits_sha256"] == second["bits_sha256"]
    assert first["grads_sha256"] == second["grads_sha256"]
