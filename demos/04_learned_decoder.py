"""The trainable decoder: unit weights reproduce BP, training improves on it.

Run:  python3 demos/04_learned_decoder.py   (about a minute)
"""

import numpy as np

from hashdec.bch import build_code
from hashdec.nnd import NndModel, NndTrainConfig, pretrain_awgn, sigma_from_snr_db
from hashdec.tanner import TannerGraph, decode_bp_batch

code = build_code(6, 3)
graph = TannerGraph(code.parity_check_matrix)
model = NndModel(code, iterations=5)
print(f"decoder for BCH(63,45): {model.iterations} unrolled iterations, "
      f"{sum(t.data.size for t in model.parameters().values())} learnable weights")

print("\n== with every weight at 1 the decoder IS classical BP ==")
rng = np.random.default_rng(0)
llrs = 2.0 * (1.0 + 0.7 * rng.standard_normal((500, 63))) / 0.49
hard_bp, _ = decode_bp_batch(graph, llrs, iterations=5)
same = np.array_equal(model.decode(llrs), hard_bp)
print(f"hard decisions identical on 500 noisy words: {same}")

print("\n== pretraining on channel noise (all-zeros codeword database) ==")
cfg = NndTrainConfig(snr_range_db=(2.0, 4.0, 6.0), batch_size=64, steps=300, seed=1)
model, curve = pretrain_awgn(model, cfg)
print(f"validation loss: {curve[0]:.5f} (classical BP) -> {min(curve):.5f} (best)")

print("\n== paired BER comparison, 20000 words per noise level ==")
rate = code.k / code.n
print(f"{'Eb/N0 dB':>9} {'plain BP':>10} {'trained':>10}")
for snr in cfg.snr_range_db:
    sigma = sigma_from_snr_db(snr, rate)
    llrs = 2.0 * (1.0 + sigma * rng.standard_normal((20_000, 63))) / sigma**2
    hard_bp, _ = decode_bp_batch(graph, llrs, iterations=5)
    ber_bp = float(np.mean(hard_bp))
    ber_nnd = float(np.mean(model.decode(llrs)))
    print(f"{snr:9.1f} {ber_bp:10.5f} {ber_nnd:10.5f}")
