"""Authentication scoring: genuine/impostor protocol, ROC, EER, GAR@FAR.

Run:  python3 demos/06_authentication_metrics.py
"""

import numpy as np

from hashdec.evaluation import (
    gar_at_far,
    identification_accuracy,
    roc_and_eer,
    score_protocol,
)

print("== the 70-subject x 20-sample protocol ==")
rng = np.random.default_rng(0)
centers = rng.integers(0, 2, (70, 63)).astype(np.uint8)
codes = {}
for s in range(70):
    flips = rng.random((20, 63)) < 0.08  # ~5 bit flips per sample
    codes[s] = centers[s] ^ flips.astype(np.uint8)
genuine, impostor = score_protocol(codes, 70, 20)
print(f"genuine scores : {genuine.size:>7} = 70*20*19/2")
print(f"impostor scores: {impostor.size:>7} = 70*69*400/2")
print(f"genuine mean distance {genuine.mean():5.2f}, "
      f"impostor mean {impostor.mean():5.2f}")

roc, eer = roc_and_eer(genuine, impostor, 63)
print(f"\nEER = {eer:.4%} (interpolated at the FAR/FRR crossing)")
for target in (0.01, 0.001, 0.0001):
    print(f"GAR at FAR <= {target:g}: {gar_at_far(roc, target):.4f}")

print("\n== threshold sweep around the crossing ==")
f = roc.far - (1.0 - roc.gar)
idx = int(np.argmax(f >= 0))
for k in range(max(idx - 2, 0), min(idx + 2, len(roc.thresholds))):
    print(f"  tau={roc.thresholds[k]:3d}  FAR={roc.far[k]:.5f}  FRR={1 - roc.gar[k]:.5f}")

print("\n== closed-set identification ==")
probes = np.concatenate([codes[s][10:] for s in range(70)])
truth = np.repeat(np.arange(70), 10)
acc = identification_accuracy(probes, truth, centers, np.arange(70))
print(f"nearest-template accuracy over {probes.shape[0]} probes: {acc:.4f}")
