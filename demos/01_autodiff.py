"""Tour of the tensor engine: forward math, reverse-mode gradients, Adam.

Run:  python3 demos/01_autodiff.py
"""

import numpy as np

from hashdec import autodiff as ad
from hashdec.autodiff import AdamState, GradientTape, Tensor, adam_step

print("== tensors and gradients ==")
rng = np.random.default_rng(0)
x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
loss = ad.mean(ad.square(ad.scaled_tanh(ad.matmul(x, w), 1.5)))
GradientTape(loss).backward()
print(f"loss = {float(loss.data):.6f}")
print(f"dloss/dx has shape {x.grad.shape}, norm {np.linalg.norm(x.grad):.4f}")

print("\n== the gradients agree with central finite differences ==")
report = ad.gradient_check(
    lambda a, b: ad.mean(ad.square(ad.scaled_tanh(ad.matmul(a, b), 1.5))), [x, w]
)
print(f"max relative error across every component: {report.max_relative_error:.2e}")

print("\n== losses used by the training steps ==")
logits = Tensor([[4.0, -1.0, 0.5]])
labels = Tensor([[1.0, 0.0, 0.0]])
print(f"softmax cross-entropy (confident, correct): "
      f"{float(ad.softmax_cross_entropy(logits, labels).data):.4f}")
probs = Tensor(np.full(8, 0.5))
bits = Tensor(np.zeros(8))
print(f"bitwise cross-entropy at maximal uncertainty: "
      f"{float(ad.binary_cross_entropy(probs, bits).data):.4f}  (= ln 2)")

print("\n== Adam on a quadratic bowl ==")
p = Tensor(np.array([5.0]), requires_grad=True)
state = AdamState(step_size=0.1)
for step in range(500):
    p.grad = 2.0 * p.data
    adam_step({"p": p}, state)
    if step % 100 == 99:
        print(f"  step {step + 1:3d}: x = {p.data[0]: .6f}")
print("converged to the minimum of f(x) = x^2")
