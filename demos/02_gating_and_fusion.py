"""Context-aware gating: how the CLS vector steers the expert mixture.

The gate is a linear map from the CLS representation to one softmax weight
per expert; the fused representation is the weighted sum of expert
outputs, which then feeds a 3-way linear classifier.
"""

import numpy as np

from stancemoe.experts import ExpertBank, run_all_experts
from stancemoe.head import classify, fuse, gate_forward
from stancemoe.ops import LinearParams
from stancemoe.text import CLASS_DISPLAY

d = 8
rng = np.random.default_rng(1)
bank = ExpertBank.init(d, n_filters=2, rng=rng)
gate = LinearParams.init(6, d, rng)
classifier = LinearParams.init(3, d, rng)

H = rng.normal(size=(5, d))
vectors = run_all_experts(bank, H, cue_positions={2}, contrast_positions={3})

# two different CLS vectors route the same experts differently
for label, h_cls in (("cls A", rng.normal(size=d)), ("cls B", rng.normal(size=d))):
    g = gate_forward(gate, h_cls)
    print(f"{label}: gate = {np.round(g, 3)}  (sum {g.sum():.9f})")

g = gate_forward(gate, H[0])
h_moe = fuse(g, vectors)
logits, probs = classify(classifier, h_moe)
print("\nfused representation:", np.round(h_moe[:4], 3), "...")
print("logits:", np.round(logits, 3))
for name, p in zip(CLASS_DISPLAY, probs):
    print(f"  P({name}) = {p:.4f}")

# a one-hot gate degenerates the mixture into a single expert
one_hot = np.zeros(6)
one_hot[1] = 1.0
np.testing.assert_array_equal(fuse(one_hot, vectors), vectors[1])
print("\none-hot gate selects expert 2 exactly")

# the fused vector always stays inside the experts' per-dimension envelope
E = np.array(vectors)
assert np.all(h_moe >= E.min(axis=0)) and np.all(h_moe <= E.max(axis=0))
print("fused vector lies in the convex hull of the expert outputs")
