"""Finite-difference verification of every hand-derived gradient.

The whole model (toy encoder, six experts, gate, classifier, smoothed
cross entropy) is differentiated analytically; central differences at
h = 1e-4 probe every parameter entry and report the relative error.
"""

import numpy as np

from stancemoe.ops import grad_check
from stancemoe.text import TokenizedExample
from stancemoe.train import TrainConfig, head_loss_fn

config = TrainConfig(hidden_dim=8, max_len=16)
params = config.build_model(vocab_size=12, rng=np.random.default_rng(42))

example = TokenizedExample(
    id="probe",
    tokens=("[CLS]", "a", "b", "c", "d", "e"),
    token_ids=(1, 3, 4, 5, 6, 7),
    cue_positions=frozenset({2, 5}),
    contrast_positions=frozenset({4}),
    label=1,
)

f, tensors = head_loss_fn(params, example, alpha=0.25)
n_params = sum(v.size for _, v, _ in tensors)
print(f"checking {n_params} parameters, two loss evaluations each...")

report = grad_check(f, tensors)
for name, err in sorted(report.per_param.items(), key=lambda kv: -kv[1])[:8]:
    print(f"  {name:<38} max rel err {err:.3e}")
print(f"\nmax relative error {report.max_rel_err:.3e} at {report.worst_param}")
print("PASS" if report.passed(1e-3) else "FAIL")
