"""Walk through the six pooling experts on one sentence.

Each expert reduces the (T, d) token matrix H to a single d-vector with a
different inductive bias: global mean, salient max, learned attention,
phrase-level CNN features, cue-masked mean, and contrast-amplified sum.
"""

import numpy as np

from stancemoe.encoder import ToyEncoderParams, encode
from stancemoe.experts import EXPERT_NAMES, ExpertBank, attention_weights, run_all_experts
from stancemoe.text import default_lexicon, make_example, Vocab

d = 16
rng = np.random.default_rng(0)
lexicon = default_lexicon()
vocab = Vocab()

text = "I support peace efforts, but the blockade must end."
example = make_example("demo", text, label=0, lexicon=lexicon, max_len=32,
                       vocab=vocab, grow_vocab=True)
print("tokens:            ", list(example.tokens))
print("cue positions:     ", sorted(example.cue_positions))
print("contrast positions:", sorted(example.contrast_positions),
      "->", [example.tokens[i] for i in sorted(example.contrast_positions)])

encoder = ToyEncoderParams.init(len(vocab), d, max_len=32, rng=rng)
H = encode(encoder, example.token_ids).H
print("\ncontextualized matrix H:", H.shape)

bank = ExpertBank.init(d, n_filters=4, rng=rng)
vectors = run_all_experts(bank, H, example.cue_positions, example.contrast_positions)
print("\nexpert outputs (first 4 dims):")
for name, vec in zip(EXPERT_NAMES, vectors):
    print(f"  {name:<15} {np.round(vec[:4], 3)}")

# the attention expert exposes its token weights; they live on the simplex
alpha, _ = attention_weights(bank, H)
print("\nattention weights over tokens (sum = %.12f):" % alpha.sum())
for tok, a in zip(example.tokens, alpha):
    print(f"  {tok:<10} {a:.4f}")

# amplifying the contrast token makes the contrast expert's input grow;
# an empty contrast mask would collapse it to the zero vector instead
no_contrast = run_all_experts(bank, H, example.cue_positions, frozenset(), ("contrast",))
print("\ncontrast expert with empty mask:", no_contrast[0][:4])
print("all six experts:", EXPERT_NAMES)
