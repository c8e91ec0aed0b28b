"""Synthetic stance corpus with planted class signals.

Class is fully determined by planted tokens: pro_palestine texts carry one
of a few slogan phrases, pro_israel texts carry a slogan and usually a
contrast marker ("but", "however"), and neutral texts are report-style
sentences built around cue verbs from the default cue lexicon.  Filler
words are shared across classes and carry no signal.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from .cli import _int_at_least
from .text import LABEL_NAMES

_FILLER = ("the", "people", "today", "we", "they", "many", "voices", "online",
           "streets", "city", "world", "again", "still", "now", "everyone",
           "crowd", "marching", "posting")

_PP_SLOGANS = (
    ("free", "palestine"),
    ("end", "the", "occupation"),
    ("stop", "the", "blockade"),
    ("palestine", "will", "be", "free"),
    ("justice", "for", "gaza"),
)

_PI_SLOGANS = (
    ("stand", "with", "israel"),
    ("israel", "must", "defend", "itself"),
    ("defend", "israel", "now"),
    ("israel", "needs", "security"),
)

_PI_LEADS = (
    ("the", "losses", "are", "tragic"),
    ("peace", "talks", "matter"),
    ("the", "situation", "is", "painful"),
)

_CONTRAST_MARKERS = ("but", "however")

_NEUTRAL_OPENERS = (
    ("according", "to", "officials"),
    ("according", "to", "reporters"),
    ("the", "spokesperson", "says"),
    ("the", "ministry", "states"),
    ("a", "witness", "claims"),
    ("the", "agency", "reports"),
    ("an", "official", "announced"),
)

_NEUTRAL_TAILS = (
    ("negotiations", "are", "ongoing",),
    ("talks", "continue", "this", "week"),
    ("the", "meeting", "was", "postponed"),
    ("a", "statement", "was", "released"),
    ("delegates", "arrived", "yesterday"),
)


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def _fillers(rng: np.random.Generator, lo: int, hi: int) -> list[str]:
    n = int(rng.integers(lo, hi + 1))
    return [_pick(rng, _FILLER) for _ in range(n)]


def _pro_palestine(rng) -> str:
    words = _fillers(rng, 0, 2) + list(_pick(rng, _PP_SLOGANS)) + _fillers(rng, 0, 2)
    return " ".join(words) + ("!" if rng.random() < 0.5 else "")


def _pro_israel(rng) -> str:
    slogan = list(_pick(rng, _PI_SLOGANS))
    if rng.random() < 0.7:
        words = list(_pick(rng, _PI_LEADS)) + [_pick(rng, _CONTRAST_MARKERS)] + slogan
    else:
        words = _fillers(rng, 0, 2) + slogan + _fillers(rng, 0, 2)
    return " ".join(words)


def _neutral(rng) -> str:
    words = list(_pick(rng, _NEUTRAL_OPENERS)) + list(_pick(rng, _NEUTRAL_TAILS))
    return " ".join(words) + ("." if rng.random() < 0.5 else "")


_GENERATORS = (_pro_palestine, _pro_israel, _neutral)


def make_synthetic_dataset(n: int, seed: int, id_prefix: str = "syn") -> list[dict]:
    """Generate n rows of {"id", "text", "label"}, classes as balanced as
    n allows (counts differ by at most one), in round-robin class order."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        label = i % len(LABEL_NAMES)
        rows.append({
            "id": f"{id_prefix}-{i:04d}",
            "text": _GENERATORS[label](rng),
            "label": LABEL_NAMES[label],
        })
    return rows


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate a synthetic stance dataset with planted class tokens."
    )
    parser.add_argument("--n", type=_int_at_least(1), default=300, help="number of examples")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--prefix", default="syn", help="example id prefix")
    parser.add_argument("--out", required=True, help="output JSONL path")
    args = parser.parse_args(argv)
    rows = make_synthetic_dataset(args.n, args.seed, args.prefix)
    write_jsonl(args.out, rows)
    print(f"wrote {len(rows)} examples to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
