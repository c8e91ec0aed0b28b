"""Leave-one-expert-out ablation harness and its table renderings.

Each variant retrains the full K-fold ensemble from scratch with the same
seed schedule; removed experts shrink the gate accordingly.  Two views are
produced: a classwise table (ensemble accuracy plus per-class P/R/F1 on
the test set) and an overall table (per-fold test metrics as mean ± std,
population std, next to the ensemble metrics).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .experts import EXPERT_NAMES
from .metrics import MetricsReport, metrics_from_labels
from .text import CLASS_DISPLAY
from .train import EnsembleModel, TrainConfig, predict_logits, run_kfold

FULL_MODEL_LABEL = "StanceMoE"

# row label -> expert removed (None keeps all six); fixed report order
ABLATION_ROWS: tuple[tuple[str, str | None], ...] = (
    ("w/o Mean", "mean"),
    ("w/o Max", "max"),
    ("w/o Self-Attention", "self_attention"),
    ("w/o CNN", "cnn"),
    ("w/o Lexical-cue", "cue"),
    ("w/o Contrastive", "contrast"),
    (FULL_MODEL_LABEL, None),
)

_OVERALL_COLS = ("accuracy", "macro_precision", "macro_recall", "macro_f1")


@dataclass
class VariantResult:
    label: str
    removed: str | None
    ensemble: EnsembleModel
    ensemble_report: MetricsReport
    fold_reports: list[MetricsReport]

    @property
    def kfold_mean(self) -> dict[str, float]:
        return {
            col: float(np.mean([getattr(r, col) for r in self.fold_reports]))
            for col in _OVERALL_COLS
        }

    @property
    def kfold_std(self) -> dict[str, float]:
        return {
            col: float(np.std([getattr(r, col) for r in self.fold_reports]))
            for col in _OVERALL_COLS
        }


def ablate(config: TrainConfig, train_examples, vocab, test_examples, store=None,
           jobs: int | None = None) -> list[VariantResult]:
    """Run the seven ablation variants; test_examples drive all reported
    numbers (per-fold and ensemble).  Each variant's folds train in
    ``jobs`` processes, as :func:`run_kfold` trains them.  One prediction
    of the fold-stacked model per variant gives every fold's test logits;
    the ensemble's are their weighted average."""
    if config.head != "moe":
        raise ValueError("ablation requires the moe head")
    golds = [ex.label for ex in test_examples]
    results = []
    for label, removed in ABLATION_ROWS:
        active = tuple(n for n in EXPERT_NAMES if n != removed)
        variant_cfg = dataclasses.replace(config, active_experts=active)
        ensemble = run_kfold(variant_cfg, train_examples, vocab, store, jobs=jobs)
        fold_logits = predict_logits(ensemble.stacked, test_examples, store)
        fold_reports = [metrics_from_labels(golds, logits.argmax(axis=1))
                        for logits in fold_logits]
        ensemble_report = metrics_from_labels(
            golds, ensemble.average(fold_logits).argmax(axis=1))
        results.append(VariantResult(label, removed, ensemble, ensemble_report,
                                     fold_reports))
    return results


def classwise_table_text(results: list[VariantResult]) -> str:
    """Ensemble accuracy and per-class P/R/F1 per variant, in percent."""
    head1 = f"{'Method':<20}{'Acc':>8}"
    head2 = " " * 28
    for name in CLASS_DISPLAY:
        head1 += f"{name:>24}"
        head2 += f"{'Pre':>8}{'Rec':>8}{'F1':>8}"
    lines = [head1, head2]
    for res in results:
        r = res.ensemble_report
        row = f"{res.label:<20}{100 * r.accuracy:>8.2f}"
        for c in range(len(CLASS_DISPLAY)):
            row += f"{100 * r.precision[c]:>8.2f}{100 * r.recall[c]:>8.2f}{100 * r.f1[c]:>8.2f}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def overall_table_text(results: list[VariantResult]) -> str:
    """K-fold mean ± std and ensemble Acc/Pre/Rec/F1 per variant, in percent."""
    cols = ("Acc", "Pre", "Rec", "F1")
    head1 = f"{'Method':<20}{'K-fold (mean±std)':>56}{'Weighted Logit Ensemble':>36}"
    head2 = f"{'':<20}" + "".join(f"{c:>14}" for c in cols) + "".join(f"{c:>9}" for c in cols)
    lines = [head1, head2]
    for res in results:
        mean, std = res.kfold_mean, res.kfold_std
        row = f"{res.label:<20}"
        for col in _OVERALL_COLS:
            row += f"{100 * mean[col]:>8.2f}±{100 * std[col]:<5.2f}"
        r = res.ensemble_report
        for val in (r.accuracy, r.macro_precision, r.macro_recall, r.macro_f1):
            row += f"{100 * val:>9.2f}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def results_to_dict(results: list[VariantResult]) -> dict:
    """JSON-ready view of both tables (raw [0, 1] floats)."""
    out = {"classwise": [], "overall": []}
    for res in results:
        out["classwise"].append({
            "method": res.label,
            "removed_expert": res.removed,
            **res.ensemble_report.to_dict(),
        })
        out["overall"].append({
            "method": res.label,
            "removed_expert": res.removed,
            "kfold_mean": res.kfold_mean,
            "kfold_std": res.kfold_std,
            "ensemble": {
                col: getattr(res.ensemble_report, col) for col in _OVERALL_COLS
            },
        })
    return out
