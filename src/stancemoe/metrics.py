"""Confusion matrices and accuracy / precision / recall / F1 reporting.

Macro scores are unweighted means over the three classes.  Whenever a
denominator is zero (a class never predicted, never present, or both) the
corresponding precision/recall/F1 is defined as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .text import CLASS_DISPLAY, N_CLASSES


def confusion(golds, preds) -> np.ndarray:
    """Count matrix with rows = gold class, columns = predicted class."""
    golds = np.asarray(golds, dtype=np.intp)
    preds = np.asarray(preds, dtype=np.intp)
    if golds.shape != preds.shape:
        raise ValueError(f"length mismatch: {golds.shape} golds vs {preds.shape} preds")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (golds, preds), 1)
    return cm


def _safe_div(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, denom, out=out, where=denom > 0)
    return out


@dataclass
class MetricsReport:
    accuracy: float
    precision: np.ndarray  # per class
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: np.ndarray

    def to_dict(self) -> dict:
        per_class = {
            CLASS_DISPLAY[c]: {
                "precision": float(self.precision[c]),
                "recall": float(self.recall[c]),
                "f1": float(self.f1[c]),
            }
            for c in range(len(self.precision))
        }
        return {
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "per_class": per_class,
            "confusion": self.confusion.tolist(),
        }


def macro_metrics(cm: np.ndarray) -> MetricsReport:
    """Per-class and macro metrics from a (3, 3) confusion matrix."""
    cm = np.asarray(cm, dtype=np.int64)
    if cm.shape != (N_CLASSES, N_CLASSES):
        raise ValueError(f"confusion matrix must be 3 x 3, got shape {cm.shape}")
    total = cm.sum()
    if total <= 0:
        raise ValueError("confusion matrix is empty")
    tp = np.diag(cm).astype(np.float64)
    precision = _safe_div(tp, cm.sum(axis=0).astype(np.float64))
    recall = _safe_div(tp, cm.sum(axis=1).astype(np.float64))
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    return MetricsReport(
        accuracy=float(tp.sum() / total),
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        confusion=cm,
    )


def metrics_from_labels(golds, preds) -> MetricsReport:
    """Convenience: confusion + macro_metrics in one call."""
    return macro_metrics(confusion(golds, preds))


def report_text(report: MetricsReport) -> str:
    """Aligned plain-text rendering of one metrics report (percentages)."""
    lines = [
        f"{'Class':<15}{'Pre':>8}{'Rec':>8}{'F1':>8}",
    ]
    for c, name in enumerate(CLASS_DISPLAY):
        lines.append(
            f"{name:<15}{100 * report.precision[c]:>8.2f}"
            f"{100 * report.recall[c]:>8.2f}{100 * report.f1[c]:>8.2f}"
        )
    lines.append(
        f"{'Macro':<15}{100 * report.macro_precision:>8.2f}"
        f"{100 * report.macro_recall:>8.2f}{100 * report.macro_f1:>8.2f}"
    )
    lines.append(f"Accuracy: {100 * report.accuracy:.2f}")
    return "\n".join(lines) + "\n"


def confusion_csv(cm: np.ndarray) -> str:
    """Confusion matrix as CSV, rows = gold, columns = predicted."""
    header = "gold\\pred," + ",".join(CLASS_DISPLAY)
    rows = [header]
    for c, name in enumerate(CLASS_DISPLAY):
        rows.append(name + "," + ",".join(str(int(v)) for v in cm[c]))
    return "\n".join(rows) + "\n"
