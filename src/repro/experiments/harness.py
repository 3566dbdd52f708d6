"""Shared experiment-result containers and helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.util.validation import ValidationError


@dataclass
class Series:
    """One plotted series: an x-axis sweep and the values along it."""

    label: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.x.append(float(x))
        self.y.append(float(y))

    def as_dict(self) -> Dict[str, List[float]]:
        """Plain-dictionary form for serialisation."""
        return {"label": self.label, "x": list(self.x), "y": list(self.y)}


@dataclass
class ExperimentResult:
    """The output of one figure driver: labelled series plus metadata."""

    figure: str
    description: str
    x_label: str
    y_label: str
    series: Dict[str, Series] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def series_for(self, label: str) -> Series:
        """Get (or create) the series with the given label."""
        if label not in self.series:
            self.series[label] = Series(label=label)
        return self.series[label]

    def add_point(self, label: str, x: float, y: float) -> None:
        """Append one point to the labelled series."""
        self.series_for(label).add(x, y)

    def table(self) -> str:
        """A plain-text table of all series (one row per x value).

        A series without a point at some x renders ``-`` there.  Lookups
        go through an explicit per-series ``x -> y`` map (last point wins
        for duplicate x values) rather than ``list.index`` inside a broad
        ``try/except``, which used to swallow ragged-series bugs — a
        series whose ``y`` ran shorter than its ``x`` would have raised
        ``IndexError`` past the ``ValueError`` handler.
        """
        labels = sorted(self.series)
        xs = sorted({x for s in self.series.values() for x in s.x})
        value_maps = {
            label: dict(zip(series.x, series.y))
            for label, series in self.series.items()
        }
        header = [self.x_label] + labels
        lines = ["\t".join(header)]
        for x in xs:
            row = [f"{x:g}"]
            for label in labels:
                y = value_maps[label].get(x)
                row.append("-" if y is None else f"{y:.4g}")
            lines.append("\t".join(row))
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary form for serialisation."""
        return {
            "figure": self.figure,
            "description": self.description,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "series": {k: s.as_dict() for k, s in self.series.items()},
            "metadata": dict(self.metadata),
        }


def normalize_against(
    values: Dict[str, float], reference_label: str
) -> Dict[str, float]:
    """Normalise every value by the reference label's value.

    Used for the paper's "individual cost / BR cost" style axes.  The
    reference entry itself normalises to 1.0.
    """
    reference = values[reference_label]
    if reference == 0:
        return {k: float("inf") if v > 0 else 1.0 for k, v in values.items()}
    return {k: v / reference for k, v in values.items()}


def add_normalized_sweep(
    result: ExperimentResult,
    x: float,
    raw: Dict[str, float],
    reference_label: str,
) -> None:
    """Append one sweep step to ``result``: normalised plus raw series.

    For every label in ``raw`` a point is added to its normalised series
    (value divided by the reference label's, via
    :func:`normalize_against`) and to a ``"<label> (raw)"`` companion
    series carrying the unnormalised value.  The sweep drivers — whether
    batched through a deployment batch or looping sequentially — share
    this so their result layouts stay identical.
    """
    normalized = normalize_against(raw, reference_label)
    for name, value in normalized.items():
        result.add_point(name, x, value)
    for name, value in raw.items():
        result.add_point(f"{name} (raw)", x, value)


def mean_finite(values: Sequence[float]) -> float:
    """Mean of the finite entries of ``values`` (NaN if none)."""
    arr = np.asarray(list(values), dtype=float)
    arr = arr[np.isfinite(arr)]
    return float(arr.mean()) if arr.size else float("nan")


def _param_list(spec, key: str, default: Sequence) -> list:
    """``spec.param(key, default)`` read as a non-empty list.

    ``--param key=value`` parses a single value as a scalar, so a scalar
    reads as a one-element list; an empty value is a ValidationError
    naming the experiment and the param.
    """
    value = spec.param(key, default)
    if value is None or value == "":
        values = []
    elif isinstance(value, (list, tuple)):
        values = list(value)
    else:
        values = [value]
    if not values:
        raise ValidationError(f"{spec.experiment}: param {key!r} must be non-empty")
    return values
