"""Pareto-front machinery: nondominated filtering, exact 2-D hypervolume,
spread, online reference inference, and a Monte-Carlo hypervolume oracle.

Everything here works in minimization space for exactly two objectives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import DataError


@dataclass(frozen=True)
class ParetoFront:
    """Nondominated objective pairs, sorted ascending by the first objective
    (hence strictly descending in the second)."""

    points: tuple[tuple[float, float], ...]

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        if not self.points:
            return np.empty((0, 2))
        return np.asarray(self.points, dtype=float)


def _pairs(points, what: str) -> np.ndarray:
    """`points` as an (n, 2) float array (an empty input is valid); any other
    shape is a DataError naming it."""
    pts = np.asarray(points, dtype=float)
    if pts.shape == (0,):
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DataError(f"{what} needs an (n, 2) array of objective pairs, got shape {pts.shape}")
    return pts


def nondominated(points: Sequence[Sequence[float]]) -> ParetoFront:
    """Maximal nondominated subset; weakly dominated points and duplicates drop."""
    pts = _pairs(points, "nondominated()")
    if pts.size and not np.isfinite(pts).all():
        raise DataError("nondominated() requires finite points")
    if len(pts) == 0:
        return ParetoFront(())
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    kept: list[tuple[float, float]] = []
    best_y = math.inf
    for i in order:
        y = pts[i, 1]
        if y < best_y:
            kept.append((float(pts[i, 0]), float(y)))
            best_y = y
    return ParetoFront(tuple(kept))


def hypervolume(front: ParetoFront | Sequence[Sequence[float]],
                ref: Sequence[float]) -> float:
    """Exact 2-D hypervolume of the region dominated by `front` within the
    `ref` box. Points not strictly inside the box contribute zero."""
    ref = np.asarray(ref, dtype=float)
    if not np.isfinite(ref).all():
        raise DataError("reference point must be finite")
    if not isinstance(front, ParetoFront):
        front = nondominated(front)
    hv = 0.0
    prev_y = float(ref[1])
    for x, y in front.points:
        if x >= ref[0] or y >= prev_y:
            continue
        hv += (float(ref[0]) - x) * (prev_y - y)
        prev_y = y
    return float(hv)


def hvi_strips(front: ParetoFront, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertical strips of the box below `ref` that `front` leaves free.

    Returns (edges, tops): strip s spans x in [edges[s-1], edges[s]), with
    edges[-1] read as -inf, and is free from y = tops[s] downward. The edges
    are the x-coordinates of the front points inside the box, then ref[0].
    A point (a, b) adds (edges[s] - max(edges[s-1], a))+ * (tops[s] - b)+
    of hypervolume in strip s.
    """
    pts = front.as_array()
    if len(pts):
        inside = (pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])
        pts = pts[inside]
    if len(pts) == 0:
        return np.array([ref[0]]), np.array([ref[1]])
    return np.concatenate((pts[:, 0], [ref[0]])), np.concatenate(([ref[1]], pts[:, 1]))


def hypervolume_improvement(front: ParetoFront, ref: np.ndarray,
                            candidates: np.ndarray) -> np.ndarray:
    """Vectorized HV(front + point) - HV(front) for an (m, 2) candidate batch.

    Decomposes the dominated region into vertical strips between consecutive
    front x-coordinates (`hvi_strips`); each candidate adds the rectangle
    parts of those strips it newly dominates.
    """
    cand = _pairs(candidates, "hypervolume_improvement()")
    seg_hi, seg_y = hvi_strips(front, ref)
    seg_lo = np.concatenate(([-math.inf], seg_hi[:-1]))
    a = cand[:, :1]
    b = cand[:, 1:]
    widths = np.minimum(seg_hi, ref[0])[None, :] - np.maximum(seg_lo[None, :], a)
    heights = seg_y[None, :] - b
    gain = np.clip(widths, 0.0, None) * np.clip(heights, 0.0, None)
    return gain.sum(axis=1)


def spread(front: ParetoFront) -> float:
    """Front diversity: the total polyline length of the sorted front, in raw
    objective units. Fronts of size <= 1 score 0."""
    pts = front.as_array()
    if len(pts) <= 1:
        return 0.0
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def infer_reference(observed: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Componentwise max of observed objectives, inflated by 10% of each range
    (or +1.0 where the range is zero). Recomputed every optimizer iteration."""
    pts = _pairs(observed, "infer_reference()")
    if len(pts) == 0:
        raise DataError("cannot infer a reference point from zero observations")
    hi = pts.max(axis=0)
    span = hi - pts.min(axis=0)
    pad = np.where(span > 0, 0.1 * span, 1.0)
    # a pad below the spacing of floats at hi would round away
    out = np.maximum(hi + pad, np.nextafter(hi, math.inf))
    return (float(out[0]), float(out[1]))


def mc_hypervolume(front: ParetoFront | Sequence[Sequence[float]],
                   ref: Sequence[float], samples: int, seed: int) -> float:
    """Monte-Carlo hypervolume estimate: uniform points in the box spanned by
    the componentwise min of the front and `ref`; dominated fraction x area."""
    if samples < 1:
        raise DataError("samples must be >= 1")
    if not isinstance(front, ParetoFront):
        front = nondominated(front)
    ref = np.asarray(ref, dtype=float)
    pts = front.as_array()
    if len(pts) == 0:
        return 0.0
    lo = np.minimum(pts.min(axis=0), ref)
    box = ref - lo
    area = float(box[0] * box[1])
    if area <= 0:
        return 0.0
    rng = np.random.default_rng(seed)
    u = lo + rng.random((samples, 2)) * box
    dominated = _dominated_mask(pts, u)
    return float(dominated.mean() * area)


def _dominated_mask(front_pts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    # front sorted ascending x / descending y: the lowest front y among points
    # with x <= q_x is the y of the last such point
    xs = front_pts[:, 0]
    ys = front_pts[:, 1]
    pos = np.searchsorted(xs, queries[:, 0], side="right")
    has_left = pos > 0
    best_y = np.full(len(queries), math.inf)
    best_y[has_left] = ys[pos[has_left] - 1]
    return queries[:, 1] >= best_y


def front_to_csv(front: ParetoFront, path: str | Path, node_counts: Sequence[int],
                 iterations: Sequence[int]) -> None:
    """Write front rows as CSV: each point's node count, objectives, and the
    iteration it was found at."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_count", "runtime", "power", "iteration_found"])
        for (a, b), nodes, found in zip(front.points, node_counts, iterations, strict=True):
            writer.writerow([nodes, repr(a), repr(b), found])


_SVG_COLORS = ("#1f6fb2", "#d1495b", "#3f8f4e", "#8f6fb2", "#c98a1e", "#555555")


def fronts_to_svg(named_fronts: dict[str, ParetoFront], path: str | Path,
                  true_front: ParetoFront | None, title: str) -> None:
    """Render overlaid front scatters as a standalone 640 x 480 SVG (no
    plotting deps)."""
    w, h = 640, 480
    margin = 56
    pts_all = [p for f in named_fronts.values() for p in f.points]
    if true_front is not None:
        pts_all.extend(true_front.points)
    if not pts_all:
        xs_lo, xs_hi, ys_lo, ys_hi = 0.0, 1.0, 0.0, 1.0
    else:
        arr = np.asarray(pts_all, dtype=float)
        xs_lo, ys_lo = arr.min(axis=0)
        xs_hi, ys_hi = arr.max(axis=0)
        if xs_hi == xs_lo:
            xs_hi = xs_lo + 1.0
        if ys_hi == ys_lo:
            ys_hi = ys_lo + 1.0

    def sx(x: float) -> float:
        return margin + (x - xs_lo) / (xs_hi - xs_lo) * (w - 2 * margin)

    def sy(y: float) -> float:
        return h - margin - (y - ys_lo) / (ys_hi - ys_lo) * (h - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" '
        'stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" '
        'stroke="black"/>',
        f'<text x="{w / 2:.1f}" y="{h - 12}" text-anchor="middle" font-size="12">'
        "runtime (s)</text>",
        f'<text x="16" y="{h / 2:.1f}" font-size="12" '
        f'transform="rotate(-90 16 {h / 2:.1f})" text-anchor="middle">power (W)</text>',
    ]
    for k, label in enumerate((f"{xs_lo:.4g}", f"{xs_hi:.4g}")):
        x = margin if k == 0 else w - margin
        parts.append(
            f'<text x="{x}" y="{h - margin + 16}" text-anchor="middle" '
            f'font-size="10">{label}</text>'
        )
    for k, label in enumerate((f"{ys_lo:.4g}", f"{ys_hi:.4g}")):
        y = h - margin if k == 0 else margin
        parts.append(
            f'<text x="{margin - 6}" y="{y + 3}" text-anchor="end" '
            f'font-size="10">{label}</text>'
        )
    if true_front is not None and len(true_front) > 0:
        path_pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in true_front.points)
        parts.append(
            f'<polyline points="{path_pts}" fill="none" stroke="#999999" '
            'stroke-dasharray="4 3"/>'
        )
    legend_y = margin
    for i, (name, front) in enumerate(named_fronts.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        for a, b in front.points:
            parts.append(
                f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3.5" fill="{color}" '
                'fill-opacity="0.75"/>'
            )
        parts.append(
            f'<rect x="{w - margin - 140}" y="{legend_y}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{w - margin - 124}" y="{legend_y + 9}" font-size="11">{name}</text>'
        )
        legend_y += 16
    if true_front is not None:
        parts.append(
            f'<text x="{w - margin - 124}" y="{legend_y + 9}" font-size="11" '
            'fill="#777777">true front (dashed)</text>'
        )
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts), encoding="utf-8")
