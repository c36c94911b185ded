"""Deterministic SVG scatter plots for two-dimensional worlds.

Hand-built SVG keeps the bytes reproducible run-to-run (no library metadata,
no timestamps), which the determinism guarantees of the harness rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import RenderError
from .world import MixtureWorld

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")
_W, _H, _MARGIN = 640, 480, 54


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_scatter(
    points: np.ndarray,
    labels: list[dict[str, str]],
    world: MixtureWorld,
    out_path: str,
    attribute: str | None = None,
) -> None:
    """Scatter the samples colored by one attribute's discriminated value.

    Component means are drawn as crosses with their concept name; a legend
    lists every attribute value present among the samples.
    """
    if world.dimension != 2:
        raise RenderError(
            f"scatter rendering supports dimension 2 only, world has {world.dimension}"
        )
    points = np.asarray(points, dtype=float)
    if points.shape != (len(labels), 2):
        raise RenderError(f"points of shape {points.shape} for {len(labels)} label rows, "
                          f"expected ({len(labels)}, 2)")
    if attribute is None and len(world.schema) > 0:
        attribute = world.schema.attributes[0].name
    if attribute is not None:
        values = world.schema.values_of(attribute)
        color_of = {v: _PALETTE[i % len(_PALETTE)] for i, v in enumerate(values)}
    else:
        values, color_of = (), {}

    means = np.array([c.mean for c in world.components])
    stack = np.vstack([points, means]) if len(points) else means
    lo = stack.min(axis=0) - 1.0
    hi = stack.max(axis=0) + 1.0

    def sx(x):
        return _MARGIN + (x - lo[0]) / (hi[0] - lo[0]) * (_W - 2 * _MARGIN)

    def sy(y):
        return _H - _MARGIN - (y - lo[1]) / (hi[1] - lo[1]) * (_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="#222" stroke-width="1"/>',
    ]
    for i in range(5):
        fx = lo[0] + (hi[0] - lo[0]) * i / 4
        fy = lo[1] + (hi[1] - lo[1]) * i / 4
        parts.append(
            f'<text x="{_fmt(sx(fx))}" y="{_H - _MARGIN + 16}" font-size="10" '
            f'text-anchor="middle" fill="#222">{fx:.3g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{_fmt(sy(fy) + 3)}" font-size="10" '
            f'text-anchor="end" fill="#222">{fy:.3g}</text>'
        )
    for p, row in zip(points, labels):
        color = color_of.get(row.get(attribute, ""), "#555555") if attribute else "#555555"
        parts.append(
            f'<circle cx="{_fmt(sx(p[0]))}" cy="{_fmt(sy(p[1]))}" r="2.5" '
            f'fill="{color}" fill-opacity="0.55"/>'
        )
    for c in world.components:
        x, y = sx(c.mean[0]), sy(c.mean[1])
        parts.append(
            f'<path d="M {_fmt(x - 5)} {_fmt(y - 5)} L {_fmt(x + 5)} {_fmt(y + 5)} '
            f'M {_fmt(x - 5)} {_fmt(y + 5)} L {_fmt(x + 5)} {_fmt(y - 5)}" '
            f'stroke="black" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + 7)}" y="{_fmt(y - 7)}" font-size="10" '
            f'fill="#222">{c.concept}</text>'
        )
    present = [v for v in values if any(row.get(attribute) == v for row in labels)]
    for k, v in enumerate(present):
        y = _MARGIN + 14 + 16 * k
        parts.append(
            f'<rect x="{_W - _MARGIN - 110}" y="{y - 9}" width="10" height="10" '
            f'fill="{color_of[v]}"/>'
        )
        parts.append(
            f'<text x="{_W - _MARGIN - 96}" y="{y}" font-size="11" fill="#222">'
            f'{attribute}={v}</text>'
        )
    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
