"""Small deterministic SVG line plots.

Writes the document directly instead of pulling in a plotting stack; the
output is a pure function of the input data, which keeps run artifacts
byte-stable under replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyPlot, InvalidValue


def _escape(text: str) -> str:
    """Text as XML character data: &, < and > become entities."""
    return text.replace("&", "&amp;").replace(">", "&gt;") \
        .replace("<", "&lt;")


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_TICKS = 6  # about this many ticks per axis
# keep documents small on long runs; polylines carry no extra detail
# beyond screen resolution anyway
MAX_POINTS_PER_SERIES = 2000


# the canvas, its margins around the plot area and the series' lines
WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 20, 36, 48
STROKE_WIDTH = 1.5


@dataclass(frozen=True)
class PlotStyle:
    title: str = ""
    x_label: str = "t"
    y_label: str = ""


def ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi], 1-2-5 spaced, about
    _TICKS of them."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise InvalidValue(f"bad tick range [{lo}, {hi}]")
    if hi == lo:
        return [lo]
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    frac = raw / mag
    if frac <= 1.0:
        nice = 1.0
    elif frac <= 2.0:
        nice = 2.0
    elif frac <= 5.0:
        nice = 5.0
    else:
        nice = 10.0
    step = nice * mag
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    return [round(k * step, 12) for k in range(first, last + 1)]


def _fmt_tick(v: float) -> str:
    return "%.10g" % v


def _expand(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return lo, hi
    pad = max(0.5, 0.1 * abs(lo))
    return lo - pad, hi + pad


def _thin(pts: np.ndarray) -> np.ndarray:
    k = len(pts)
    if k <= MAX_POINTS_PER_SERIES:
        return pts
    stride = -(-k // MAX_POINTS_PER_SERIES)
    kept = pts[::stride]
    if not np.array_equal(kept[-1], pts[-1]):
        kept = np.vstack([kept, pts[-1]])
    return kept


def _coerce(series) -> list[tuple[str, np.ndarray]]:
    if not series:
        raise EmptyPlot("nothing to plot")
    out = []
    for label, pts in series:
        arr = np.asarray(pts, dtype=float)
        if arr.size == 0:
            raise EmptyPlot(f"series {label!r} has no points")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidValue(
                f"series {label!r} must be a sequence of (t, value) pairs")
        if not np.all(np.isfinite(arr)):
            raise InvalidValue(f"series {label!r} has non-finite entries")
        out.append((str(label), arr))
    return out


def plot_svg(series: Sequence[tuple[str, Sequence]],
             style: Optional[PlotStyle] = None) -> str:
    """Standalone SVG with axes, ticks, one polyline per series, legend.

    `series` is a list of (label, points) with points shaped (k, 2) as
    (t, value) rows. Long series are thinned to a fixed pixel budget.
    Output is deterministic for identical input.
    """
    style = style or PlotStyle()
    data = _coerce(series)

    x_lo = min(float(a[:, 0].min()) for _, a in data)
    x_hi = max(float(a[:, 0].max()) for _, a in data)
    y_lo = min(float(a[:, 1].min()) for _, a in data)
    y_hi = max(float(a[:, 1].max()) for _, a in data)
    x_lo, x_hi = _expand(x_lo, x_hi)
    y_lo, y_hi = _expand(y_lo, y_hi)

    px0, px1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    py0, py1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP

    def to_px(a: np.ndarray) -> np.ndarray:
        x = px0 + (a[:, 0] - x_lo) / (x_hi - x_lo) * (px1 - px0)
        y = py0 + (a[:, 1] - y_lo) / (y_hi - y_lo) * (py1 - py0)
        return np.stack([x, y], axis=1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    for tx in ticks(x_lo, x_hi):
        px = px0 + (tx - x_lo) / (x_hi - x_lo) * (px1 - px0)
        parts.append(f'<line x1="{px:.2f}" y1="{py0:.2f}" x2="{px:.2f}" '
                     f'y2="{py1:.2f}" stroke="#e0e0e0" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{py0 + 18:.2f}" '
                     f'font-size="12" text-anchor="middle" '
                     f'fill="#444444">{_fmt_tick(tx)}</text>')
    for ty in ticks(y_lo, y_hi):
        py = py0 + (ty - y_lo) / (y_hi - y_lo) * (py1 - py0)
        parts.append(f'<line x1="{px0:.2f}" y1="{py:.2f}" x2="{px1:.2f}" '
                     f'y2="{py:.2f}" stroke="#e0e0e0" stroke-width="1"/>')
        parts.append(f'<text x="{px0 - 6:.2f}" y="{py + 4:.2f}" '
                     f'font-size="12" text-anchor="end" '
                     f'fill="#444444">{_fmt_tick(ty)}</text>')

    parts.append(f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" '
                 f'height="{py0 - py1}" fill="none" stroke="#222222" '
                 f'stroke-width="1"/>')

    for i, (label, arr) in enumerate(data):
        color = PALETTE[i % len(PALETTE)]
        pix = to_px(_thin(arr))
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pix.tolist())
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="{STROKE_WIDTH}" '
                     f'points="{coords}"/>')

    lx, ly = px1 - 150, py1 + 14
    for i, (label, _) in enumerate(data):
        color = PALETTE[i % len(PALETTE)]
        yy = ly + 18 * i
        parts.append(f'<line x1="{lx:.2f}" y1="{yy - 4:.2f}" '
                     f'x2="{lx + 24:.2f}" y2="{yy - 4:.2f}" '
                     f'stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{lx + 30:.2f}" y="{yy:.2f}" '
                     f'font-size="12" fill="#222222">'
                     f'{_escape(label)}</text>')

    if style.title:
        parts.append(f'<text x="{WIDTH / 2:.2f}" y="22" '
                     f'font-size="15" text-anchor="middle" '
                     f'fill="#111111">{_escape(style.title)}</text>')
    parts.append(f'<text x="{(px0 + px1) / 2:.2f}" '
                 f'y="{HEIGHT - 12:.2f}" font-size="13" '
                 f'text-anchor="middle" fill="#222222">'
                 f'{_escape(style.x_label)}</text>')
    if style.y_label:
        parts.append(f'<text x="16" y="{(py0 + py1) / 2:.2f}" '
                     f'font-size="13" text-anchor="middle" '
                     f'fill="#222222" transform="rotate(-90 16 '
                     f'{(py0 + py1) / 2:.2f})">'
                     f'{_escape(style.y_label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def trajectory_series(traj, labels=None):
    """(label, (t, value)) pairs from a stored trajectory.

    Angle columns are unwrapped so circulation shows as a sloped line
    instead of sawtooth jumps.
    """
    layout = traj.layout
    if labels is None:
        labels = layout.labels
    out = []
    for lab in labels:
        slot = layout.slot_of(lab)
        col = traj.states[:, slot]
        if slot in layout.angle_slots:
            col = np.unwrap(col)
        out.append((lab, np.stack([traj.times, col], axis=1)))
    return out
