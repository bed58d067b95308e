"""Geometry of mixed real/angular phase spaces.

A point lives on R^a x T^b; which slots are angular is recorded once in a
CoordinateLayout and shared by every point, trajectory, and domain built on
it. Angles are canonically wrapped to (-pi, pi]. Distances combine the
Euclidean metric on real slots with shortest-arc length on angular slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidValue, LayoutMismatch

TWO_PI = 2.0 * math.pi
# n * TWO_PI is exact for |n| <= 8: the double of 2*pi ends in three zero
# bits (0x401921FB54442D18), so it times an integer of three bits, or 8,
# still fits in 53
_EXACT_TURNS = 8 * TWO_PI


def wrap_angle(theta: float) -> float:
    """Wrap a single angle to the canonical interval (-pi, pi].

    Parameters
    ----------
    theta : float
        Angle in radians; must be finite.

    Returns
    -------
    float
        The representative of theta mod 2*pi lying in (-pi, pi].

    Examples
    --------
    >>> wrap_angle(3 * math.pi)
    3.141592653589793
    >>> wrap_angle(-math.pi)
    3.141592653589793
    """
    if not math.isfinite(theta):
        raise InvalidValue(f"cannot wrap non-finite angle {theta!r}")
    if -math.pi < theta <= math.pi:
        return theta  # already canonical; do not perturb the bits
    return math.pi - (math.pi - theta) % TWO_PI


def wrap_angles(values: np.ndarray, angle_mask: np.ndarray) -> np.ndarray:
    """Wrap the masked slots of an array of states; other slots pass through.

    Works on any shape (..., dim) with angle_mask of shape (dim,).
    """
    out = np.array(values, dtype=float, copy=True)
    if angle_mask.any():
        a = out[..., angle_mask]
        # leave in-range entries untouched so wrapping is bitwise
        # idempotent and storage never perturbs a canonical angle
        wrapped = np.pi - np.remainder(np.pi - a, TWO_PI)
        out[..., angle_mask] = np.where((a > -np.pi) & (a <= np.pi),
                                        a, wrapped)
    return out


@dataclass(frozen=True)
class CoordinateLayout:
    """Names the slots of a phase space and marks which ones are angles.

    Parameters
    ----------
    labels : tuple of str
        One label per slot, all distinct, ASCII.
    angle_slots : frozenset of int
        Indices of the angular slots.
    """

    labels: tuple[str, ...]
    angle_slots: frozenset[int]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise InvalidValue("layout labels must be distinct")
        for lab in self.labels:
            if not lab or not lab.isascii():
                raise InvalidValue(f"bad slot label {lab!r}")
        for s in self.angle_slots:
            if not 0 <= s < len(self.labels):
                raise InvalidValue(f"angle slot {s} out of range")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def is_angle(self, slot: int) -> bool:
        return slot in self.angle_slots

    @cached_property
    def angle_mask(self) -> np.ndarray:
        mask = np.zeros(self.dim, dtype=bool)
        mask[list(self.angle_slots)] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def angle_index(self):
        """The angle slots as a slice when they are contiguous, as in every
        family, else as angle_mask."""
        lo = min(self.angle_slots, default=0)
        hi = max(self.angle_slots, default=-1) + 1
        if hi - lo == len(self.angle_slots):
            return slice(lo, hi)
        return self.angle_mask

    def slot_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidValue(f"no slot labelled {label!r}") from None


@dataclass(frozen=True, eq=False)
class MixedPoint:
    """A single state: a layout plus one coordinate per slot.

    Construct through `MixedPoint.of`, which wraps angular slots and rejects
    non-finite input. coords is a read-only float array of shape (dim,).
    """

    layout: CoordinateLayout
    coords: np.ndarray

    @classmethod
    def of(cls, layout: CoordinateLayout, values) -> "MixedPoint":
        arr = np.asarray(values, dtype=float)
        if arr.shape != (layout.dim,):
            raise InvalidValue(
                f"expected {layout.dim} coordinates, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidValue("coordinates must be finite")
        arr = wrap_angles(arr, layout.angle_mask)
        arr.setflags(write=False)
        return cls(layout, arr)

    def __getitem__(self, slot) -> float:
        """Coordinate by index or by label."""
        if isinstance(slot, str):
            slot = self.layout.slot_of(slot)
        return float(self.coords[slot])

    def __repr__(self):
        inner = ", ".join(f"{lab}={v:.6g}"
                          for lab, v in zip(self.layout.labels, self.coords))
        return f"MixedPoint({inner})"


def shortest_arcs(d: np.ndarray) -> np.ndarray:
    """The angle differences d, a float array, wrapped in place to the
    signed shortest arc: pi - remainder(pi - d, 2*pi), bit for bit.

    numpy's remainder, libm's fmod and then 2*pi added to a negative
    result, costs some 30 additions an element, so it is taken only
    where it must be. When every a = pi - d lies in [0, 2*pi) it returns
    a itself, and is skipped; a zero of either sign then gives pi, as
    the remainder's +0 does. When every a lies within 8 turns of 0, it
    is a - floor(a / 2*pi) * 2*pi, to the bit:
    - q = floor(a / 2*pi) is the true floor n of a / 2*pi. Rounding
      could carry the quotient up to k = n + 1 only if a lay within pi
      spacings of the doubles at k of k * 2*pi. But k * 2*pi is a double
      of a binade 4 or 8 times k's, where doubles lie 4 or 8 such
      spacings apart, and a is another double. (A subnormal a < 0 would
      give q = 0 through a quotient of -0.0; pi - d is never one.)
    - n * 2*pi is exact for |n| <= 8 (see _EXACT_TURNS), so the result is
      a - n * 2*pi rounded once: for a >= 0, fmod's exact result; for
      a < 0, the sum numpy rounds when it adds 2*pi to fmod's exact
      a - (n + 1) * 2*pi, which is 2*pi itself for a tiny negative a,
      or the +0.0 numpy gives where fmod's is -0.0.
    An array that reaches past 8 turns, or holds a nan or an inf, takes
    numpy's remainder.
    """
    a = np.subtract(np.pi, d, out=d)
    lo, hi = a.min(initial=0.0), a.max(initial=0.0)
    if not (lo >= 0.0 and hi < TWO_PI):
        if -_EXACT_TURNS <= lo and hi <= _EXACT_TURNS:
            q = np.divide(a, TWO_PI)
            np.floor(q, out=q)
            q *= TWO_PI
            a -= q
        else:
            np.remainder(a, TWO_PI, out=a)
    return np.subtract(np.pi, a, out=a)


def component_distances(layout: CoordinateLayout,
                        a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-slot distances |a - b|, shortest-arc on angular slots.

    a and b broadcast against each other; trailing axis is the slot axis.
    """
    d = np.subtract(a, b, dtype=float)
    idx = layout.angle_index
    d[..., idx] = shortest_arcs(d[..., idx])
    return np.abs(d, out=d)


def torus_distance_batch(layout: CoordinateLayout,
                         a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance on R^a x T^b for stacked states; returns shape (...).

    The root-sum-square of the per-slot distances: shortest-arc length on
    angular slots, |a_i - b_i| on real slots. A product of metrics, so
    symmetric, zero iff the states coincide mod 2*pi, and satisfying the
    triangle inequality.
    """
    d = component_distances(layout, a, b)
    d *= d
    return np.sqrt(d.sum(axis=-1))


Interval = tuple[float, float]


@dataclass(frozen=True)
class ModularDomain:
    """A per-slot box, open in every constrained slot.

    intervals has one entry per slot: either None (unconstrained) or an open
    interval (lo, hi). On angular slots the interval is read modulo 2*pi, so
    one at least 2*pi wide admits every angle, as None does (`subdomain_of`
    and the survey's retire test read it so).
    """

    intervals: tuple[Optional[Interval], ...]

    def __post_init__(self):
        for iv in self.intervals:
            if iv is None:
                continue
            lo, hi = iv
            if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
                raise InvalidValue(f"bad interval {iv!r}")

    @property
    def dim(self) -> int:
        return len(self.intervals)


def subdomain_of(inner: ModularDomain, outer: ModularDomain,
                 layout: CoordinateLayout) -> bool:
    """True if every point admitted by `inner` is admitted by `outer`."""
    if inner.dim != outer.dim or inner.dim != layout.dim:
        raise LayoutMismatch("domain/layout dimensions disagree")
    for slot in range(layout.dim):
        out_iv = outer.intervals[slot]
        if out_iv is None:
            continue
        in_iv = inner.intervals[slot]
        o_lo, o_hi = out_iv
        if in_iv is None:
            # unconstrained slot: full circle (angular) or full line
            if not layout.is_angle(slot):
                return False
            if o_hi - o_lo < TWO_PI - 1e-15:
                return False
            continue
        i_lo, i_hi = in_iv
        if layout.is_angle(slot):
            shift = (i_lo - o_lo) % TWO_PI
            if shift + (i_hi - i_lo) > (o_hi - o_lo) + 1e-12:
                return False
        else:
            if i_lo < o_lo - 1e-12 or i_hi > o_hi + 1e-12:
                return False
    return True
