"""Catalog of dynamical families built around a single Kronecker torus.

Four families are shipped, in two mirrored pairs:

``ham-unique``
    Hamiltonian flow on R^(2n+2m+2) with coordinates
    (u_1..u_n, phi_1..phi_n, x, y, p_1..p_m, q_1..q_m), phi angular.
    The torus {u = 0, x = y = 0, p = q = 0} carries linear flow with
    frequency omega and is the only invariant torus of the system; every
    other orbit escapes in finite time.
``ham-compact``
    The same construction pushed onto the torus T^(2n+2m+2) by replacing
    each non-angle coordinate z with sin(z) in the Hamiltonian. All slots
    become angular; the canonical torus is isolated rather than unique,
    with a lattice of 2^(n+2m+2) "delta" copies at coordinates 0 or pi.
``rev-unique`` / ``rev-compact``
    Reversible (non-Hamiltonian) analogues on T^n x R^(l+m+1) and
    T^(n+l+m+1), coordinates (phi_1..phi_n, v_1..v_l, y, q_1..q_m), with
    the involution negating (phi, y, q).

All evaluators are vectorized: they accept a state of shape (dim,) or a
batch (..., dim) and return matching shapes. The compact families are the
unique ones read through sin: their evaluators call the unique family's at
sin(s), and the chain rule supplies the derivatives.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    DegenerateOffset,
    InvalidParams,
    InvalidValue,
    LayoutMismatch,
    NotCompact,
    NotHamiltonian,
)
from .phase import CoordinateLayout, MixedPoint, ModularDomain, wrap_angle

HAM_UNIQUE = "ham-unique"
HAM_COMPACT = "ham-compact"
REV_UNIQUE = "rev-unique"
REV_COMPACT = "rev-compact"
FAMILIES = (HAM_UNIQUE, HAM_COMPACT, REV_UNIQUE, REV_COMPACT)

# decoupled rotator x harmonic oscillator, used as a negative control for
# the monodromy/fixed-point machinery (multipliers off the unit value 1)
CONTROL = "control"

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class SystemParams:
    """Parameters selecting one member of a family.

    n counts angles phi, m counts (p, q) pairs. l counts the v slots of the
    reversible families and must be None for Hamiltonian ones. omega is the
    torus frequency vector, length n.
    """

    family: str
    n: int
    m: int = 0
    l: Optional[int] = None
    omega: tuple[float, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES + (CONTROL,):
            raise InvalidParams(f"unknown family {self.family!r}")
        hamiltonian = self.family in (HAM_UNIQUE, HAM_COMPACT, CONTROL)
        if not isinstance(self.n, int) or self.n < 0:
            raise InvalidParams("n must be a non-negative integer")
        if hamiltonian and self.n < 1:
            raise InvalidParams("Hamiltonian families require n >= 1")
        if not isinstance(self.m, int) or self.m < 0:
            raise InvalidParams("m must be a non-negative integer")
        if hamiltonian:
            if self.l is not None:
                raise InvalidParams("l is only meaningful for reversible "
                                    "families; pass l=None")
        else:
            if not isinstance(self.l, int) or self.l < 0:
                raise InvalidParams("reversible families require l >= 0")
        if self.family == CONTROL and (self.n, self.m) != (1, 0):
            raise InvalidParams("the control fixture is fixed at n=1, m=0")
        if len(self.omega) != self.n:
            raise InvalidParams(
                f"omega must have length n={self.n}, got {len(self.omega)}")
        for w in self.omega:
            if not math.isfinite(w):
                raise InvalidParams("omega entries must be finite")
        object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))


class _Slots(NamedTuple):
    """Index bookkeeping for one layout; slices are empty when absent.

    A NamedTuple, not a frozen dataclass: slices are unhashable before
    Python 3.12, and from 3.11 on a dataclass rejects an unhashable plain
    default, so ``slice(0, 0)`` defaults would fail at import there. A
    NamedTuple takes any default on every supported version.
    """

    phi: slice
    y: int
    u: slice = slice(0, 0)
    x: Optional[int] = None
    p: slice = slice(0, 0)
    q: slice = slice(0, 0)
    v: slice = slice(0, 0)


@dataclass(frozen=True, eq=False)
class System:
    """A family member: layout, evaluators, and structural metadata.

    The callables all take raw arrays of shape (..., dim). Point-level
    wrappers with layout checking live at module level (eval_field and
    friends).
    """

    params: SystemParams
    layout: CoordinateLayout
    slots: _Slots
    canonical_pairing: tuple[tuple[int, int], ...]
    involution_signs: np.ndarray
    integral_names: tuple[str, ...]
    _field: Callable[[np.ndarray], np.ndarray]
    _hamiltonian: Optional[Callable[[np.ndarray], np.ndarray]]
    _integrals: Callable[[np.ndarray], np.ndarray]
    _integral_gradients: Callable[[np.ndarray], np.ndarray]
    _jacobian: Callable[[np.ndarray], np.ndarray]

    @property
    def family(self) -> str:
        return self.params.family

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def is_hamiltonian(self) -> bool:
        return self._hamiltonian is not None

    @property
    def is_compact(self) -> bool:
        return self.family in (HAM_COMPACT, REV_COMPACT)

    def field(self, states: np.ndarray) -> np.ndarray:
        """Right-hand side at one state or a batch of states."""
        return self._field(np.asarray(states, dtype=float))

    def hamiltonian(self, states: np.ndarray) -> np.ndarray:
        if self._hamiltonian is None:
            raise NotHamiltonian(
                f"family {self.family!r} has no Hamiltonian")
        return self._hamiltonian(np.asarray(states, dtype=float))

    def integrals(self, states: np.ndarray) -> np.ndarray:
        """Values of all first integrals, stacked on a trailing axis."""
        return self._integrals(np.asarray(states, dtype=float))

    def integral_gradients(self, states: np.ndarray) -> np.ndarray:
        """Exact gradients, shape (..., n_integrals, dim)."""
        return self._integral_gradients(np.asarray(states, dtype=float))

    def involution(self, states: np.ndarray) -> np.ndarray:
        """The reversing involution applied to raw states (no wrapping)."""
        return np.asarray(states, dtype=float) * self.involution_signs

    def jacobian(self, state: np.ndarray) -> np.ndarray:
        """Exact field Jacobian at a single state, shape (dim, dim)."""
        state = np.asarray(state, dtype=float)
        if state.shape != (self.dim,):
            raise InvalidValue("jacobian takes a single state")
        return self._jacobian(state)

    def lyapunov_rate(self, states: np.ndarray) -> np.ndarray:
        """Time derivative of the escape certificate y + sum(q)."""
        r = self.field(states)
        out = r[..., self.slots.y]
        if self.slots.q.stop > self.slots.q.start:
            out = out + r[..., self.slots.q].sum(axis=-1)
        return out


@dataclass(frozen=True)
class TorusSpec:
    """An invariant torus given by pinned slots plus free angles.

    pinned maps slot index -> fixed value; free_angles lists the slots that
    parameterize the torus; frequency lists the constant angular rate on
    each free slot, in the same order.
    """

    layout: CoordinateLayout
    pinned: tuple[tuple[int, float], ...]
    free_angles: tuple[int, ...]
    frequency: tuple[float, ...]

    @property
    def free_slots(self) -> tuple[int, ...]:
        return self.free_angles


@dataclass(frozen=True)
class NearbyTorusSpec:
    """A lower-dimensional invariant torus off the canonical one.

    Pins the offset slots and releases y alongside the phi angles; the
    released slots circulate with the rates in predicted_frequency
    (phi rates first, then the y rate).
    """

    layout: CoordinateLayout
    pinned: tuple[tuple[int, float], ...]
    circulating: tuple[int, ...]
    offset: tuple[float, ...]
    zeta: float
    predicted_frequency: tuple[float, ...]

    @property
    def free_slots(self) -> tuple[int, ...]:
        return self.circulating


# ---------------------------------------------------------------------------
# family constructors


def _ham_layout(n: int, m: int):
    labels = tuple([f"u_{i + 1}" for i in range(n)]
                   + [f"phi_{i + 1}" for i in range(n)]
                   + ["x", "y"]
                   + [f"p_{j + 1}" for j in range(m)]
                   + [f"q_{j + 1}" for j in range(m)])
    angle = frozenset(range(n, 2 * n))
    slots = _Slots(phi=slice(n, 2 * n), y=2 * n + 1,
                   u=slice(0, n), x=2 * n,
                   p=slice(2 * n + 2, 2 * n + 2 + m),
                   q=slice(2 * n + 2 + m, 2 * n + 2 + 2 * m))
    return CoordinateLayout(labels=labels, angle_slots=angle), slots


def _rev_layout(n: int, l: int, m: int):
    labels = tuple([f"phi_{i + 1}" for i in range(n)]
                   + [f"v_{k + 1}" for k in range(l)]
                   + ["y"]
                   + [f"q_{j + 1}" for j in range(m)])
    angle = frozenset(range(n))
    slots = _Slots(phi=slice(0, n), y=n + l,
                   v=slice(n, n + l),
                   q=slice(n + l + 1, n + l + 1 + m))
    return CoordinateLayout(labels=labels, angle_slots=angle), slots


def _signs_for(layout, slots) -> np.ndarray:
    # the reversing involution negates phi, y, and q; fixes u, x, p, v
    sgn = np.ones(layout.dim)
    sgn[slots.phi] = -1.0
    sgn[slots.y] = -1.0
    sgn[slots.q] = -1.0
    sgn.setflags(write=False)
    return sgn


def _build_ham_unique(par: SystemParams) -> System:
    n, m = par.n, par.m
    omega = np.array(par.omega)
    layout, sl = _ham_layout(n, m)
    dim = layout.dim
    iu, iphi, ix, iy, ip, iq = sl.u, sl.phi, sl.x, sl.y, sl.p, sl.q

    def rhs(s):
        u = s[..., iu]
        x = s[..., ix]
        y = s[..., iy]
        p = s[..., ip]
        q = s[..., iq]
        r = np.zeros_like(s)
        r[..., iphi] = omega + 2.0 * x[..., None] * u
        r[..., ix] = -2.0 * x * y
        r[..., iy] = (u * u).sum(-1) + x * x + y * y
        r[..., ip] = -2.0 * p * q
        r[..., iq] = p * p + q * q
        return r

    def ham(s):
        u = s[..., iu]
        x = s[..., ix]
        y = s[..., iy]
        p = s[..., ip]
        q = s[..., iq]
        return ((omega * u).sum(-1) + x * (u * u).sum(-1)
                + x ** 3 / 3.0 + x * y * y
                + (p ** 3 / 3.0 + p * q * q).sum(-1))

    def integrals(s):
        p = s[..., ip]
        q = s[..., iq]
        return np.concatenate(
            [ham(s)[..., None], s[..., iu], p ** 3 / 3.0 + p * q * q],
            axis=-1)

    def gradients(s):
        u = s[..., iu]
        x = s[..., ix]
        y = s[..., iy]
        p = s[..., ip]
        q = s[..., iq]
        G = np.zeros(s.shape[:-1] + (1 + n + m, dim))
        # gradient of H, written with the same subexpressions as the field
        # so that Poisson cancellations are exact in floating point
        G[..., 0, iu] = omega + 2.0 * x[..., None] * u
        G[..., 0, ix] = (u * u).sum(-1) + x * x + y * y
        G[..., 0, iy] = 2.0 * x * y
        G[..., 0, ip] = p * p + q * q
        G[..., 0, iq] = 2.0 * p * q
        for i in range(n):
            G[..., 1 + i, iu.start + i] = 1.0
        for j in range(m):
            pj = p[..., j]
            qj = q[..., j]
            G[..., 1 + n + j, ip.start + j] = pj * pj + qj * qj
            G[..., 1 + n + j, iq.start + j] = 2.0 * pj * qj
        return G

    def jac(s):
        u = s[iu]
        x = s[ix]
        y = s[iy]
        p = s[ip]
        q = s[iq]
        J = np.zeros((dim, dim))
        for i in range(n):
            J[iphi.start + i, iu.start + i] = 2.0 * x
            J[iphi.start + i, ix] = 2.0 * u[i]
        J[ix, ix] = -2.0 * y
        J[ix, iy] = -2.0 * x
        J[iy, iu] = 2.0 * u
        J[iy, ix] = 2.0 * x
        J[iy, iy] = 2.0 * y
        for j in range(m):
            J[ip.start + j, ip.start + j] = -2.0 * q[j]
            J[ip.start + j, iq.start + j] = -2.0 * p[j]
            J[iq.start + j, ip.start + j] = 2.0 * p[j]
            J[iq.start + j, iq.start + j] = 2.0 * q[j]
        return J

    names = (("H",) + tuple(f"u_{i + 1}" for i in range(n))
             + tuple(f"cubic_{j + 1}" for j in range(m)))
    pairing = (tuple((iphi.start + i, iu.start + i) for i in range(n))
               + ((iy, ix),)
               + tuple((iq.start + j, ip.start + j) for j in range(m)))
    return System(params=par, layout=layout, slots=sl,
                  canonical_pairing=pairing,
                  involution_signs=_signs_for(layout, sl),
                  integral_names=names,
                  _field=rhs, _hamiltonian=ham, _integrals=integrals,
                  _integral_gradients=gradients, _jacobian=jac)


def _build_rev(par: SystemParams) -> System:
    n, l, m = par.n, par.l, par.m
    omega = np.array(par.omega)
    layout, sl = _rev_layout(n, l, m)
    dim = layout.dim
    iphi, iv, iy, iq = sl.phi, sl.v, sl.y, sl.q

    def rhs(s):
        r = np.zeros_like(s)
        r[..., iphi] = omega
        v = s[..., iv]
        y = s[..., iy]
        q = s[..., iq]
        r[..., iy] = (v * v).sum(-1) + y * y + (q * q).sum(-1)
        return r

    # v_k and q_j are conserved (their rates vanish identically)
    def integrals(s):
        return np.concatenate([s[..., iv], s[..., iq]], axis=-1)

    def gradients(s):
        K = l + m
        G = np.zeros(s.shape[:-1] + (K, dim))
        for k in range(l):
            G[..., k, iv.start + k] = 1.0
        for j in range(m):
            G[..., l + j, iq.start + j] = 1.0
        return G

    def jac(s):
        J = np.zeros((dim, dim))
        v = s[iv]
        y = s[iy]
        q = s[iq]
        J[iy, iv] = 2.0 * v
        J[iy, iy] = 2.0 * y
        J[iy, iq] = 2.0 * q
        return J

    names = (tuple(f"v_{k + 1}" for k in range(l))
             + tuple(f"q_{j + 1}" for j in range(m)))
    return System(params=par, layout=layout, slots=sl,
                  canonical_pairing=(),
                  involution_signs=_signs_for(layout, sl),
                  integral_names=names,
                  _field=rhs, _hamiltonian=None, _integrals=integrals,
                  _integral_gradients=gradients, _jacobian=jac)


def _compactify(base: System, par: SystemParams) -> System:
    """The compact family of `base`: every slot z is read through sin(z).

    With S = sin(s) and C = cos(s), the Hamiltonian and the integrals are
    the base ones at S, and the chain rule gives their gradients as the
    base ones at S times C. A Hamiltonian rate is the derivative of H along
    the partner of its slot (the other member of its canonical pair), so it
    picks up C at that partner; a reversible field is the base one at S.
    The paper substitutes only the non-angle coordinates; no unique family
    depends on its angles, so reading them through sin as well changes
    nothing.
    """
    slots = np.arange(base.dim)
    partner = slots.copy()
    for a, b in base.canonical_pairing:
        partner[a], partner[b] = b, a

    if base._hamiltonian is None:
        ham = None

        def rhs(s):
            return base._field(np.sin(s))

        def jac(s):
            return base._jacobian(np.sin(s)) * np.cos(s)
    else:
        def ham(s):
            return base._hamiltonian(np.sin(s))

        def rhs(s):
            return np.cos(s[..., partner]) * base._field(np.sin(s))

        def jac(s):
            S, C = np.sin(s), np.cos(s)
            J = C[partner, None] * base._jacobian(S) * C
            # the factor C[partner[k]] of rate k differentiates too
            J[slots, partner] -= S[partner] * base._field(S)
            return J

    def integrals(s):
        return base._integrals(np.sin(s))

    def gradients(s):
        return base._integral_gradients(np.sin(s)) * np.cos(s)[..., None, :]

    layout = CoordinateLayout(labels=base.layout.labels,
                              angle_slots=frozenset(range(base.dim)))
    return System(params=par, layout=layout, slots=base.slots,
                  canonical_pairing=base.canonical_pairing,
                  involution_signs=base.involution_signs,
                  integral_names=base.integral_names,
                  _field=rhs, _hamiltonian=ham, _integrals=integrals,
                  _integral_gradients=gradients, _jacobian=jac)


def build_system(params: SystemParams) -> System:
    """Construct a System for one of the four shipped families.

    Examples
    --------
    >>> sys = build_system(SystemParams(HAM_UNIQUE, n=1, m=1, omega=(1.0,)))
    >>> sys.dim, len(sys.layout.angle_slots), len(sys.integral_names)
    (6, 1, 3)
    """
    if params.family == HAM_UNIQUE:
        return _build_ham_unique(params)
    if params.family == HAM_COMPACT:
        return _compactify(_build_ham_unique(params), params)
    if params.family == REV_UNIQUE:
        return _build_rev(params)
    if params.family == REV_COMPACT:
        return _compactify(_build_rev(params), params)
    raise InvalidParams(
        f"build_system only handles {FAMILIES}; "
        f"use build_control_system for the control fixture")


def build_control_system(omega: float = 1.0, nu: float = 0.3) -> System:
    """Decoupled rotator x harmonic oscillator on (u_1, phi_1, x, y).

    Every energy level carries a periodic orbit at x = y = 0 whose
    transverse multipliers are exp(+-i*nu*T), T = 2*pi/omega; used as the
    control against which degenerate monodromy output is compared.
    """
    par = SystemParams(CONTROL, n=1, m=0, omega=(float(omega),))
    layout, sl = _ham_layout(1, 0)
    iu, iphi, ix, iy = sl.u, sl.phi, sl.x, sl.y
    w = float(omega)
    nu = float(nu)

    def rhs(s):
        r = np.zeros_like(s)
        r[..., iphi] = w
        r[..., ix] = -nu * s[..., iy]
        r[..., iy] = nu * s[..., ix]
        return r

    def ham(s):
        x = s[..., ix]
        y = s[..., iy]
        return w * s[..., iu.start] + 0.5 * nu * (x * x + y * y)

    def integrals(s):
        return np.stack([ham(s), s[..., iu.start]], axis=-1)

    def gradients(s):
        G = np.zeros(s.shape[:-1] + (2, 4))
        G[..., 0, iu.start] = w
        G[..., 0, ix] = nu * s[..., ix]
        G[..., 0, iy] = nu * s[..., iy]
        G[..., 1, iu.start] = 1.0
        return G

    def jac(s):
        J = np.zeros((4, 4))
        J[ix, iy] = -nu
        J[iy, ix] = nu
        return J

    return System(params=par, layout=layout, slots=sl,
                  canonical_pairing=((iphi.start, iu.start), (iy, ix)),
                  involution_signs=_signs_for(layout, sl),
                  integral_names=("H", "u_1"),
                  _field=rhs, _hamiltonian=ham, _integrals=integrals,
                  _integral_gradients=gradients, _jacobian=jac)


# ---------------------------------------------------------------------------
# point-level operations


def _check_point(sys: System, p: MixedPoint) -> None:
    if p.layout.labels != sys.layout.labels \
            or p.layout.angle_slots != sys.layout.angle_slots:
        raise LayoutMismatch("point layout does not match system layout")


def eval_field(sys: System, p: MixedPoint) -> np.ndarray:
    """Tangent vector of the flow at p."""
    _check_point(sys, p)
    return sys.field(p.coords)


def eval_hamiltonian(sys: System, p: MixedPoint) -> float:
    """Energy at p; NotHamiltonian for the reversible families."""
    _check_point(sys, p)
    return float(sys.hamiltonian(p.coords))


def eval_integrals(sys: System, p: MixedPoint) -> np.ndarray:
    """All first-integral values at p, ordered as sys.integral_names."""
    _check_point(sys, p)
    return sys.integrals(p.coords)


def apply_involution(sys: System, p: MixedPoint) -> MixedPoint:
    """The reversing involution G (negates phi, y, q) as a point map."""
    _check_point(sys, p)
    return MixedPoint.of(sys.layout, sys.involution(p.coords))


def lyapunov_rate(sys: System, p: MixedPoint) -> float:
    """d/dt of the certificate y + sum(q_j) along the flow at p.

    For ham-unique this equals the squared Euclidean distance of the
    non-angular part from the canonical torus, so it is positive off the
    torus; for the compact variants it is non-negative on the isolation
    domain.
    """
    _check_point(sys, p)
    return float(sys.lyapunov_rate(p.coords))


def canonical_torus(sys: System) -> TorusSpec:
    """The distinguished n-torus: all non-phi slots pinned at zero."""
    free = tuple(range(sys.slots.phi.start, sys.slots.phi.stop))
    pinned = tuple((s, 0.0) for s in range(sys.dim) if s not in free)
    return TorusSpec(layout=sys.layout, pinned=pinned, free_angles=free,
                     frequency=sys.params.omega)


def delta_tori(sys: System) -> tuple[TorusSpec, ...]:
    """All invariant tori with pinned slots at 0 or pi (compact only).

    The first entry is the canonical torus. Frequencies carry the true
    signed rates: pinning u_i at pi reverses the drift of phi_i in the
    Hamiltonian families, while reversible phi rates are unconditionally
    omega.
    """
    if not sys.is_compact:
        raise NotCompact(f"family {sys.family!r} has no delta-torus lattice")
    free = tuple(range(sys.slots.phi.start, sys.slots.phi.stop))
    pinned_slots = tuple(s for s in range(sys.dim) if s not in free)
    u_pos = {sys.slots.u.start + i: i for i in range(sys.params.n)} \
        if sys.family == HAM_COMPACT else {}
    out = []
    for pattern in itertools.product((0.0, math.pi),
                                     repeat=len(pinned_slots)):
        pinned = tuple(zip(pinned_slots, pattern))
        freq = list(sys.params.omega)
        for slot, val in pinned:
            if slot in u_pos and val != 0.0:
                freq[u_pos[slot]] = -freq[u_pos[slot]]
        out.append(TorusSpec(layout=sys.layout, pinned=pinned,
                             free_angles=free, frequency=tuple(freq)))
    return tuple(out)


def nearby_torus(sys: System, offset) -> NearbyTorusSpec:
    """The (n+1)-torus obtained by pinning the action-like slots off zero.

    For ham-compact the offset sets u = u0 with defect
    zeta = sum(sin(u0_i)^2); for rev-compact it sets v = v0 with the
    analogous defect. y joins the angles and circulates with mean rate
    sqrt(zeta * (zeta + 1)). Raises DegenerateOffset when the defect is
    not positive and NotCompact for the non-compact families, whose
    off-torus orbits all escape.
    """
    if not sys.is_compact:
        raise NotCompact(
            f"family {sys.family!r} has no bounded nearby tori")
    offset = tuple(float(v) for v in offset)
    if sys.family == HAM_COMPACT:
        base = sys.slots.u
        extra_zero = ([sys.slots.x]
                      + list(range(sys.slots.p.start, sys.slots.p.stop))
                      + list(range(sys.slots.q.start, sys.slots.q.stop)))
        rates = tuple(w * math.cos(v)
                      for w, v in zip(sys.params.omega, offset))
    else:
        base = sys.slots.v
        extra_zero = list(range(sys.slots.q.start, sys.slots.q.stop))
        rates = sys.params.omega
    if len(offset) != base.stop - base.start:
        raise InvalidValue(
            f"offset needs {base.stop - base.start} entries")
    zeta = float(sum(math.sin(v) ** 2 for v in offset))
    if zeta <= 1e-15:
        raise DegenerateOffset(
            "offset has zero defect; it carries no extra torus")
    pinned = tuple((base.start + i, wrap_angle(v))
                   for i, v in enumerate(offset))
    pinned += tuple((s, 0.0) for s in extra_zero)
    circ = tuple(range(sys.slots.phi.start, sys.slots.phi.stop)) \
        + (sys.slots.y,)
    predicted = tuple(rates) + (math.sqrt(zeta * (zeta + 1.0)),)
    return NearbyTorusSpec(layout=sys.layout, pinned=pinned,
                           circulating=circ, offset=offset, zeta=zeta,
                           predicted_frequency=predicted)


def torus_point(spec, angles=()) -> MixedPoint:
    """A point of the torus: pinned slots fixed, free slots from `angles`."""
    free = spec.free_slots
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.shape != (len(free),):
        raise InvalidValue(
            f"expected {len(free)} free-slot values, got {angles.shape}")
    coords = np.zeros(spec.layout.dim)
    for slot, val in spec.pinned:
        coords[slot] = val
    for slot, val in zip(free, angles):
        coords[slot] = val
    return MixedPoint.of(spec.layout, coords)


def isolation_domain(sys: System) -> ModularDomain:
    """The open box in which the escape certificate is monotone (compact).

    Angular intervals are read modulo 2*pi; phi slots are unconstrained.
    """
    if not sys.is_compact:
        raise NotCompact(
            f"family {sys.family!r} is certified globally, not boxwise")
    iv: list[Optional[tuple[float, float]]] = [None] * sys.dim
    for s in range(sys.slots.u.start, sys.slots.u.stop):
        iv[s] = (-math.pi, math.pi)
    if sys.slots.x is not None and sys.family == HAM_COMPACT:
        iv[sys.slots.x] = (-_HALF_PI, _HALF_PI)
    iv[sys.slots.y] = (-math.pi, math.pi)
    for s in range(sys.slots.p.start, sys.slots.p.stop):
        iv[s] = (-_HALF_PI, _HALF_PI)
    for s in range(sys.slots.q.start, sys.slots.q.stop):
        iv[s] = (-math.pi, math.pi)
    for s in range(sys.slots.v.start, sys.slots.v.stop):
        iv[s] = (-math.pi, math.pi)
    return ModularDomain(intervals=tuple(iv))


# ---------------------------------------------------------------------------
# serialization


def params_to_json(params: SystemParams) -> str:
    """Serialize to the canonical JSON object (sorted keys)."""
    obj = {"family": params.family, "n": params.n, "m": params.m,
           "l": params.l, "omega": list(params.omega)}
    return json.dumps(obj, sort_keys=True)


def params_from_json(text: str) -> SystemParams:
    """Parse and validate the canonical JSON form of SystemParams."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParams(f"bad params JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidParams("params JSON must be an object")
    required = {"family", "n", "m", "l", "omega"}
    if set(obj) != required:
        raise InvalidParams(
            f"params JSON must have exactly the keys {sorted(required)}")
    if obj["family"] not in FAMILIES:
        raise InvalidParams(f"unknown family {obj['family']!r}")
    omega = obj["omega"]
    if not isinstance(omega, list):
        raise InvalidParams("omega must be a list")
    return SystemParams(family=obj["family"], n=obj["n"], m=obj["m"],
                        l=obj["l"], omega=tuple(float(w) for w in omega))
