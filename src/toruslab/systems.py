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

A family member is defined by its texts alone: the energy text of a
Hamiltonian family (see `hamiltonian_text`) or one rate text per slot of a
reversible one, plus the texts of its other first integrals. The compact
families are the unique ones read through sin in those texts. The field,
its Jacobian, the energy, the integrals and their gradients are numpy code
generated from the texts by `dsl`, with every derivative exact. All
evaluators are vectorized: they accept a state of shape (dim,) or a batch
(..., dim) and return matching shapes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional, Union

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
    """A family member: layout, rate texts, and structural metadata.

    A system is defined by its texts alone. rates_source is an energy text
    with a pairs: header, or one rate expression per slot in layout order;
    integral_texts are the first integrals besides the energy, which leads
    integral_names when there is one. Every evaluator is generated from
    these texts on first use (see `compiled`). The evaluators take raw
    arrays of shape (..., dim); point-level wrappers with layout checking
    live at module level (eval_field and friends).
    """

    params: SystemParams
    layout: CoordinateLayout
    slots: _Slots
    canonical_pairing: tuple[tuple[int, int], ...]
    involution_signs: np.ndarray
    integral_names: tuple[str, ...]
    rates_source: Union[str, tuple[str, ...]]
    integral_texts: tuple[str, ...]

    def __setstate__(self, state):  # numpy's pickle drops read-only
        self.__dict__.update(state)
        self.involution_signs.setflags(write=False)

    @property
    def family(self) -> str:
        return self.params.family

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def is_hamiltonian(self) -> bool:
        return isinstance(self.rates_source, str)

    @property
    def is_compact(self) -> bool:
        return self.family in (HAM_COMPACT, REV_COMPACT)

    def field(self, states: np.ndarray) -> np.ndarray:
        """Right-hand side at one state or a batch of states."""
        return _on_states(self.compiled("field"), states)

    def hamiltonian(self, states: np.ndarray) -> np.ndarray:
        if not self.is_hamiltonian:
            raise NotHamiltonian(
                f"family {self.family!r} has no Hamiltonian")
        return _on_states(self.compiled("hamiltonian"), states, 0)

    def integrals(self, states: np.ndarray) -> np.ndarray:
        """Values of all first integrals, stacked on a trailing axis."""
        return _on_states(self.compiled("integrals"), states)

    def integral_gradients(self, states: np.ndarray) -> np.ndarray:
        """Exact gradients, shape (..., n_integrals, dim)."""
        return _on_states(self.compiled("integral_gradients"), states, 2)

    def involution(self, states: np.ndarray) -> np.ndarray:
        """The reversing involution applied to raw states (no wrapping)."""
        return np.asarray(states, dtype=float) * self.involution_signs

    def jacobian(self, state: np.ndarray) -> np.ndarray:
        """Exact field Jacobian at a single state, shape (dim, dim)."""
        state = np.asarray(state, dtype=float)
        if state.shape != (self.dim,):
            raise InvalidValue("jacobian takes a single state")
        return self.compiled("jacobian")(state)

    def compiled(self, kind: str = "rates"):
        """The system's code of one kind, see `dsl.compile_system`.

        By default the rates as straight-line code over Python floats, a
        `dsl.CompiledRates`. Compiled on first use and shared by every
        system with the same texts.
        """
        return _compiled(kind, self.rates_source, self.integral_texts,
                         self.layout.labels)

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


def hamiltonian_text(family: str, n: int, m: int, omega) -> str:
    """The energy text of a Hamiltonian family member, ready to parse.

    Reversible family names raise NotHamiltonian; they have no energy
    function at all.
    """
    if family in (REV_UNIQUE, REV_COMPACT):
        raise NotHamiltonian(
            f"family {family!r} is reversible, not Hamiltonian")
    if family not in (HAM_UNIQUE, HAM_COMPACT):
        raise InvalidValue(f"unknown family {family!r}")
    if n < 1 or m < 0 or len(tuple(omega)) != n:
        raise InvalidValue("need n >= 1, m >= 0, len(omega) == n")

    var = _reader(family)
    terms = []
    for i in range(n):
        w = float(tuple(omega)[i])
        terms.append(f"{w!r}*{var(f'u_{i + 1}')}")
        terms.append(f"{var('x')}*{var(f'u_{i + 1}')}^2")
    terms.append(f"{var('x')}^3/3")
    terms.append(f"{var('x')}*{var('y')}^2")
    terms += [_cubic(var, j + 1) for j in range(m)]
    pair_bits = "".join(f"(phi_{i + 1},u_{i + 1})" for i in range(n))
    pair_bits += "(y,x)"
    pair_bits += "".join(f"(q_{j + 1},p_{j + 1})" for j in range(m))
    return f"pairs: {pair_bits}\n{' + '.join(terms)}\n"


def _cubic(read, j: int) -> str:
    # the integral p_j^3/3 + p_j*q_j^2, with its slots read through `read`
    return f"{read(f'p_{j}')}^3/3 + {read(f'p_{j}')}*{read(f'q_{j}')}^2"


def _rev_rates(par: SystemParams, labels) -> tuple[str, ...]:
    """One rate text per slot of a reversible family member."""
    read = _reader(par.family)
    squares = ([f"v_{k + 1}" for k in range(par.l)] + ["y"]
               + [f"q_{j + 1}" for j in range(par.m)])
    rates = {f"phi_{i + 1}": repr(w) for i, w in enumerate(par.omega)}
    rates["y"] = " + ".join(f"{read(name)}^2" for name in squares)
    return tuple(rates.get(lab, "0") for lab in labels)


def _reader(family: str) -> Callable[[str], str]:
    # the compact families read every slot through sin
    if family in (HAM_COMPACT, REV_COMPACT):
        return lambda name: f"sin({name})"
    return lambda name: name


def _on_states(fn, states, axes: int = 1):
    """fn, a generated function of slot-major states (dim, ...) whose
    result leads with `axes` axes, at states (..., dim): one state is its
    own slot-major form, a batch is transposed in and out."""
    s = np.asarray(states, dtype=float)
    if s.ndim < 2:
        return fn(s)
    out = fn(s.transpose(-1, *range(s.ndim - 1)))
    return out.transpose(*range(axes, out.ndim), *range(axes))


@functools.lru_cache(maxsize=256)
def _compiled(kind, source, integrals, labels):
    from .dsl import compile_system  # dsl imports this module
    return compile_system(kind, source, integrals, labels)


def _signs_for(layout, slots) -> np.ndarray:
    # the reversing involution negates phi, y, and q; fixes u, x, p, v
    sgn = np.ones(layout.dim)
    sgn[slots.phi] = -1.0
    sgn[slots.y] = -1.0
    sgn[slots.q] = -1.0
    sgn.setflags(write=False)
    return sgn


def _ham_pairing(sl: _Slots, n: int, m: int) -> tuple[tuple[int, int], ...]:
    return (tuple((sl.phi.start + i, sl.u.start + i) for i in range(n))
            + ((sl.y, sl.x),)
            + tuple((sl.q.start + j, sl.p.start + j) for j in range(m)))


def build_system(params: SystemParams) -> System:
    """Construct a System for one of the four shipped families.

    Examples
    --------
    >>> sys = build_system(SystemParams(HAM_UNIQUE, n=1, m=1, omega=(1.0,)))
    >>> sys.dim, len(sys.layout.angle_slots), len(sys.integral_names)
    (6, 1, 3)
    """
    par = params
    read = _reader(par.family)
    if par.family in (HAM_UNIQUE, HAM_COMPACT):
        layout, sl = _ham_layout(par.n, par.m)
        pairing = _ham_pairing(sl, par.n, par.m)
        source = hamiltonian_text(par.family, par.n, par.m, par.omega)
        actions = [f"u_{i + 1}" for i in range(par.n)]
        cubics = [f"cubic_{j + 1}" for j in range(par.m)]
        integrals = ([read(u) for u in actions]
                     + [_cubic(read, j + 1) for j in range(par.m)])
        names = ["H"] + actions + cubics
    elif par.family in (REV_UNIQUE, REV_COMPACT):
        layout, sl = _rev_layout(par.n, par.l, par.m)
        pairing = ()
        source = _rev_rates(par, layout.labels)
        # v_k and q_j are conserved (their rates vanish identically)
        names = ([f"v_{k + 1}" for k in range(par.l)]
                 + [f"q_{j + 1}" for j in range(par.m)])
        integrals = [read(name) for name in names]
    else:
        raise InvalidParams(
            f"build_system only handles {FAMILIES}; "
            f"use build_control_system for the control fixture")
    if par.family in (HAM_COMPACT, REV_COMPACT):
        layout = CoordinateLayout(labels=layout.labels,
                                  angle_slots=frozenset(range(layout.dim)))
    return System(params=par, layout=layout, slots=sl,
                  canonical_pairing=pairing,
                  involution_signs=_signs_for(layout, sl),
                  integral_names=tuple(names), rates_source=source,
                  integral_texts=tuple(integrals))


def build_control_system(omega: float = 1.0, nu: float = 0.3) -> System:
    """Decoupled rotator x harmonic oscillator on (u_1, phi_1, x, y).

    Every energy level carries a periodic orbit at x = y = 0 whose
    transverse multipliers are exp(+-i*nu*T), T = 2*pi/omega; used as the
    control against which degenerate monodromy output is compared.
    """
    par = SystemParams(CONTROL, n=1, m=0, omega=(float(omega),))
    layout, sl = _ham_layout(1, 0)
    nu = float(nu)
    if not math.isfinite(nu):
        raise InvalidParams("nu must be finite")
    energy = f"{par.omega[0]!r}*u_1 + 0.5*{nu!r}*(x^2 + y^2)"
    return System(params=par, layout=layout, slots=sl,
                  canonical_pairing=_ham_pairing(sl, 1, 0),
                  involution_signs=_signs_for(layout, sl),
                  integral_names=("H", "u_1"),
                  rates_source=f"pairs: (phi_1,u_1)(y,x)\n{energy}\n",
                  integral_texts=("u_1",))


# ---------------------------------------------------------------------------
# point-level operations


def _check_point(sys: System, p: MixedPoint) -> None:
    if not isinstance(sys, System):
        raise InvalidValue(f"expected a System, not {sys!r}")
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
