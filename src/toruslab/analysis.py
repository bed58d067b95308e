"""Verification toolkit for the torus catalog.

Poisson brackets, integral rank, Kronecker-flow checks, Poincare
sections, monodromy, frequency measurement, the circulation-period
quadrature oracle, the uniqueness survey, and the reversibility check.
Everything here is a measurement with an explicit tolerance; nothing is
assumed from the construction of the systems themselves, which is the
point.

The tolerances and steps the paper's checks fix are constants, not
parameters, and each docstring states its own.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateOffset,
    DomainNotCertified,
    InsufficientData,
    InvalidParams,
    InvalidValue,
    NoReturn,
    NotHamiltonian,
    NumericalBlowup,
    TangentCrossing,
)
from .dsl import _numpy_sum
from .integrators import (
    IntegratorConfig,
    Trajectory,
    _compiled_for,
    _csv_text,
    _fixed_step,
    _march,
    _rk4_step,
    integrate_batch,
    integrate_variational,
)
from .phase import (
    CoordinateLayout,
    MixedPoint,
    ModularDomain,
    component_distances,
    subdomain_of,
    torus_distance_batch,
    wrap_angle,
    wrap_angles,
)
from .systems import (
    CONTROL,
    System,
    TorusSpec,
    _check_point,
    canonical_torus,
    isolation_domain,
    torus_point,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Poisson brackets


def _central_differences(fn, x) -> np.ndarray:
    """(fn(x + h e_i) - fn(x - h e_i)) / 2h, h = 1e-6 (1 + |x_i|), at the
    states x, shape (..., dim), stacked over the slots i on a new last
    axis: a scalar fn gives shape (..., dim), a (..., k) one (..., k, dim).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i, unit in enumerate(np.eye(x.shape[-1])):
        h = 1e-6 * (1.0 + np.abs(x[..., i]))
        e = h[..., None] * unit
        d = np.asarray(fn(x + e)) - np.asarray(fn(x - e))
        cols.append(d / (2.0 * h).reshape(h.shape + (1,) * (d.ndim - h.ndim)))
    return np.stack(cols, axis=-1)


def bracket_matrix(sys: System, states: np.ndarray,
                   scheme: str = "exact") -> np.ndarray:
    """All pairwise brackets of the first integrals, shape (..., k, k).

    scheme 'exact' contracts the exact gradients; 'fd' rebuilds
    every gradient by central differences of the integral values, giving
    an independent route to the same matrix.
    """
    if not sys.is_hamiltonian:
        raise NotHamiltonian(
            f"family {sys.family!r} has no bracket relations to check")
    states = np.asarray(states, dtype=float)
    if scheme == "exact":
        G = sys.integral_gradients(states)
    elif scheme == "fd":
        G = _central_differences(sys.integrals, states)
    else:
        raise InvalidValue(f"unknown scheme {scheme!r}")
    pos = [a for a, _ in sys.canonical_pairing]
    mom = [b for _, b in sys.canonical_pairing]
    Gp = G[..., pos]
    Gm = G[..., mom]
    return np.einsum("...ik,...jk->...ij", Gp, Gm) \
        - np.einsum("...ik,...jk->...ij", Gm, Gp)


def integral_jacobian_rank(sys: System, p: MixedPoint) -> int:
    """Numerical rank of the stacked integral gradients at p.

    Counts singular values above 1e-8 * sigma_max. Generic points give the
    full count of integrals; on the canonical torus the energy gradient
    collapses onto the action gradients and the cubic ones vanish.
    """
    if not sys.is_hamiltonian:
        raise NotHamiltonian(
            f"family {sys.family!r} has no integral-rank claim")
    G = sys.integral_gradients(p.coords)
    sigma = np.linalg.svd(G, compute_uv=False)
    if sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > 1e-8 * sigma[0]))


# ---------------------------------------------------------------------------
# Kronecker flow on a torus


@dataclass(frozen=True)
class KroneckerReport:
    """Deviation of integrated orbits from the pinned-plus-linear model."""

    max_pinned_dev: float
    max_angle_dev: float
    tol: float
    n_starts: int

    @property
    def passed(self) -> bool:
        return self.max_pinned_dev <= self.tol \
            and self.max_angle_dev <= self.tol


def verify_kronecker(sys: System, spec, horizon: float = 100.0,
                     seed: int = 0,
                     config: Optional[IntegratorConfig] = None):
    """Integrate from three starts on the torus and measure two deviations.

    Pinned slots must hold their values and each free angle must follow
    wrap(phi0 + freq * t), both within 1e-8 over the whole horizon. The
    stored frequency is the signed per-slot rate, so flipped-sign tori
    are checked against their actual drift direction. spec may also be a
    list or tuple of TorusSpecs: the starts of all of them then march as
    one batch, and one report per spec comes back, in order.
    """
    single = not isinstance(spec, (list, tuple))
    specs = [spec] if single else list(spec)
    if not all(isinstance(s, TorusSpec) for s in specs):
        raise InvalidValue("verify_kronecker takes a TorusSpec; "
                           "nearby tori drift nonuniformly and are "
                           "checked through measure_frequencies")
    cfg = config or IntegratorConfig(h=1e-2)
    n_starts = 3
    # every spec draws its starts from a fresh generator, as it would alone
    starts = [np.stack([torus_point(s, a).coords for a in
                        np.random.default_rng(seed).uniform(
                            -math.pi, math.pi,
                            (n_starts, len(s.free_angles)))])
              for s in specs]
    res = integrate_batch(sys, np.concatenate(starts), horizon, cfg,
                          layout=sys.layout, store_every=10)
    if res.escaped.any():
        raise NumericalBlowup("a torus start escaped; the spec is not "
                              "invariant", time=float(horizon))
    times = res.stored_times
    reports = []
    for i, (s, states0) in enumerate(zip(specs, starts)):
        # (T, n_starts, dim)
        stored = res.stored_states[:, i * n_starts:(i + 1) * n_starts]
        predicted = np.tile(states0, (len(times), 1, 1))
        for slot, val in s.pinned:
            predicted[..., slot] = val
        for slot, rate in zip(s.free_angles, s.frequency):
            predicted[..., slot] = states0[None, :, slot] \
                + rate * times[:, None]
        dev = component_distances(sys.layout, stored, predicted)
        pinned_slots = [slot for slot, _ in s.pinned]
        reports.append(KroneckerReport(
            max_pinned_dev=float(np.max(dev[..., pinned_slots],
                                        initial=0.0)),
            max_angle_dev=float(np.max(dev[..., list(s.free_angles)],
                                       initial=0.0)),
            tol=_KRONECKER_TOL, n_starts=n_starts))
    return reports[0] if single else reports


# ---------------------------------------------------------------------------
# Poincare section


@dataclass(frozen=True)
class Section:
    """A transversal slice {angle slot = value}, crossed with the given sign."""

    slot: int
    value: float
    direction: int = 1

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise InvalidValue("direction must be +1 or -1")
        if not math.isfinite(self.value):
            raise InvalidValue("section value must be finite")


@dataclass(frozen=True, eq=False)
class PoincareResult:
    """One located crossing: the point on the section and its flow time."""

    point: MixedPoint
    time: float


def _first_return(sys, section, state, horizon):
    """Flow state to its next directed crossing of the section.

    state is the system state, or the state followed by a tangent matrix,
    which then flows along (see integrators._compiled_for). Returns the
    raw state on the section and the crossing time. sys must be a System
    (see systems._check_point).
    """
    if not sys.layout.is_angle(section.slot):
        raise InvalidValue(
            f"slot {section.slot} is not angular in this layout")
    if not horizon > 0:
        raise InvalidValue("horizon must be positive")
    cfg = IntegratorConfig(h=1e-2)
    slot = section.slot
    sgn = float(section.direction)
    theta0 = wrap_angle(float(state[slot]) - section.value)
    # the unwrapped angle of the next directed crossing; an orbit that
    # starts on the section goes a full turn
    goal = float(state[slot]) - theta0 \
        + (0.0 if sgn * theta0 < -1e-12 else sgn * TWO_PI)
    last = (state, 0.0)

    def at_crossing(k, t, w, live, dropped):
        nonlocal last
        if sgn * (w[slot] - goal) >= 0.0:
            return True
        last = (w, t)
        return False

    w, escaped, escape_time, _, _ = _march(
        *_fixed_step(sys, cfg, state), horizon, cfg, at_crossing)
    if sgn * (w[slot] - goal) < 0.0:
        if escaped:
            raise NumericalBlowup(
                f"orbit escaped near t={escape_time:.6g} before crossing",
                time=float(escape_time))
        raise NoReturn(f"no crossing of the section within horizon {horizon}")

    rates = _compiled_for(sys, state).field

    def per_angle(v):  # d(w, t)/d(angle) = (field, 1) / angular rate
        r = np.array(rates(tuple(v[:-1].tolist())))
        if abs(r[slot]) < 1e-8:
            raise TangentCrossing(
                f"angular rate {r[slot]:.3g} at the crossing")
        return np.append(r, 1.0) / r[slot]

    # one rk4 step in the angle from the last state before the crossing
    # lands on the section (Henon, Physica D 5 (1982) 412-414)
    w, t = last
    v = _rk4_step(per_angle, np.append(w, t), goal - w[slot])
    v[slot] = section.value
    return v[:-1], float(v[-1])


def poincare_map(sys: System, section: Section, p0: MixedPoint,
                 horizon: float = 1000.0) -> PoincareResult:
    """Flow p0 to its next directed crossing of the section.

    An orbit starting on the section is advanced a full turn, not
    reported at time zero. Fixed rk4 steps of 1e-2 scan past the
    crossing; from the last state before it, one rk4 step of the flow
    reparametrized by the section angle, d(x, t)/d(angle) = (f, 1) /
    f_angle, lands on the section (Henon's method), and the section slot
    is set to its value exactly. A crossing with angular rate below 1e-8
    is TangentCrossing.
    """
    _check_point(sys, p0)
    s, t = _first_return(sys, section, p0.coords, horizon)
    return PoincareResult(point=MixedPoint.of(sys.layout, s), time=t)


def _return_jacobian(sys, section, s, horizon):
    # one tangent run gives x_T and DP = M - f(x_T) M[sigma, :] / f_sigma,
    # whose second term moves the perturbed orbit back onto the section;
    # entries of M past the escape norm count as an escape, like the state's
    dim = len(s)
    w, _ = _first_return(sys, section,
                         np.concatenate([s, np.eye(dim).ravel()]), horizon)
    x, M = w[:dim], w[dim:].reshape(dim, dim)
    f = sys.field(x)
    return x, M - np.outer(f, M[section.slot] / f[section.slot])


def poincare_linearization(sys: System, section: Section,
                           p: MixedPoint) -> np.ndarray:
    """Jacobian of the return map at p, from the tangent flow.

    Rows and columns run over every slot except the section angle, in
    layout order. p should be (numerically) a fixed point of the map,
    whose orbit must return within a horizon of 100.
    """
    _check_point(sys, p)
    slots = [i for i in range(sys.layout.dim) if i != section.slot]
    _, DP = _return_jacobian(sys, section, p.coords, 100.0)
    return DP[np.ix_(slots, slots)]


# ---------------------------------------------------------------------------
# fixed points of the return map on an energy level


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """Outcome of the energy-restricted Newton search.

    status is 'found', 'singular-linearization' (the Newton matrix is
    rank-deficient before convergence) or 'not-found'. A found result
    still carries singular=True when the linearization at the solution is
    degenerate, which is the expected outcome on the canonical orbit.
    """

    status: str
    point: Optional[MixedPoint]
    residual: float
    iterations: int
    singular: bool
    message: str = ""


def find_fixed_point(sys: System, section: Section, guess: MixedPoint,
                     energy: float = 0.0) -> FixedPointResult:
    """Newton search for a fixed point of the return map at one energy.

    Works in the reduced variables z = every slot except the section
    angle and the first action u, whose value is recovered from the
    energy constraint at each evaluation. Each iteration takes the
    residual and the Newton matrix from one tangent run of the return
    map, with u following z through du/dz = -H_z / H_u, and the search
    succeeds once the largest residual is at most 1e-9. The Newton
    matrix is declared singular when its smallest singular value drops
    below 1e-12 times the largest or below 1e-8 outright; the absolute
    floor covers matrices whose exact value is zero but whose tangent
    flow carries the rk4 truncation error of the step. Stagnation under
    step halving, an orbit that escapes or does not return within a time
    of 50, or 50 iterations without convergence give 'not-found'.
    """
    _check_point(sys, guess)
    if not sys.is_hamiltonian:
        raise NotHamiltonian("fixed-point search needs an energy level")
    if sys.params.n != 1:
        raise InvalidValue("fixed-point search is defined for n=1")
    u_slot = sys.slots.u.start
    phi_slot = sys.slots.phi.start
    if section.slot != phi_slot:
        raise InvalidValue("the section must sit on the phi angle")
    z_slots = [i for i in range(sys.dim) if i not in (u_slot, phi_slot)]
    z = np.array(guess.coords[z_slots], dtype=float)
    escapes = (NoReturn, NumericalBlowup, TangentCrossing)
    tol, max_iter, horizon = 1e-9, 50, 50.0

    def lift(zv):
        # the full state on the section with u chosen so that H = energy;
        # dH/du equals the phi component of the field
        s = np.zeros(sys.dim)
        s[phi_slot] = section.value
        s[z_slots] = zv
        for _ in range(40):
            g = float(sys.hamiltonian(s)) - energy
            dg = float(sys.field(s)[phi_slot])
            if abs(g) <= 1e-13 * max(1.0, abs(energy)):
                return s
            if abs(dg) < 1e-10:
                return None
            s[u_slot] -= g / dg
            if not math.isfinite(s[u_slot]):
                return None
        return None

    def reduced_map(zv):
        s = lift(zv)
        if s is None:
            return None
        try:
            res = poincare_map(sys, section, MixedPoint.of(sys.layout, s),
                               horizon)
        except escapes:
            return None
        return res.point.coords[z_slots] - zv

    def newton_system(zv):
        s = lift(zv)
        if s is None:
            return None, None, None
        try:
            x, DP = _return_jacobian(sys, section, s, horizon)
        except escapes:
            return None, None, None
        grad = sys.integral_gradients(s)[sys.integral_names.index("H")]
        J = DP[np.ix_(z_slots, z_slots)] - np.eye(len(zv)) - np.outer(
            DP[z_slots, u_slot], grad[z_slots] / grad[u_slot])
        F = MixedPoint.of(sys.layout, x).coords[z_slots] - zv
        return F, J, s

    r = math.inf
    for it in range(max_iter):
        F, J, lifted = newton_system(z)
        if F is None:
            return FixedPointResult("not-found", None, r, it, False,
                                    "orbit left the section machinery "
                                    "(escape or no return)")
        r = float(np.max(np.abs(F)))
        sigma = np.linalg.svd(J, compute_uv=False)
        floor = max(1e-12 * float(sigma[0]), 1e-8)
        singular = bool(sigma[-1] < floor)
        if r <= tol:
            return FixedPointResult(
                "found", MixedPoint.of(sys.layout, lifted), r, it,
                singular,
                "linearization is degenerate at the solution"
                if singular else "")
        if singular:
            return FixedPointResult(
                "singular-linearization", None, r, it, True,
                "Newton matrix is rank-deficient away from a solution")
        step = np.linalg.solve(J, -F)
        big = np.max(np.abs(step))
        if big > 0.5:  # trust region: the families blow up fast
            step *= 0.5 / big
        for _ in range(8):
            F_new = reduced_map(z + step)
            if F_new is not None and np.max(np.abs(F_new)) < r:
                break
            step *= 0.5
        else:
            return FixedPointResult("not-found", None, r, it + 1, False,
                                    "trust-region steps stopped "
                                    "improving the residual")
        z = z + step
        r = float(np.max(np.abs(F_new)))
    return FixedPointResult("not-found", None, r, max_iter, False,
                            "iteration cap reached")


# ---------------------------------------------------------------------------
# monodromy


@dataclass(frozen=True, eq=False)
class MonodromyResult:
    """Fundamental matrix over one period with its eigen-decomposition."""

    matrix: np.ndarray
    multipliers: np.ndarray
    residuals: np.ndarray
    period: float
    point: MixedPoint


def monodromy(sys: System, point: Optional[MixedPoint] = None,
              config: Optional[IntegratorConfig] = None) -> MonodromyResult:
    """Multipliers of the closed orbit through `point` (canonical default).

    Integrates the tangent flow over one period, 2 pi / |omega|, and
    takes eigenvalues of the resulting matrix; each eigenpair's residual
    ||Mv - lambda v|| is reported and must be small for the decomposition
    to mean anything.
    """
    if sys.params.n != 1:
        raise InvalidValue("monodromy is defined for the n=1 orbit")
    w = sys.params.omega[0]
    if w == 0.0:
        raise InvalidValue("zero frequency has no closed orbit")
    if point is None:
        point = torus_point(canonical_torus(sys), [0.0])
    period = TWO_PI / abs(w)
    cfg = config or IntegratorConfig(h=1e-3)
    var = integrate_variational(sys, point, period, cfg)
    M = var.matrix
    vals, vecs = np.linalg.eig(M)
    res = np.empty(len(vals))
    for i in range(len(vals)):
        v = vecs[:, i]
        res[i] = np.linalg.norm(M @ v - vals[i] * v)
    return MonodromyResult(matrix=M, multipliers=vals, residuals=res,
                           period=period, point=point)


# ---------------------------------------------------------------------------
# frequency measurement


@dataclass(frozen=True, eq=False)
class FrequencyMeasurement:
    """Least-squares angular rates with their fit residuals."""

    slots: tuple[int, ...]
    values: np.ndarray
    residual_rms: np.ndarray
    circulating: np.ndarray


def measure_frequencies(traj: Trajectory,
                        slots: Optional[Sequence] = None
                        ) -> FrequencyMeasurement:
    """Mean angular rates of the chosen slots from a stored trajectory.

    Each angular column is unwrapped (storage must be dense enough that
    the true per-sample change stays under pi) and classified: at least
    ten full revolutions gives a circulating slot, whose rate is the
    least-squares slope over the last 80% of the samples; total variation
    under pi certifies a non-circulating slot with rate zero; anything in
    between raises InsufficientData.
    """
    layout = traj.layout
    if slots is None:
        slots = tuple(sorted(layout.angle_slots))
    slots = tuple(layout.slot_of(s) if isinstance(s, str) else int(s)
                  for s in slots)
    if len(traj) < 16:
        raise InsufficientData("need at least 16 stored samples")
    times = traj.times
    values = np.empty(len(slots))
    rms = np.empty(len(slots))
    circ = np.empty(len(slots), dtype=bool)
    for k, slot in enumerate(slots):
        col = traj.states[:, slot]
        if layout.is_angle(slot):
            col = np.unwrap(col)
        span = abs(float(col[-1] - col[0]))
        swing = float(col.max() - col.min())
        if span >= 10.0 * TWO_PI:
            i0 = int(0.2 * len(times))
            slope, intercept = np.polyfit(times[i0:], col[i0:], 1)
            fit = slope * times[i0:] + intercept
            values[k] = slope
            rms[k] = float(np.sqrt(np.mean((col[i0:] - fit) ** 2)))
            circ[k] = True
        elif swing < math.pi:
            values[k] = 0.0
            rms[k] = float(np.sqrt(np.mean((col - col.mean()) ** 2)))
            circ[k] = False
        else:
            raise InsufficientData(
                f"slot {layout.labels[slot]}: {span / TWO_PI:.1f} "
                "revolutions is too few to fit, too many to rule out")
    return FrequencyMeasurement(slots=slots, values=values,
                                residual_rms=rms, circulating=circ)


def circulation_period(zeta: float) -> float:
    """Period of dy/dt = zeta + sin(y)^2 around one full turn.

    Computed by quadrature of the time integral, independent of any
    closed form; the closed form 2*pi/sqrt(zeta*(zeta+1)) is what the
    tests compare against.
    """
    if not math.isfinite(zeta):
        raise InvalidValue("zeta must be finite")
    if zeta <= 0.0:
        raise DegenerateOffset("circulation needs zeta > 0")
    # the periodic trapezoid rule converges geometrically on an analytic
    # periodic integrand (Trefethen & Weideman, SIAM Review 56(3), 2014),
    # so doubling n until two sums agree bounds the error
    n, prev = 16, math.nan
    while n <= 2 ** 20:
        y = np.linspace(0.0, TWO_PI, n, endpoint=False)
        val = TWO_PI / n * float(np.sum(1.0 / (zeta + np.sin(y) ** 2)))
        if abs(val - prev) <= 1e-13 * val:
            return val
        n, prev = 2 * n, val
    raise InvalidValue(f"trapezoid sums for zeta={zeta:g} did not settle "
                       f"by n = {n // 2}")


# ---------------------------------------------------------------------------
# reversibility


def reversibility_deviations(sys: System, points: np.ndarray,
                             t: float) -> np.ndarray:
    """Conjugacy deviation for a batch of start points (rows).

    Batch rk4 integration at step 1e-3, the points forward to t and their
    images under the involution back to -t in one batch; rows whose orbit
    escapes in either direction report +inf. The shipped involutions
    only flip signs, so for reversible rates the backward rk4 steps of
    G(p) mirror p's forward steps bit for bit and the deviation is
    exactly 0.0: this tests the parity of the rates, not the integrator's
    error (adding +0.3*y to rev-unique's y rate reads 0.238 at t = 2).
    """
    if not t > 0:
        raise InvalidValue("t must be positive")
    cfg = IntegratorConfig(h=1e-3)
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    res = integrate_batch(sys, np.concatenate([pts, sys.involution(pts)]),
                          np.repeat([t, -t], n), cfg, layout=sys.layout)
    fwd, back = res.final[:n], res.final[n:]
    dev = torus_distance_batch(sys.layout, back, sys.involution(fwd))
    dev[res.escaped[:n] | res.escaped[n:]] = math.inf
    return dev


# ---------------------------------------------------------------------------
# uniqueness survey


# verify_kronecker's tolerance, the survey's step and its thresholds
_KRONECKER_TOL = 1e-8
_SURVEY_STEP = IntegratorConfig(h=1e-2)
_T_MIN = 1.0
_GAIN_TOL = 1e-8
_GAP_TOL = 1e-3
_SKIP_TOL = 1e-6
# The most samples x dim slots one survey takes: its rk4 march holds about
# a dozen (dim, rows) float arrays at once, 12 x 8 bytes x 10^7 = 1 GB. It
# keeps every sample index below 2^32, one entropy word for _sample_box.
_MAX_SURVEY_SLOTS = 10**7


@dataclass(frozen=True, eq=False)
class SurveyCandidate:
    index: int
    point: np.ndarray
    gain: float
    gap: float


@dataclass(frozen=True, eq=False)
class SurveyReport:
    """Per-sample escape-certificate gains and recurrence gaps.

    retired marks the rows of a compact family that left the isolation
    domain, exit_t the time of the first step outside it (nan for every
    other row). candidates lists the samples that defeated both
    thresholds; an empty list is the corroboration of uniqueness at this
    sampling scale.
    """

    gains: np.ndarray
    gaps: np.ndarray
    escaped: np.ndarray
    skipped: np.ndarray
    retired: np.ndarray
    exit_t: np.ndarray
    candidates: tuple[SurveyCandidate, ...]

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    def to_csv(self) -> str:
        return _csv_text("index,gain,gap,escaped,skipped,retired,exit_t",
                         [np.arange(len(self.gains)), self.gains, self.gaps,
                          self.escaped, self.skipped, self.retired,
                          self.exit_t], "%d,%.17g,%.17g,%d,%d,%d,%.17g")


# numpy's SeedSequence (a pool of 4 uint32 words) and PCG64 (a 128-bit
# LCG with the XSL-RR output), restated on arrays of sample indices with
# numpy's constants; as numpy scalars, so that arithmetic on uint32 and
# uint64 arrays stays in those types and wraps
_U32 = np.uint32
_U64 = np.uint64
_HASH_A = (0x43B0D7E5, 0x931E8875)  # (initial constant, multiplier)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_PCG_MULT = (_U64(2549297995355413924), _U64(4865540595714422341))
_MASK32 = 0xFFFFFFFF


def _hashes(const, mult):
    """The SeedSequence hash, as a function of a uint32 array, with the
    running hash constant that numpy's hashes advance call by call."""
    def hashmix(value):
        nonlocal const
        value = value ^ _U32(const)
        const = const * mult & _MASK32
        value = value * _U32(const)
        return value ^ (value >> _U32(16))
    return hashmix


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _U32(16))


def _lcg_step(state, inc):
    """state * _PCG_MULT + inc mod 2^128, each a (high, low) uint64 pair;
    the high word of the low product from 32-bit limbs."""
    (hi, lo), (m_hi, m_lo) = state, _PCG_MULT
    half, low32 = _U64(32), _U64(_MASK32)
    a0, a1, b0, b1 = lo & low32, lo >> half, m_lo & low32, m_lo >> half
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> half) + (p01 & low32) + (p10 & low32)
    hi = (a1 * b1 + (p01 >> half) + (p10 >> half) + (mid >> half)
          + lo * m_hi + hi * m_lo)
    lo = lo * m_lo
    new_lo = lo + inc[1]
    return hi + inc[0] + (new_lo < lo).astype(_U64), new_lo


def _raw_draws(seed: int, indices: np.ndarray, n: int) -> np.ndarray:
    """PCG64(SeedSequence([seed, i])).random_raw(n) for every index i,
    each below 2^32, as an array (len(indices), n)."""
    seed = operator.index(seed)  # a numpy integer too, as SeedSequence
    if seed < 0:
        raise InvalidValue("expected non-negative integer")
    # the seed's uint32 words, low first, then the index's one
    entropy = [np.full(len(indices), seed >> k & _MASK32, dtype=_U32)
               for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(indices.astype(_U32))
    hashmix = _hashes(*_HASH_A)
    # the entropy words fill the pool, zeros past their end; any left over
    # are mixed in after the pool has mixed with itself
    pool = [hashmix(entropy[k] if k < len(entropy)
                    else np.zeros(len(indices), dtype=_U32))
            for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 more hashes of the pool, paired low
    # word first into (state high, state low, sequence high, sequence low)
    hashmix = _hashes(*_HASH_B)
    w = [hashmix(pool[k % 4]).astype(_U64) for k in range(8)]
    seeds = [w[2 * j] | w[2 * j + 1] << _U64(32) for j in range(4)]
    # the increment is the sequence shifted left with its low bit set;
    # seeding steps from 0, adds the state and steps again
    one = _U64(1)
    inc = (seeds[2] << one | seeds[3] >> _U64(63), seeds[3] << one | one)
    lo = inc[1] + seeds[1]
    state = _lcg_step((inc[0] + seeds[0] + (lo < inc[1]).astype(_U64), lo),
                      inc)
    draws = []
    for _ in range(n):  # step, then the XSL-RR output of the new state
        state = _lcg_step(state, inc)
        x, r = state[0] ^ state[1], state[0] >> _U64(58)
        draws.append(x >> r | x << ((_U64(64) - r) & _U64(63)))
    return np.stack(draws, axis=-1)


def _sample_box(layout: CoordinateLayout, domain: ModularDomain,
                seed: int, span: range) -> np.ndarray:
    """The survey samples of a range of indices, one row each.

    Sample i is default_rng(SeedSequence([seed, i])).uniform(lows,
    highs) to the bit. The raw words of every sample come from one pass
    of array arithmetic (_raw_draws), not from a generator per sample;
    every index must be below 2^32.
    """
    lows = np.empty(layout.dim)
    highs = np.empty(layout.dim)
    for slot in range(layout.dim):
        iv = domain.intervals[slot]
        if iv is None:
            if not layout.is_angle(slot):
                raise InvalidValue(
                    f"slot {layout.labels[slot]} is unbounded; the "
                    "survey box must be bounded in every real slot")
            lows[slot], highs[slot] = -math.pi, math.pi
        else:
            lows[slot], highs[slot] = iv
    if span and not 0 <= span[0] <= span[-1] < 2**32:
        raise InvalidValue("survey sample indices must lie in [0, 2^32)")
    raw = _raw_draws(seed, np.arange(span.start, span.stop, span.step),
                     layout.dim)
    # a Generator's double is the top 53 bits of a raw draw over 2^53
    u = (raw >> _U64(11)) * 2.0 ** -53
    return lows + (highs - lows) * u


def _domain_exit(sys, box):
    """The survey's retire test for _march: None for a family without an
    isolation domain, else a function of the live rows (dim, rows) that
    gives None or the mask of rows outside the open domain.

    Only the slots whose interval is narrower than a whole circle can be
    left (x and p on ham-compact, none on rev-compact). They are tested
    unwrapped: a row starts inside and moves about 1e-2 a step, so it
    crosses the boundary before it could wrap back in. The domain is
    read modulo 2*pi, so its copy that holds the sample box (the
    intervals box) is the one tested.
    """
    if not sys.is_compact:
        return None
    iv = isolation_domain(sys).intervals
    slots = [s for s, b in enumerate(iv)
             if b is not None and b[1] - b[0] < TWO_PI]
    if not slots:
        return None
    bounds = []
    for s in slots:  # the turns from the domain's centre to the box's
        d = TWO_PI * round((sum(box[s]) - sum(iv[s])) / (2 * TWO_PI))
        bounds.append((iv[s][0] + d, iv[s][1] + d))
    lows, highs = np.array(bounds).T[:, :, None]

    def outside(zk):
        w = zk[slots]
        out = ((w <= lows) | (w >= highs)).any(axis=0)  # nan stays inside
        return out if out.any() else None
    return outside


def _survey_block(sys: System, domain: ModularDomain, seed: int,
                  span: range, horizon: float):
    layout = sys.layout
    dim = layout.dim
    nb = len(span)
    states = _sample_box(layout, domain, seed, span)

    off_slots = [s for s in range(dim)
                 if not (sys.slots.phi.start <= s < sys.slots.phi.stop)]
    d0 = component_distances(layout, states, np.zeros(dim))
    off_dist = np.sqrt((d0[:, off_slots] ** 2).sum(axis=1))
    skipped = off_dist <= _SKIP_TOL

    run = np.flatnonzero(~skipped)
    escaped = np.zeros(nb, dtype=bool)
    # the closest squared return of each marched row, rooted at the end,
    # and the time it was dropped; origin, slot-major as the march, and
    # gap2 follow its live rows
    run_gap2 = np.full(len(run), math.inf)
    run_exit = np.full(len(run), math.nan)
    origin, gap2 = np.ascontiguousarray(states[run].T), run_gap2

    def track_gaps(k, t, zk, live, dropped):
        nonlocal origin, gap2
        if dropped is not None:
            rows, _, keep = dropped
            run_gap2[rows] = gap2[~keep]
            run_exit[rows] = t
            origin, gap2 = origin[:, keep], gap2[keep]
        if t >= _T_MIN:
            # torus_distance_batch squared, its sum down the slots in the
            # order numpy sums each state's row
            d = component_distances(layout, zk.T, origin.T).T
            d *= d
            np.minimum(gap2, _numpy_sum(list(d), operator.add), out=gap2)

    z = states.copy()
    final, escaped[run], _, _, _ = _march(
        *_fixed_step(sys, _SURVEY_STEP, origin), horizon, _SURVEY_STEP,
        track_gaps, _domain_exit(sys, domain.intervals))
    z[run] = final.T
    run_gap2[np.isnan(run_exit)] = gap2
    gaps = np.full(nb, math.inf)
    gaps[run] = np.sqrt(run_gap2)
    # a dropped row that did not escape left the domain
    exit_t = np.full(nb, math.nan)
    exit_t[run] = np.where(escaped[run], math.nan, run_exit)
    retired = ~np.isnan(exit_t)
    # the gain is the certificate's change: rk4 advances y + sum(q) by the
    # same combination of stage rates as it would an extra slot holding
    # the certificate's rate, so no such slot is needed
    gains = _certificate(sys, z) - _certificate(sys, states)
    gains[escaped | retired] = math.inf
    gains[skipped] = np.nan
    gaps[skipped] = np.nan
    final = wrap_angles(z, layout.angle_mask)
    return gains, gaps, escaped, skipped, retired, exit_t, final


def _certificate(sys, states):
    """The escape certificate y + sum(q) of each row."""
    return states[:, sys.slots.y] + states[:, sys.slots.q].sum(axis=-1)


def survey_uniqueness(sys: System, domain: ModularDomain, samples: int,
                      seed: int, horizon: float = 20.0,
                      jobs: int = 1) -> SurveyReport:
    """Randomized search for recurrent orbits away from the canonical torus.

    Each seeded sample is integrated over the horizon in rk4 steps of
    1e-2 while co-integrating the certificate gain (the integral of the
    escape rate along the orbit) and tracking its closest return to the
    start after t = 1. A sample is a candidate only when the gain stays
    at most 1e-8 AND the return gap drops below 1e-3; samples within 1e-6
    of the torus in the non-angle directions are skipped as on-torus, and
    samples that leave the escape norm 1e8 are self-refuting. Results are
    deterministic in (seed, index) and independent of the job count.
    jobs > 1 splits the samples into one range per job, each marched in
    a process pool worker that receives the System itself (a System is
    its texts and pickles as it is); jobs 1 marches them all in this
    process.

    For the compact families the box must lie inside isolation_domain,
    where the certificate is one-signed; for the unbounded families any
    bounded box is admissible because the certificate identity is global.
    A compact family's claim is isolation: its torus is the only
    invariant torus inside that open domain. A row is therefore retired
    at the first step that lands outside it, wherever the box lies: an
    orbit that leaves the domain cannot lie on a torus inside it, so it
    is refuted there, as an escape refutes an orbit of the unbounded
    families. Like an escaped row it stops marching, is never a
    candidate and gets an infinite gain; its gap is the closest return
    before its exit. The gain test thus runs only on rows that stayed in
    the domain, where the certificate is one-signed.
    """
    if sys.family == CONTROL:
        raise InvalidParams("the control fixture makes no uniqueness claim")
    if samples < 1:
        raise InvalidValue("need at least one sample")
    if samples * sys.dim > _MAX_SURVEY_SLOTS:
        raise InvalidValue(
            f"{samples} samples x {sys.dim} slots is past the survey's "
            f"cap of {_MAX_SURVEY_SLOTS:,} slots")
    if not horizon > 0:
        raise InvalidValue("horizon must be positive")
    if horizon < _T_MIN:
        raise InvalidValue(f"horizon {horizon:g} is shorter than t_min "
                           f"{_T_MIN:g}, so no return gap is measured")
    if sys.is_compact:
        if not subdomain_of(domain, isolation_domain(sys), sys.layout):
            raise DomainNotCertified(
                "survey box leaves the certified isolation domain")
    if domain.dim != sys.dim:
        raise InvalidValue("domain dimension does not match the system")

    chunk = samples if jobs <= 1 else math.ceil(samples / jobs)
    spans = [range(a, min(a + chunk, samples))
             for a in range(0, samples, chunk)]
    if jobs <= 1:
        blocks = [_survey_block(sys, domain, seed, span, horizon)
                  for span in spans]
    else:
        # the pool starts all its workers at once, so no more than there
        # are blocks or CPUs to run them
        workers = min(jobs, len(spans), len(os.sched_getaffinity(0)))
        # imported here: a process pool costs each start of the CLI its
        # multiprocessing import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_survey_block, sys, domain, seed, span,
                                horizon)
                    for span in spans]
            blocks = [f.result() for f in futs]

    gains, gaps, escaped, skipped, retired, exit_t, finals = (
        np.concatenate(parts) for parts in zip(*blocks))

    cands = []
    flag = (~skipped) & (~escaped) & (~retired) & (gains <= _GAIN_TOL) \
        & (gaps < _GAP_TOL)
    for i in np.flatnonzero(flag):
        cands.append(SurveyCandidate(index=int(i), point=finals[i],
                                     gain=float(gains[i]),
                                     gap=float(gaps[i])))
    return SurveyReport(gains=gains, gaps=gaps, escaped=escaped,
                        skipped=skipped, retired=retired, exit_t=exit_t,
                        candidates=tuple(cands))
