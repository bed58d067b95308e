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
    _tangent_matrix,
    _tangent_start,
    integrate_batch,
    integrate_variational,
)
from .phase import (
    CoordinateLayout,
    MixedPoint,
    ModularDomain,
    component_distances,
    shortest_arcs,
    subdomain_of,
    torus_distance_batch,
    wrap_angle,
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


def bracket_matrix(sys: System, states: np.ndarray) -> np.ndarray:
    """All pairwise brackets of the first integrals, shape (..., k, k),
    contracted from their exact gradients."""
    if not sys.is_hamiltonian:
        raise NotHamiltonian(
            f"family {sys.family!r} has no bracket relations to check")
    states = np.asarray(states, dtype=float)
    G = sys.integral_gradients(states)
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
    _check_point(sys, p)
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
                     config: Optional[IntegratorConfig] = None,
                     work: Optional[dict] = None):
    """Integrate from three starts on the torus and measure two deviations.

    Pinned slots must hold their values and each free angle must follow
    wrap(phi0 + freq * t), both within 1e-8 over the whole horizon. The
    stored frequency is the signed per-slot rate, so flipped-sign tori
    are checked against their actual drift direction. spec may also be a
    list or tuple of TorusSpecs: the starts of all of them then march as
    one batch, and one report per spec comes back, in order.

    work, if given, is updated with the march's work (see
    BatchResult.work).
    """
    single = not isinstance(spec, (list, tuple))
    specs = [spec] if single else list(spec)
    if not all(isinstance(s, TorusSpec) for s in specs):
        raise InvalidValue("verify_kronecker takes a TorusSpec; "
                           "nearby tori drift nonuniformly and are "
                           "checked through measure_frequencies")
    for s in specs:
        _check_point(sys, s)
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
    if work is not None:
        work.update(res.work(horizon, cfg.h))
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
    """A transversal slice {angle slot = value}, crossed increasing."""

    slot: int
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InvalidValue("section value must be finite")


@dataclass(frozen=True, eq=False)
class PoincareResult:
    """One located crossing: the point on the section and its flow time."""

    point: MixedPoint
    time: float


def _first_return(sys, section, state, horizon):
    """Flow state to its next increasing crossing of the section.

    state is the system state, or a tangent state, the state plus the
    moving entries of M from the identity, which then flow along (see
    integrators._compiled_for). Returns the raw state on the section and
    the crossing time. sys must be a System (see systems._check_point).
    """
    if not sys.layout.is_angle(section.slot):
        raise InvalidValue(
            f"slot {section.slot} is not angular in this layout")
    if not horizon > 0:
        raise InvalidValue("horizon must be positive")
    cfg = IntegratorConfig(h=1e-2)
    slot = section.slot
    theta0 = wrap_angle(float(state[slot]) - section.value)
    # the unwrapped angle of the next increasing crossing; an orbit that
    # starts on the section goes a full turn
    goal = float(state[slot]) - theta0 + (0.0 if theta0 < -1e-12 else TWO_PI)
    # the march stops at the first state past the goal, and hands on the
    # state before it
    w, escaped, escape_time, _, [last] = _march(
        *_fixed_step(sys, cfg, state), horizon, cfg, stop=(slot, goal))
    if w[slot] - goal < 0.0:
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
    t, w = last
    v = _rk4_step(per_angle, np.append(w, t), goal - w[slot])
    v[slot] = section.value
    return v[:-1], float(v[-1])


def poincare_map(sys: System, section: Section, p0: MixedPoint,
                 horizon: float = 1000.0) -> PoincareResult:
    """Flow p0 to its next increasing crossing of the section.

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
    # one tangent run from M = I, the state plus the entries of M that
    # move, gives x_T and DP = M - f(x_T) M[sigma, :] / f_sigma, whose
    # second term moves the perturbed orbit back onto the section; moving
    # entries past the escape norm count as an escape, like the state's
    w, _ = _first_return(sys, section, _tangent_start(sys, s), horizon)
    x, M = _tangent_matrix(sys, w)
    f = sys.field(x)
    return x, M - np.outer(f, M[section.slot] / f[section.slot])


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
    """Fundamental matrix over one period with its eigen-decomposition,
    and the rk4 steps of the tangent flow that gave it."""

    matrix: np.ndarray
    multipliers: np.ndarray
    residuals: np.ndarray
    period: float
    n_steps: int


def monodromy(sys: System,
              config: Optional[IntegratorConfig] = None) -> MonodromyResult:
    """Multipliers of the closed orbit on the canonical torus at angle 0.

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
                           period=period, n_steps=var.n_steps)


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


def reversibility_deviations(sys: System, points: np.ndarray, t: float,
                             work: Optional[dict] = None) -> np.ndarray:
    """Conjugacy deviation for a batch of start points (rows).

    Batch rk4 integration at step 1e-3, the points forward to t and their
    images under the involution back to -t in one batch; rows whose orbit
    escapes in either direction report +inf. The shipped involutions
    only flip signs, so for reversible rates the backward rk4 steps of
    G(p) mirror p's forward steps bit for bit and the deviation is
    exactly 0.0: this tests the parity of the rates, not the integrator's
    error (adding +0.3*y to rev-unique's y rate reads 0.238 at t = 2).

    work, if given, is updated with the march's work (see
    BatchResult.work).
    """
    if not t > 0:
        raise InvalidValue("t must be positive")
    cfg = IntegratorConfig(h=1e-3)
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    res = integrate_batch(sys, np.concatenate([pts, sys.involution(pts)]),
                          np.repeat([t, -t], n), cfg, layout=sys.layout)
    if work is not None:
        work.update(res.work(t, cfg.h))
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
# a dozen (dim, rows) float arrays at once, 12 x 8 bytes x 10^7 = 1 GB,
# and one block of steps past them, at most integrators._BLOCK_BYTES
# (1 MiB) unless a single step is larger, when the block is the step's
# result. The pass over a block copies the slots that move, once (their
# distances), which is less than a step's temporaries.
_MAX_SURVEY_SLOTS = 10**7


@dataclass(frozen=True, eq=False)
class SurveyReport:
    """Per-sample escape-certificate gains and recurrence gaps.

    One entry per sample in every array. retired marks the rows of a
    compact family that left the isolation domain, exit_t the time of the
    first step outside it (nan for every other row). skipped marks the
    samples on the torus (nan gain and gap). candidate marks the samples
    that defeated both thresholds; none is the corroboration of
    uniqueness at this sampling scale.

    telemetry counts the march's work, summed over the workers: steps,
    the march's step count (up to its last drop when no row is left);
    row_steps, each block's steps times its live rows, skipped ones
    too; of those, row_steps_past_drop, the steps a row took in its
    block past the step it escaped or was retired at, whose results were
    thrown away; blocks, the blocks of steps it took (see
    `integrators._march`); and the escaped and retired rows.
    """

    gains: np.ndarray
    gaps: np.ndarray
    escaped: np.ndarray
    skipped: np.ndarray
    retired: np.ndarray
    exit_t: np.ndarray
    candidate: np.ndarray
    telemetry: dict

    @property
    def n_candidates(self) -> int:
        return int(self.candidate.sum())

    def to_csv(self) -> str:
        return _csv_text("index,gain,gap,escaped,skipped,retired,exit_t",
                         [np.arange(len(self.gains)), self.gains, self.gaps,
                          self.escaped, self.skipped, self.retired,
                          self.exit_t], "%d,%.17g,%.17g,%d,%d,%d,%.17g")


def _sample_box(layout: CoordinateLayout, domain: ModularDomain,
                seed: int, samples: int) -> np.ndarray:
    """The survey's samples, one row each: default_rng(seed).uniform(lows,
    highs, (samples, dim)).

    numpy fills the array in C order, so row i takes the stream's doubles
    i*dim to (i+1)*dim - 1: each sample depends on (seed, i) and the box
    alone, never on the sample count or the job count.
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
            iv = (-math.pi, math.pi)
        elif not math.isfinite(iv[1] - iv[0]):
            raise InvalidValue(
                f"slot {layout.labels[slot]} is too wide to sample: its "
                "width overflows a double")
        lows[slot], highs[slot] = iv
    return np.random.default_rng(seed).uniform(lows, highs,
                                               (samples, layout.dim))


def _domain_exit(sys, box):
    """The survey's retire test for _march: None for a family without an
    isolation domain, else a function of a block of the live rows (steps,
    dim, rows) that gives None or the (steps, rows) mask of the states
    outside the open domain.

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

    def outside(block):
        w = block[:, slots]
        out = ((w <= lows) | (w >= highs)).any(axis=1)  # nan stays inside
        return out if out.any() else None
    return outside


def _survey_block(sys: System, states: np.ndarray, domain: ModularDomain,
                  horizon: float):
    """One worker's rows of the survey: their six arrays of the report,
    in order, and the march's work counts (see SurveyReport). Skipped
    rows are marched too, then reported as skipped."""
    layout = sys.layout
    dim = layout.dim

    off_slots = [s for s in range(dim)
                 if not (sys.slots.phi.start <= s < sys.slots.phi.stop)]
    # one expression, so that no (rows, dim) distances outlive it into
    # the march
    skipped = np.sqrt((component_distances(layout, states, np.zeros(dim))[
        :, off_slots] ** 2).sum(axis=1)) <= _SKIP_TOL

    # the closest squared return of each row, rooted at the end, and the
    # time it was dropped; origin, slot-major as the march, and gap2
    # (all_gap2 itself up to the first drop) follow its live rows,
    # compacted at each drop
    all_gap2 = np.full(len(states), math.inf)
    exit_t = np.full(len(states), math.nan)
    origin, gap2 = np.ascontiguousarray(states.T), all_gap2
    step, origin = _fixed_step(sys, _SURVEY_STEP, origin)
    moving = [s for s in range(dim) if s not in step.zero]
    work = {"row_steps": 0, "row_steps_past_drop": 0, "blocks": 0}

    def track_gaps(t, block, live, first):
        nonlocal origin, gap2
        n = len(t)
        work["row_steps"] += n * len(live)
        work["blocks"] += 1
        j0 = int(np.searchsorted(t, _T_MIN))  # the steps from t_min on
        if j0 < n:
            d2 = _squared_returns(layout, block[j0:], origin, moving)
            if first is not None:  # no return at or past a row's drop
                np.copyto(d2, math.inf,
                          where=np.arange(j0, n)[:, None] >= first)
            np.minimum(gap2, d2.min(axis=0), out=gap2)
        if first is not None:
            out = first < n
            work["row_steps_past_drop"] += int((n - 1 - first[out]).sum())
            all_gap2[live[out]] = gap2[out]
            exit_t[live[out]] = t[first[out]]
            keep = np.flatnonzero(~out)
            origin, gap2 = origin.take(keep, axis=1), gap2.take(keep)

    final, escaped, _, work["steps"], _ = _march(
        step, origin, horizon, _SURVEY_STEP, track_gaps,
        _domain_exit(sys, domain.intervals))
    all_gap2[np.isnan(exit_t)] = gap2
    gaps = np.sqrt(all_gap2)
    # a dropped row that did not escape left the domain; a skipped row
    # reads as neither
    exit_t[escaped | skipped] = math.nan
    retired = ~np.isnan(exit_t)
    escaped &= ~skipped
    # the gain is the certificate's change: rk4 advances y + sum(q) by the
    # same combination of stage rates as it would an extra slot holding
    # the certificate's rate, so no such slot is needed. The final states
    # are made row-major first, so that sum(q) adds as it does on a row
    gains = _certificate(sys, final.T.copy()) - _certificate(sys, states)
    gains[escaped | retired] = math.inf
    gains[skipped] = gaps[skipped] = np.nan
    return (gains, gaps, escaped, skipped, retired, exit_t), work


def _squared_returns(layout, block, origin, moving):
    """The squared distance of each state of a block (K, dim, rows) of
    rk4 steps of h > 0 to its row's start, origin (dim, rows): that of
    torus_distance_batch, slot by slot, summed down the slots in the
    order numpy sums each state's row. The square makes the distance's
    abs needless.

    Only the slots in moving are read. After such a step from s, a
    zero-rate slot holds s + 0.0: its difference to a finite start, that
    difference's arc and its square are +0.0, which adds nothing to a sum
    of squares >= +0.0 or nan. The sum leaves those slots out, as None,
    and keeps numpy's grouping of the others.
    """
    squares = [None] * layout.dim
    for s in moving:
        d = np.subtract(block[:, s], origin[s])
        if layout.is_angle(s):
            shortest_arcs(d)
        squares[s] = np.multiply(d, d, out=d)
    return _numpy_sum(squares, _add_into)


def _add_into(a, b):
    """a + b, written into a, which nothing reads again; None is a term
    left out of the sum."""
    return b if a is None else a if b is None else np.add(a, b, out=a)


def _certificate(sys, states):
    """The escape certificate y + sum(q) of each row."""
    return states[:, sys.slots.y] + states[:, sys.slots.q].sum(axis=-1)


def survey_uniqueness(sys: System, domain: ModularDomain, samples: int,
                      seed: int, horizon: float = 20.0,
                      jobs: int = 1) -> SurveyReport:
    """Randomized search for recurrent orbits away from the canonical torus.

    Each seeded sample is integrated over the horizon in rk4 steps of
    1e-2; its certificate gain is the change of y + sum(q) over the
    march, and its gap the closest return to the start after t = 1. A
    sample is a candidate only when the gain stays at most 1e-8 AND the
    return gap drops below 1e-3; samples within 1e-6 of the torus in the
    non-angle directions are marched but reported as skipped, on-torus,
    and samples that leave the escape norm 1e8 are self-refuting. The
    samples are drawn at once from one default_rng(seed) stream, row i
    from its doubles i*dim on, so results are deterministic in (seed,
    index) and independent of the job count. They are split into one
    contiguous block per worker, min(jobs, samples, CPUs) of them, each
    marched in a process pool worker that receives the System itself (a
    System is its texts and pickles as it is); one worker marches them
    all in this process.

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

    states = _sample_box(sys.layout, domain, seed, samples)
    # the pool starts all its workers at once, so no more than there are
    # samples or CPUs to run them
    workers = min(jobs, samples, len(os.sched_getaffinity(0)))
    if workers <= 1:
        blocks = [_survey_block(sys, states, domain, horizon)]
    else:
        # imported here: a process pool costs each start of the CLI its
        # multiprocessing import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_survey_block, sys, rows, domain, horizon)
                    for rows in np.array_split(states, workers)]
            blocks = [f.result() for f in futs]

    results, works = zip(*blocks)
    gains, gaps, escaped, skipped, retired, exit_t = (
        np.concatenate(parts) for parts in zip(*results))
    candidate = (~skipped) & (~escaped) & (~retired) \
        & (gains <= _GAIN_TOL) & (gaps < _GAP_TOL)
    telemetry = {key: sum(w[key] for w in works) for key in works[0]}
    telemetry.update(escaped=int(escaped.sum()), retired=int(retired.sum()))
    return SurveyReport(gains=gains, gaps=gaps, escaped=escaped,
                        skipped=skipped, retired=retired, exit_t=exit_t,
                        candidate=candidate, telemetry=telemetry)
