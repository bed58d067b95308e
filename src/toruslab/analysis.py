"""Verification toolkit for the torus catalog.

Conservation drift, Poisson brackets, integral rank, Kronecker-flow
checks, recurrence gaps, Poincare sections, monodromy, frequency
measurement, the circulation-period quadrature oracle, the uniqueness
survey, and the reversibility check. Everything here is a measurement
with an explicit tolerance; nothing is assumed from the construction of
the systems themselves, which is the point.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConvergenceFailure,
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
from .integrators import (
    IntegratorConfig,
    Trajectory,
    _march,
    _rk4_step,
    integrate,
    integrate_batch,
    integrate_variational,
)
from .phase import (
    CoordinateLayout,
    MixedPoint,
    ModularDomain,
    component_distances,
    subdomain_of,
    torus_distance,
    torus_distance_batch,
    wrap_angle,
    wrap_angles,
)
from .systems import (
    CONTROL,
    System,
    TorusSpec,
    build_system,
    canonical_torus,
    isolation_domain,
    params_from_json,
    params_to_json,
    torus_point,
)

TWO_PI = 2.0 * math.pi


def _report_json(claim, parameters, verdict, metrics, seed=None) -> str:
    return json.dumps(
        {"claim": claim, "parameters": parameters, "verdict": verdict,
         "metrics": metrics, "seed": seed},
        sort_keys=True, default=float, indent=2) + "\n"


# ---------------------------------------------------------------------------
# conservation


def invariant_drift(sys: System, traj: Trajectory) -> np.ndarray:
    """Max |I_k(t) - I_k(0)| over the stored states, one entry per integral.

    The integrals of the compact families are built from sines, so
    evaluating them on wrapped stored states is safe.
    """
    if not sys.is_hamiltonian:
        raise NotHamiltonian(
            f"family {sys.family!r} has no conserved-energy drift report")
    vals = sys.integrals(traj.states)
    return np.max(np.abs(vals - vals[0]), axis=0)


# ---------------------------------------------------------------------------
# Poisson brackets


def _fd_gradient(fn, s, step):
    dim = len(s)
    g = np.empty(dim)
    for i in range(dim):
        h = step * (1.0 + abs(float(s[i])))
        e = np.zeros(dim)
        e[i] = h
        g[i] = (float(fn(s + e)) - float(fn(s - e))) / (2.0 * h)
    return g


def poisson_bracket(f, g, p: MixedPoint, pairing,
                    grad_f=None, grad_g=None, step: float = 1e-6) -> float:
    """{f, g} at p for the canonical pairing ((pos, mom), ...).

    f and g map raw coordinate arrays to scalars. Exact gradient callables
    can be supplied; otherwise central differences with per-slot step
    step * (1 + |coordinate|) are used.

    Examples
    --------
    With the single pair ((y, x)), {y, x} = 1 identically.
    """
    s = p.coords
    gf = np.asarray(grad_f(s), dtype=float) if grad_f is not None \
        else _fd_gradient(f, s, step)
    gg = np.asarray(grad_g(s), dtype=float) if grad_g is not None \
        else _fd_gradient(g, s, step)
    total = 0.0
    for pos, mom in pairing:
        total += gf[pos] * gg[mom] - gf[mom] * gg[pos]
    return float(total)


def bracket_matrix(sys: System, states: np.ndarray,
                   scheme: str = "exact", step: float = 1e-6) -> np.ndarray:
    """All pairwise brackets of the first integrals, shape (..., k, k).

    scheme 'exact' contracts the hand-written gradients; 'fd' rebuilds
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
        k = len(sys.integral_names)
        G = np.empty(states.shape[:-1] + (k, states.shape[-1]))
        for i in range(states.shape[-1]):
            h = step * (1.0 + np.abs(states[..., i]))
            e = np.zeros(states.shape[-1])
            e[i] = 1.0
            up = sys.integrals(states + h[..., None] * e)
            dn = sys.integrals(states - h[..., None] * e)
            G[..., i] = (up - dn) / (2.0 * h[..., None])
    else:
        raise InvalidValue(f"unknown scheme {scheme!r}")
    pos = [a for a, _ in sys.canonical_pairing]
    mom = [b for _, b in sys.canonical_pairing]
    Gp = G[..., pos]
    Gm = G[..., mom]
    return np.einsum("...ik,...jk->...ij", Gp, Gm) \
        - np.einsum("...ik,...jk->...ij", Gm, Gp)


def integral_jacobian_rank(sys: System, p: MixedPoint,
                           tol: float = 1e-8) -> int:
    """Numerical rank of the stacked integral gradients at p.

    Counts singular values above tol * sigma_max. Generic points give the
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
    return int(np.sum(sigma > tol * sigma[0]))


# ---------------------------------------------------------------------------
# Kronecker flow on a torus


@dataclass(frozen=True)
class KroneckerReport:
    """Deviation of integrated orbits from the pinned-plus-linear model."""

    max_pinned_dev: float
    max_angle_dev: float
    tol: float
    horizon: float
    n_starts: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.max_pinned_dev <= self.tol \
            and self.max_angle_dev <= self.tol

    def to_json(self) -> str:
        return _report_json(
            "torus is invariant and carries linear angle flow",
            {"horizon": self.horizon, "tol": self.tol,
             "n_starts": self.n_starts},
            "pass" if self.passed else "fail",
            {"max_pinned_dev": self.max_pinned_dev,
             "max_angle_dev": self.max_angle_dev},
            self.seed)


def verify_kronecker(sys: System, spec: TorusSpec, horizon: float = 100.0,
                     tol: float = 1e-8, n_starts: int = 3, seed: int = 0,
                     config: Optional[IntegratorConfig] = None
                     ) -> KroneckerReport:
    """Integrate from several starts on the torus and measure two deviations.

    Pinned slots must hold their values and each free angle must follow
    wrap(phi0 + freq * t), both within tol over the whole horizon. The
    stored frequency is the signed per-slot rate, so flipped-sign tori
    are checked against their actual drift direction.
    """
    if not isinstance(spec, TorusSpec):
        raise InvalidValue("verify_kronecker takes a TorusSpec; "
                           "nearby tori drift nonuniformly and are "
                           "checked through measure_frequencies")
    cfg = config or IntegratorConfig(h=1e-2)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-math.pi, math.pi, (n_starts, len(spec.free_angles)))
    states0 = np.stack([torus_point(spec, a).coords for a in starts])
    res = integrate_batch(sys, states0, horizon, cfg, layout=sys.layout,
                          store_every=10)
    if res.escaped.any():
        raise NumericalBlowup("a torus start escaped; the spec is not "
                              "invariant", time=float(horizon))
    times = res.stored_times
    stored = res.stored_states  # (T, n_starts, dim)

    predicted = np.tile(states0, (len(times), 1, 1))
    for slot, val in spec.pinned:
        predicted[..., slot] = val
    for slot, rate in zip(spec.free_angles, spec.frequency):
        predicted[..., slot] = states0[None, :, slot] \
            + rate * times[:, None]
    dev = component_distances(sys.layout, stored, predicted)

    pinned_slots = [slot for slot, _ in spec.pinned]
    free_slots = list(spec.free_angles)
    return KroneckerReport(
        max_pinned_dev=float(np.max(dev[..., pinned_slots], initial=0.0)),
        max_angle_dev=float(np.max(dev[..., free_slots], initial=0.0)),
        tol=tol, horizon=horizon, n_starts=n_starts, seed=seed)


# ---------------------------------------------------------------------------
# recurrence


def recurrence_gap(sys: System, p0: MixedPoint, t_min: float,
                   horizon: float,
                   config: Optional[IntegratorConfig] = None) -> float:
    """Closest return distance min over t in [t_min, horizon] of
    d(flow_t(p0), p0); +inf when the orbit escapes.

    The distance is sampled on the step grid and then sharpened by a
    ternary search between the neighbors of the best sample, so a true
    periodic return is resolved far below the grid spacing.
    """
    if not (horizon > t_min > 0):
        raise InvalidValue("need horizon > t_min > 0")
    cfg = config or IntegratorConfig(h=1e-2)
    try:
        traj = integrate(sys, p0, horizon, cfg)
    except NumericalBlowup:
        return math.inf
    mask = traj.times >= t_min - 1e-12
    if not mask.any():
        raise InvalidValue("no samples at or beyond t_min")
    d = torus_distance_batch(sys.layout, traj.states[mask], p0.coords)
    k = int(np.argmin(d)) + int(np.argmax(mask))
    best = float(d.min())

    # sharpen between the neighbors of the best sample; restarting from a
    # wrapped stored state is legitimate because every field is periodic
    # in its angle slots
    lo_i = max(k - 1, 0)
    s_lo = traj.states[lo_i]
    t_lo = traj.times[lo_i]
    width = traj.times[min(k + 1, len(traj) - 1)] - t_lo
    if width <= 0:
        return best

    def dist_at(tau):
        s = _rk4_step(sys.field, s_lo, 0.5 * tau)
        s = _rk4_step(sys.field, s, 0.5 * tau)
        return float(torus_distance_batch(sys.layout, s, p0.coords))

    a = max(0.0, t_min - t_lo)
    b = min(width, horizon - t_lo)
    for _ in range(60):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if dist_at(m1) <= dist_at(m2):
            b = m2
        else:
            a = m1
    return min(best, dist_at(0.5 * (a + b)))


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
    rate: float


def poincare_map(sys: System, section: Section, p0: MixedPoint,
                 config: Optional[IntegratorConfig] = None,
                 horizon: float = 1000.0) -> PoincareResult:
    """Flow p0 to its next directed crossing of the section.

    An orbit starting on the section is advanced a full turn, not
    reported at time zero. The crossing is bracketed by fixed steps,
    seeded by a cubic Hermite model of the bracketing step, then polished
    by Newton iterations on the actual flow to |angle - value| <= 1e-10.
    """
    if not sys.layout.is_angle(section.slot):
        raise InvalidValue(
            f"slot {section.slot} is not angular in this layout")
    if not horizon > 0:
        raise InvalidValue("horizon must be positive")
    cfg = config or IntegratorConfig(h=1e-2)
    sgn = float(section.direction)
    theta0 = wrap_angle(float(p0.coords[section.slot]) - section.value)
    # offset coordinate relative to the unwrapped running angle; the next
    # directed crossing sits at a fixed multiple of 2*pi
    if abs(theta0) <= 1e-12:
        target = sgn * TWO_PI
    elif sgn > 0:
        target = TWO_PI if theta0 > 0 else 0.0
    else:
        target = -TWO_PI if theta0 < 0 else 0.0
    base = float(p0.coords[section.slot])
    s_old, t_old, th_old = p0.coords, 0.0, theta0
    bracket = None

    def at_crossing(k, t, h_k, state, escaped):
        nonlocal s_old, t_old, th_old, bracket
        th_new = theta0 + (float(state[section.slot]) - base)
        if (th_old < target <= th_new) if sgn > 0 \
                else (th_old > target >= th_new):
            bracket = (s_old, state, t_old, h_k)
            return True
        s_old, t_old, th_old = state, t, th_new
        return False

    _, escaped, escape_time, _ = _march(partial(_rk4_step, sys.field),
                                        p0.coords, horizon, cfg, at_crossing)
    if bracket is not None:
        return _polish_crossing(sys, section, *bracket, target, theta0, base)
    if escaped:
        raise NumericalBlowup(
            f"orbit escaped near t={escape_time:.6g} before crossing",
            time=float(escape_time))
    raise NoReturn(f"no crossing of the section within horizon {horizon}")


def _polish_crossing(sys, section, s_bracket, s_end, t_bracket, h, target,
                     theta0, base):
    f = sys.field
    slot = section.slot

    def value_at(tau):  # two rk4 half steps from the bracket start
        return _rk4_step(f, _rk4_step(f, s_bracket, 0.5 * tau), 0.5 * tau)

    # Hermite model of the offset over the bracketing step
    g0 = theta0 + float(s_bracket[slot]) - base - target
    r0 = float(f(s_bracket)[slot])
    g1 = theta0 + float(s_end[slot]) - base - target
    r1 = float(f(s_end)[slot])
    tau = h * g0 / (g0 - g1) if g0 != g1 else 0.5 * h
    for _ in range(8):
        u = tau / h
        herm = (g0 * (1 + 2 * u) * (1 - u) ** 2 + g1 * u * u * (3 - 2 * u)
                + h * u * (1 - u) * (r0 * (1 - u) - r1 * u))
        dherm = ((6 * u * u - 6 * u) * (g0 - g1) / h
                 + r0 * (1 - 4 * u + 3 * u * u) + r1 * (3 * u * u - 2 * u))
        if dherm == 0.0:
            break
        tau = min(max(tau - herm / dherm, 0.0), h)

    for _ in range(16):
        s_tau = value_at(tau)
        err = theta0 + float(s_tau[slot]) - base - target
        rate = float(f(s_tau)[slot])
        if abs(rate) < 1e-8:
            raise TangentCrossing(f"angular rate {rate:.3g} at the crossing")
        if abs(err) <= 1e-10:
            return PoincareResult(
                point=MixedPoint.of(sys.layout, s_tau),
                time=t_bracket + tau, rate=rate)
        tau = min(max(tau - err / rate, -0.1 * h), 1.1 * h)
    raise ConvergenceFailure(  # pragma: no cover - guarded by bracketing
        "crossing refinement did not converge")


def poincare_linearization(sys: System, section: Section, p: MixedPoint,
                           delta: float = 1e-5,
                           config: Optional[IntegratorConfig] = None,
                           horizon: float = 100.0) -> np.ndarray:
    """Finite-difference Jacobian of the return map at p.

    Rows and columns run over every slot except the section angle, in
    layout order. p should be (numerically) a fixed point of the map.
    """
    slots = [i for i in range(sys.layout.dim) if i != section.slot]
    J = np.empty((len(slots), len(slots)))
    for j, slot in enumerate(slots):
        up = p.replace(slot, p.coords[slot] + delta)
        dn = p.replace(slot, p.coords[slot] - delta)
        r_up = poincare_map(sys, section, up, config, horizon).point.coords
        r_dn = poincare_map(sys, section, dn, config, horizon).point.coords
        diff = r_up[slots] - r_dn[slots]
        ang = [k for k, sl in enumerate(slots)
               if sys.layout.is_angle(sl)]
        for k in ang:
            diff[k] = wrap_angle(diff[k])
        J[:, j] = diff / (2.0 * delta)
    return J


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

    def to_json(self) -> str:
        return _report_json(
            "periodic-orbit search on one energy level",
            {"iterations": self.iterations},
            self.status,
            {"residual": self.residual, "singular": self.singular,
             "message": self.message})


def _solve_energy_slot(sys, z_slots, z, phi_slot, phi_val, u_slot, energy):
    # fill a full state and pick u so that H = energy; dH/du equals the
    # phi component of the field, so the 1D Newton needs no extra code
    s = np.zeros(sys.dim)
    s[phi_slot] = phi_val
    s[z_slots] = z
    u = 0.0
    for _ in range(40):
        s[u_slot] = u
        g = float(sys.hamiltonian(s)) - energy
        dg = float(sys.field(s)[phi_slot])
        if abs(g) <= 1e-13 * max(1.0, abs(energy)):
            return s
        if abs(dg) < 1e-10:
            return None
        u = u - g / dg
        if not math.isfinite(u):
            return None
    return None


def find_fixed_point(sys: System, section: Section, guess: MixedPoint,
                     energy: float = 0.0, tol: float = 1e-9,
                     max_iter: int = 50,
                     config: Optional[IntegratorConfig] = None,
                     horizon: float = 50.0) -> FixedPointResult:
    """Newton search for a fixed point of the return map at one energy.

    Works in the reduced variables z = every slot except the section
    angle and the first action, whose value is recovered from the energy
    constraint at each evaluation. The Newton matrix is declared singular
    when its smallest singular value drops below 1e-12 times the largest
    or below 1e-8 outright; the absolute floor covers matrices whose
    exact value is zero but whose central-difference estimate picks up
    pure curvature noise of order step^2. Stagnation under step halving
    or an escaping orbit gives 'not-found'.
    """
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

    def reduced_map(zv):
        s = _solve_energy_slot(sys, z_slots, zv, phi_slot, section.value,
                               u_slot, energy)
        if s is None:
            return None, None
        try:
            res = poincare_map(sys, section, MixedPoint.of(sys.layout, s),
                               config, horizon)
        except (NoReturn, NumericalBlowup, TangentCrossing):
            return None, None
        return res.point.coords[z_slots] - zv, s

    def fd_jacobian(zv):
        k = len(zv)
        J = np.empty((k, k))
        for i in range(k):
            d = 1e-6 * (1.0 + abs(float(zv[i])))
            e = np.zeros(k)
            e[i] = d
            up, _ = reduced_map(zv + e)
            dn, _ = reduced_map(zv - e)
            if up is None or dn is None:
                return None
            J[:, i] = (up - dn) / (2.0 * d)
        return J

    F, lifted = reduced_map(z)
    if F is None:
        return FixedPointResult("not-found", None, math.inf, 0, False,
                                "orbit from the guess left the section "
                                "machinery (escape or no return)")
    for it in range(max_iter):
        r = float(np.max(np.abs(F)))
        J = fd_jacobian(z)
        singular = False
        if J is not None:
            sigma = np.linalg.svd(J, compute_uv=False)
            floor = max(1e-12 * float(sigma[0]), 1e-8)
            singular = bool(sigma[-1] < floor)
        if r <= tol:
            return FixedPointResult(
                "found", MixedPoint.of(sys.layout, lifted), r, it,
                singular,
                "linearization is degenerate at the solution"
                if singular else "")
        if J is None:
            return FixedPointResult("not-found", None, r, it, False,
                                    "Jacobian evaluation left the "
                                    "domain of the return map")
        if singular:
            return FixedPointResult(
                "singular-linearization", None, r, it, True,
                "Newton matrix is rank-deficient away from a solution")
        step = np.linalg.solve(J, -F)
        big = np.max(np.abs(step))
        if big > 0.5:  # trust region: the families blow up fast
            step *= 0.5 / big
        improved = False
        for _ in range(8):
            F_new, lifted_new = reduced_map(z + step)
            if F_new is not None and np.max(np.abs(F_new)) < r:
                z = z + step
                F, lifted = F_new, lifted_new
                improved = True
                break
            step *= 0.5
        if not improved:
            return FixedPointResult("not-found", None, r, it + 1, False,
                                    "trust-region steps stopped "
                                    "improving the residual")
    return FixedPointResult("not-found", None, float(np.max(np.abs(F))),
                            max_iter, False, "iteration cap reached")


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

    def to_json(self) -> str:
        return _report_json(
            "multipliers of the periodic orbit",
            {"period": self.period},
            "computed",
            {"multipliers": [[z.real, z.imag] for z in self.multipliers],
             "max_residual": float(self.residuals.max())})


def monodromy(sys: System, point: Optional[MixedPoint] = None,
              period: Optional[float] = None,
              config: Optional[IntegratorConfig] = None) -> MonodromyResult:
    """Multipliers of the closed orbit through `point` (canonical default).

    Integrates the tangent flow over one period and takes eigenvalues of
    the resulting matrix; each eigenpair's residual ||Mv - lambda v|| is
    reported and must be small for the decomposition to mean anything.
    """
    if sys.params.n != 1:
        raise InvalidValue("monodromy is defined for the n=1 orbit")
    w = sys.params.omega[0]
    if w == 0.0:
        raise InvalidValue("zero frequency has no closed orbit")
    if point is None:
        point = torus_point(canonical_torus(sys), [0.0])
    if period is None:
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

    def value_of(self, label_index: int) -> float:
        return float(self.values[self.slots.index(label_index)])


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


@dataclass(frozen=True)
class ReversibilityReport:
    """Deviation of the flow from involution conjugacy at one point."""

    deviation: float
    t: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tol

    def to_json(self) -> str:
        return _report_json(
            "flow conjugates to its reverse through the involution",
            {"t": self.t, "tol": self.tol},
            "pass" if self.passed else "fail",
            {"deviation": self.deviation})


def verify_reversibility(sys: System, p: MixedPoint, t: float,
                         tol: float = 1e-6,
                         config: Optional[IntegratorConfig] = None,
                         field=None) -> ReversibilityReport:
    """Measure d(flow_{-t}(g(p)), g(flow_t(p))) for the involution g.

    A `field` override substitutes the right-hand side while keeping the
    involution, which is how the sign-flipped negative control is run.
    """
    if not t > 0:
        raise InvalidValue("t must be positive")
    cfg = config or IntegratorConfig(method="adaptive", h=1e-2,
                                     rel_tol=1e-10, abs_tol=1e-12)
    f = field if field is not None else sys.field
    fwd = integrate(f, p, t, cfg)
    g_of_flow = MixedPoint.of(sys.layout,
                              sys.involution(fwd.final_point.coords))
    g_p = MixedPoint.of(sys.layout, sys.involution(p.coords))
    back = integrate(f, g_p, -t, cfg)
    dev = torus_distance(back.final_point, g_of_flow)
    return ReversibilityReport(deviation=dev, t=t, tol=tol)


def reversibility_deviations(sys: System, points: np.ndarray, t: float,
                             config: Optional[IntegratorConfig] = None
                             ) -> np.ndarray:
    """Conjugacy deviation for a batch of start points (rows).

    Fixed-step batch integration; rows whose orbit escapes in either
    direction report +inf.
    """
    if not t > 0:
        raise InvalidValue("t must be positive")
    cfg = config or IntegratorConfig(h=1e-3)
    pts = np.asarray(points, dtype=float)
    fwd = integrate_batch(sys, pts, t, cfg, layout=sys.layout)
    back = integrate_batch(sys, sys.involution(pts), -t, cfg,
                           layout=sys.layout)
    dev = torus_distance_batch(sys.layout, back.final,
                               sys.involution(fwd.final))
    dev[fwd.escaped | back.escaped] = math.inf
    return dev


# ---------------------------------------------------------------------------
# uniqueness survey


@dataclass(frozen=True, eq=False)
class SurveyCandidate:
    index: int
    point: np.ndarray
    gain: float
    gap: float


@dataclass(frozen=True, eq=False)
class SurveyReport:
    """Per-sample escape-certificate gains and recurrence gaps.

    candidates lists the samples that defeated both thresholds; an empty
    list is the corroboration of uniqueness at this sampling scale.
    """

    family: str
    n_samples: int
    seed: int
    horizon: float
    gain_tol: float
    gap_tol: float
    gains: np.ndarray
    gaps: np.ndarray
    escaped: np.ndarray
    skipped: np.ndarray
    candidates: tuple[SurveyCandidate, ...]

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    def to_csv(self) -> str:
        rows = ["index,gain,gap,escaped,skipped"]
        for i in range(self.n_samples):
            rows.append(f"{i},{self.gains[i]:.17g},{self.gaps[i]:.17g},"
                        f"{int(self.escaped[i])},{int(self.skipped[i])}")
        return "\n".join(rows) + "\n"

    def to_json(self) -> str:
        finite = self.gains[np.isfinite(self.gains) & ~self.skipped]
        return _report_json(
            "no recurrent orbit off the canonical torus in the box",
            {"family": self.family, "samples": self.n_samples,
             "horizon": self.horizon, "gain_tol": self.gain_tol,
             "gap_tol": self.gap_tol},
            "corroborated" if self.n_candidates == 0
            else f"{self.n_candidates} candidates need review",
            {"candidates": self.n_candidates,
             "escaped": int(self.escaped.sum()),
             "skipped": int(self.skipped.sum()),
             "min_offtorus_gain":
                 float(finite.min()) if len(finite) else None},
            self.seed)


def _sample_box(layout: CoordinateLayout, domain: ModularDomain,
                seed: int, index: int) -> np.ndarray:
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
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return rng.uniform(lows, highs)


def _survey_block(params_json: str, intervals, seed: int, start: int,
                  stop: int, horizon: float, cfg: IntegratorConfig,
                  t_min: float, skip_tol: float):
    sys = build_system(params_from_json(params_json))
    domain = ModularDomain(intervals=intervals)
    layout = sys.layout
    dim = layout.dim
    nb = stop - start
    states = np.stack([_sample_box(layout, domain, seed, i)
                       for i in range(start, stop)])

    off_slots = [s for s in range(dim)
                 if not (sys.slots.phi.start <= s < sys.slots.phi.stop)]
    d0 = component_distances(layout, states, np.zeros(dim))
    off_dist = np.sqrt((d0[:, off_slots] ** 2).sum(axis=1))
    skipped = off_dist <= skip_tol

    f = sys.field
    ysl = sys.slots.y
    qsl = sys.slots.q

    def aug(z):
        s = z[..., :dim]
        r = f(s)
        rate = r[..., ysl]
        if qsl.stop > qsl.start:
            rate = rate + r[..., qsl].sum(axis=-1)
        return np.concatenate([r, rate[..., None]], axis=-1)

    z = np.concatenate([states, np.zeros((nb, 1))], axis=1)
    run = np.flatnonzero(~skipped)
    escaped = np.zeros(nb, dtype=bool)
    gaps = np.full(nb, math.inf)

    def track_gaps(k, t, h_k, zk, esc):
        if t >= t_min:
            good = run[~esc]
            d = torus_distance_batch(layout, zk[~esc, :dim], states[good])
            gaps[good] = np.minimum(gaps[good], d)

    z[run], escaped[run], _, _ = _march(partial(_rk4_step, aug), z[run],
                                        horizon, cfg, track_gaps)
    gains = z[:, dim].copy()
    gains[escaped] = math.inf
    gains[skipped] = np.nan
    gaps[skipped] = np.nan
    final = wrap_angles(z[:, :dim], layout.angle_mask)
    return gains, gaps, escaped, skipped, final


def survey_uniqueness(sys: System, domain: ModularDomain, samples: int,
                      seed: int, horizon: float = 20.0, dt: float = 1e-2,
                      t_min: float = 1.0, gain_tol: float = 1e-8,
                      gap_tol: float = 1e-3, skip_tol: float = 1e-6,
                      jobs: int = 1,
                      escape_norm: float = 1e8) -> SurveyReport:
    """Randomized search for recurrent orbits away from the canonical torus.

    Each seeded sample is integrated over the horizon while co-integrating
    the certificate gain (the integral of the escape rate along the
    orbit) and tracking its closest return to the start after t_min. A
    sample is a candidate only when the gain stays below gain_tol AND the
    return gap drops below gap_tol; samples within skip_tol of the torus
    in the non-angle directions are skipped as on-torus, and escaping
    samples are self-refuting. Results are deterministic in (seed, index)
    and independent of the job count.

    For the compact families the box must lie inside isolation_domain,
    where the certificate is one-signed; for the unbounded families any
    bounded box is admissible because the certificate identity is global.
    """
    if sys.family == CONTROL:
        raise InvalidParams("the control fixture makes no uniqueness claim")
    if samples < 1:
        raise InvalidValue("need at least one sample")
    if not horizon > 0:
        raise InvalidValue("horizon must be positive")
    if sys.is_compact:
        if not subdomain_of(domain, isolation_domain(sys), sys.layout):
            raise DomainNotCertified(
                "survey box leaves the certified isolation domain")
    if domain.dim != sys.dim:
        raise InvalidValue("domain dimension does not match the system")

    pj = params_to_json(sys.params)
    cfg = IntegratorConfig(h=dt, escape_norm=escape_norm)
    blocks = []
    if jobs <= 1:
        blocks.append(_survey_block(pj, domain.intervals, seed, 0, samples,
                                    horizon, cfg, t_min, skip_tol))
    else:
        chunk = max(1, math.ceil(samples / jobs))
        spans = [(a, min(a + chunk, samples))
                 for a in range(0, samples, chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [pool.submit(_survey_block, pj, domain.intervals, seed,
                                a, b, horizon, cfg, t_min, skip_tol)
                    for a, b in spans]
            blocks = [f.result() for f in futs]

    gains = np.concatenate([b[0] for b in blocks])
    gaps = np.concatenate([b[1] for b in blocks])
    escaped = np.concatenate([b[2] for b in blocks])
    skipped = np.concatenate([b[3] for b in blocks])
    finals = np.concatenate([b[4] for b in blocks])

    cands = []
    flag = (~skipped) & (~escaped) & (gains <= gain_tol) & (gaps < gap_tol)
    for i in np.flatnonzero(flag):
        cands.append(SurveyCandidate(index=int(i), point=finals[i],
                                     gain=float(gains[i]),
                                     gap=float(gaps[i])))
    return SurveyReport(family=sys.family, n_samples=samples, seed=seed,
                        horizon=horizon, gain_tol=gain_tol,
                        gap_tol=gap_tol, gains=gains, gaps=gaps,
                        escaped=escaped, skipped=skipped,
                        candidates=tuple(cands))
