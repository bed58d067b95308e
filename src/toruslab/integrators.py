"""Fixed-step, adaptive, and symplectic integrators plus variational flow.

All steppers work on raw arrays of shape (..., dim) so a batch of states
integrates at numpy speed. One stepping loop, `_march`, serves every
fixed-step path: it lands exactly on the end time, freezes escaping rows
instead of raising, and hands each step to an observer that stores,
measures or stops. A single trajectory steps as a 1-D state, never as a
one-row batch, and a diverging midpoint iteration is reported as an escape.

Angular slots are wrapped only when states are stored, never inside a
step, so the running state keeps a continuous (unwrapped) angle history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvalidValue,
    NumericalBlowup,
    StepBudgetExceeded,
)
from .phase import CoordinateLayout, MixedPoint, wrap_angles

RK4 = "rk4"
ADAPTIVE = "adaptive"
MIDPOINT = "midpoint"
_METHODS = (RK4, ADAPTIVE, MIDPOINT)


@dataclass(frozen=True)
class IntegratorConfig:
    """Method selection and numerical knobs.

    h is the fixed step (rk4/midpoint) or the initial step (adaptive).
    The adaptive controller scales steps by 0.9 * norm^(-1/5), clamped to
    [0.2, 5] per step; the implicit midpoint solve iterates to an absolute
    update below midpoint_tol with a hard iteration cap.
    """

    method: str = RK4
    h: float = 1e-2
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = math.inf
    max_steps: int = 5_000_000
    store_every: int = 1
    midpoint_tol: float = 1e-12
    midpoint_max_iter: int = 50
    escape_norm: float = 1e8

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InvalidValue(f"unknown method {self.method!r}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise InvalidValue("h must be positive and finite")
        if self.store_every < 1:
            raise InvalidValue("store_every must be >= 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Stored output of one integration run.

    states holds wrapped copies of the running state, one row per stored
    step (the initial state, every store_every-th accepted step, and the
    final state). times[-1] lands exactly on the requested end time.
    """

    layout: CoordinateLayout
    times: np.ndarray
    states: np.ndarray
    config: IntegratorConfig
    n_steps: int
    n_rejected: int = 0

    def __len__(self):
        return len(self.times)

    def point(self, i: int) -> MixedPoint:
        return MixedPoint.of(self.layout, self.states[i])

    @property
    def final_point(self) -> MixedPoint:
        return self.point(len(self.times) - 1)

    def to_csv(self) -> str:
        """Header 't,<labels>' then one row per stored step."""
        header = "t," + ",".join(self.layout.labels)
        rows = [header]
        for t, row in zip(self.times, self.states):
            rows.append(",".join([f"{t:.17g}"]
                                 + [f"{v:.17g}" for v in row]))
        return "\n".join(rows) + "\n"


FieldLike = Union[Callable[[np.ndarray], np.ndarray], object]


def _as_field_fn(field: FieldLike) -> Callable[[np.ndarray], np.ndarray]:
    if callable(field):
        return field
    if hasattr(field, "field"):
        return field.field
    raise InvalidValue(f"not a field or system: {field!r}")


def _rk4_step(f, s, h):
    k1 = f(s)
    k2 = f(s + 0.5 * h * k1)
    k3 = f(s + 0.5 * h * k2)
    k4 = f(s + h * k3)
    # divide the stage sum, not h, so a constant field advances by
    # exactly h per step
    return s + h * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)


# Dormand-Prince 5(4) tableau; the last stage row doubles as the 5th-order
# weights (first-same-as-last is not exploited here for simplicity)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)


def _dp54_step(f, s, h):
    ks = [f(s)]
    for row in _DP_A[1:]:
        incr = sum(a * k for a, k in zip(row, ks))
        ks.append(f(s + h * incr))
    y5 = s + h * sum(b * k for b, k in zip(_DP_B5, ks))
    err = h * sum((b5 - b4) * k
                  for b5, b4, k in zip(_DP_B5, _DP_B4, ks))
    return y5, err


def step_rk4(field: FieldLike, p: MixedPoint, h: float) -> MixedPoint:
    """One classical Runge-Kutta step from p; result has wrapped angles."""
    if not (math.isfinite(h) and h != 0.0):
        raise InvalidValue("step size must be finite and nonzero")
    f = _as_field_fn(field)
    out = _rk4_step(f, p.coords, h)
    if not np.all(np.isfinite(out)):
        raise NumericalBlowup("state left the finite range in one step",
                              time=h)
    return MixedPoint.of(p.layout, out)


def _escaping(trial, escape_norm):
    # one test per row: inf, nan and |x| > escape_norm all fail the <=
    return ~(np.abs(trial).max(axis=-1) <= escape_norm)


def _batch_midpoint(f, s, h, cfg):
    # solve m = s + (h/2) f(m) by fixed-point iteration, then reflect; rows
    # that refuse to converge turn non-finite, which the escape test catches
    m = s + 0.5 * h * f(s)
    for _ in range(cfg.midpoint_max_iter):
        m_next = s + 0.5 * h * f(m)
        delta = np.abs(m_next - m).max(axis=-1)
        m = m_next
        # only finite rows above the tolerance keep iterating
        if not ((delta > cfg.midpoint_tol) & (delta < np.inf)).any():
            break
    else:
        stuck = np.max(np.abs(s + 0.5 * h * f(m) - m), axis=-1) \
            > cfg.midpoint_tol
        m = np.array(m)
        m[stuck] = np.nan
    return 2.0 * m - s


def _fixed_step(f, cfg):
    """The rk4 or midpoint step of cfg as a function of (state, h)."""
    if cfg.method == MIDPOINT:
        return lambda s, h: _batch_midpoint(f, s, h, cfg)
    return partial(_rk4_step, f)


def _march(step, state, t_end, cfg, observe=None):
    """Advance state, shape (dim,) or (rows, dim), to t_end in fixed steps.

    int(|t_end| / h) whole steps, then a remainder step if one is left;
    the last step ends exactly at t_end. An escaping row is frozen at its
    last finite state. The march ends when no row is left or when
    observe(k, t, h_k, state, escaped), called after each step, returns
    true. Returns (state, escaped, escape_times, steps taken).
    """
    if not (math.isfinite(t_end) and t_end != 0.0):
        raise InvalidValue("t_end must be finite and nonzero")
    direction = 1.0 if t_end > 0 else -1.0
    span = abs(t_end)
    h = min(cfg.h, cfg.max_step)
    n_whole = int(span / h + 1e-9)
    remainder = span - n_whole * h
    total = n_whole + (1 if remainder > 1e-12 else 0)
    if total > cfg.max_steps:
        raise StepBudgetExceeded(
            f"{total} steps needed, cap is {cfg.max_steps}")

    state = np.array(state, dtype=float)
    escaped = np.zeros(state.shape[:-1], dtype=bool)
    escape_times = np.full(state.shape[:-1], np.nan)
    live = None  # indices of the rows still marching, once one escaped
    k = -1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(total):
            h_k = direction * (h if k < n_whole else remainder)
            t = t_end if k == total - 1 else direction * ((k + 1) * h)
            rows = live
            cur = state if rows is None else state[rows]
            trial = step(cur, h_k)
            bad = _escaping(trial, cfg.escape_norm)
            if bad.any():
                trial[bad] = cur[bad]  # freeze at the last finite state
                hit = np.flatnonzero(~escaped)[bad.reshape(-1)]
                escaped.flat[hit] = True
                escape_times.flat[hit] = t
                live = np.flatnonzero(~escaped)
            if rows is None:
                state = trial
            else:
                state[rows] = trial
            stop = observe is not None and observe(k, t, h_k, state, escaped)
            if stop or (live is not None and len(live) == 0):
                break
    return state, escaped, escape_times, k + 1


def integrate(field: FieldLike, p0: MixedPoint, t_end: float,
              config: Optional[IntegratorConfig] = None) -> Trajectory:
    """Advance p0 to time t_end (either sign) and record the trajectory.

    Raises NumericalBlowup when the state exceeds the escape norm or goes
    non-finite, a diverging midpoint iteration included (the exception
    carries the escape time and the partial trajectory as attributes),
    and StepBudgetExceeded past max_steps.

    Examples
    --------
    Quadratic escape has an exact solution to compare against:
    y' = y^2, y(0) = 1 reaches 1/(1 - t).
    """
    cfg = config or IntegratorConfig()
    f = _as_field_fn(field)
    layout = p0.layout
    times = [0.0]
    stored = [wrap_angles(p0.coords, layout.angle_mask)]
    n_rejected = 0
    t_escape = None

    def store(t, state):
        times.append(t)
        stored.append(wrap_angles(state, layout.angle_mask))

    if cfg.method != ADAPTIVE:
        def observe(k, t, h_k, state, escaped):
            if not escaped and ((k + 1) % cfg.store_every == 0
                                or t == t_end):
                store(t, state)

        state, escaped, escape_time, n_steps = _march(
            _fixed_step(f, cfg), p0.coords, t_end, cfg, observe)
        if escaped:
            t_escape = float(escape_time)
    else:
        if not (math.isfinite(t_end) and t_end != 0.0):
            raise InvalidValue("t_end must be finite and nonzero")
        direction = 1.0 if t_end > 0 else -1.0
        span = abs(t_end)
        state = np.array(p0.coords, dtype=float)
        t = 0.0
        n_steps = 0
        h = min(cfg.h, cfg.max_step)
        with np.errstate(over="ignore", invalid="ignore"):
            while abs(t) < span - 1e-12:
                if n_steps + n_rejected > cfg.max_steps:
                    raise StepBudgetExceeded(
                        f"step cap {cfg.max_steps} reached at t={t:.6g}")
                h = min(h, cfg.max_step, span - abs(t))
                if h < 1e-14 * max(1.0, abs(t)):
                    raise ConvergenceFailure(
                        f"adaptive step collapsed near t={t:.6g}")
                trial, err = _dp54_step(f, state, direction * h)
                if not np.all(np.isfinite(trial)):
                    norm = math.inf
                else:
                    r = err / (cfg.abs_tol + cfg.rel_tol * np.maximum(
                        np.abs(state), np.abs(trial)))
                    norm = float(np.sqrt(np.mean(r * r)))
                if norm <= 1.0:
                    t = t_end if abs(t) + h >= span - 1e-12 \
                        else t + direction * h
                    n_steps += 1
                    if _escaping(trial, cfg.escape_norm):
                        t_escape = t
                        break
                    state = trial
                    if n_steps % cfg.store_every == 0 \
                            or abs(t) >= span - 1e-12:
                        store(t, state)
                    grow = 5.0 if norm == 0.0 \
                        else min(5.0, 0.9 * norm ** -0.2)
                    h *= max(0.2, grow)
                else:
                    n_rejected += 1
                    h *= max(0.2, 0.9 * norm ** -0.2)

    if t_escape is None and times[-1] != t_end:
        store(t_end, state)  # zero-length span edge; keep endpoint exact
    traj = Trajectory(layout=layout, times=np.array(times),
                      states=np.array(stored), config=cfg,
                      n_steps=n_steps, n_rejected=n_rejected)
    if t_escape is not None:
        exc = NumericalBlowup(
            f"trajectory escaped near t={t_escape:.6g}", time=t_escape)
        exc.trajectory = traj
        raise exc
    return traj


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Outcome of integrating a batch of states under one controller.

    escaped marks rows frozen after leaving the finite range (their final
    state is the last finite one, escape_times the detection time).
    stored_times/stored_states are present only when store_every is given;
    stored states hold wrapped angles. n_steps counts the steps taken,
    which stop early once every row has escaped.
    """

    final: np.ndarray
    escaped: np.ndarray
    escape_times: np.ndarray
    n_steps: int
    stored_times: Optional[np.ndarray] = None
    stored_states: Optional[np.ndarray] = None


def integrate_batch(field: FieldLike, states0: np.ndarray, t_end: float,
                    config: Optional[IntegratorConfig] = None,
                    layout: Optional[CoordinateLayout] = None,
                    store_every: Optional[int] = None) -> BatchResult:
    """Advance a whole batch (B, dim) to t_end with a shared fixed step.

    Supports the rk4 and midpoint methods (a shared adaptive controller
    would let one stiff row throttle everyone). Escaping rows are frozen
    at their last finite state rather than raising; a midpoint row whose
    iteration diverges counts as escaped at that time.
    """
    cfg = config or IntegratorConfig()
    if cfg.method == ADAPTIVE:
        raise InvalidValue("integrate_batch supports rk4 and midpoint")
    states = np.array(states0, dtype=float)
    if states.ndim != 2:
        raise InvalidValue("states0 must have shape (batch, dim)")
    mask = layout.angle_mask if layout is not None \
        else np.zeros(states.shape[1], dtype=bool)
    stored_times = stored = observe = None
    if store_every is not None:
        stored_times = [0.0]
        stored = [wrap_angles(states, mask)]

        def observe(k, t, h_k, state, escaped):
            if (k + 1) % store_every == 0 or t == t_end:
                stored_times.append(t)
                stored.append(wrap_angles(state, mask))

    final, escaped, escape_times, n_steps = _march(
        _fixed_step(_as_field_fn(field), cfg), states, t_end, cfg, observe)
    return BatchResult(
        final=final, escaped=escaped, escape_times=escape_times,
        n_steps=n_steps,
        stored_times=None if stored is None else np.array(stored_times),
        stored_states=None if stored is None else np.array(stored))


# ---------------------------------------------------------------------------
# Jacobians and variational flow


def field_jacobian(target, p: MixedPoint, scheme: str = "fd") -> np.ndarray:
    """Jacobian of the field at p.

    scheme 'exact' uses the hand-written system Jacobian and requires a
    System; 'fd' uses central differences with per-slot step
    1e-6 * (1 + |coordinate|) and works for any field callable.
    """
    if scheme == "exact":
        if not hasattr(target, "jacobian"):
            raise InvalidValue("scheme 'exact' needs a system with an "
                               "analytic jacobian")
        return target.jacobian(p.coords)
    if scheme != "fd":
        raise InvalidValue(f"unknown scheme {scheme!r}")
    f = _as_field_fn(target)
    s = p.coords
    dim = len(s)
    J = np.empty((dim, dim))
    for i in range(dim):
        h = 1e-6 * (1.0 + abs(float(s[i])))
        e = np.zeros(dim)
        e[i] = h
        J[:, i] = (np.asarray(f(s + e)) - np.asarray(f(s - e))) / (2.0 * h)
    return J


def _variational_field(f, jac, dim):
    """Field of z = (state, M flattened): (f(state), J(state) M)."""
    def aug_field(z):
        s = z[:dim]
        M = z[dim:].reshape(dim, dim)
        J = jac(s)
        return np.concatenate([f(s), (J @ M).ravel()])
    return aug_field


@dataclass(frozen=True, eq=False)
class VariationalResult:
    """End state of the flow plus the propagated tangent matrix."""

    end_point: MixedPoint
    matrix: np.ndarray
    n_steps: int


def integrate_variational(sys, p0: MixedPoint, t_end: float,
                          config: Optional[IntegratorConfig] = None,
                          scheme: str = "exact") -> VariationalResult:
    """Co-integrate state and tangent matrix M' = J(state(t)) M, M(0) = I.

    Uses fixed-step RK4 on the augmented system. t_end must be positive;
    monodromy conventions assume forward time.
    """
    if not t_end > 0:
        raise InvalidValue("t_end must be positive")
    cfg = config or IntegratorConfig(h=1e-2)
    dim = p0.layout.dim
    f = _as_field_fn(sys)

    if scheme == "exact":
        if not hasattr(sys, "jacobian"):
            raise InvalidValue("scheme 'exact' needs a system jacobian")
        jac = sys.jacobian
    elif scheme == "fd":
        def jac(s):  # MixedPoint.of wraps the angle slots
            return field_jacobian(f, MixedPoint.of(p0.layout, s),
                                  scheme="fd")
    else:
        raise InvalidValue(f"unknown scheme {scheme!r}")

    z0 = np.concatenate([p0.coords, np.eye(dim).ravel()])
    # only a non-finite state is a blowup; the bound is the largest float
    # and not inf, because inf <= inf would let an infinity through
    z, escaped, escape_time, steps = _march(
        partial(_rk4_step, _variational_field(f, jac, dim)), z0, t_end,
        replace(cfg, escape_norm=np.finfo(float).max))
    if escaped:
        raise NumericalBlowup("variational state left the finite range",
                              time=float(escape_time))
    return VariationalResult(
        end_point=MixedPoint.of(p0.layout, z[:dim]),
        matrix=z[dim:].reshape(dim, dim), n_steps=steps)
