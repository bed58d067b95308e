"""Fixed-step, adaptive, and symplectic integrators plus variational flow.

The numpy steppers work on raw arrays so a batch of states integrates
at numpy speed. A batch is slot-major, (dim, rows): each slot is a
contiguous row, and the reductions over slots run down axis 0. One
stepping loop, `_march`, serves every fixed-step path: it lands exactly
on the end time, freezes escaping rows instead of raising, stores
every store_every-th state, and hands each step to an observer that
measures or stops; the adaptive loop of `integrate` is the only other.
A batch marches only its live rows: an escaping row, or one its caller
retires, is written out once and dropped, and the observer sees the
live rows, never the full state.
The rows of a batch may run in both directions of time at once: given
one signed end time per row, all of one magnitude, they share one step
grid, and each steps with a signed h of its own, which drops with the
row when it escapes.
A single state of a System steps on Python floats instead, because
numpy's per-call cost dwarfs the arithmetic of one 4-8 slot state: the
fused rk4, midpoint and Dormand-Prince steps compiled from the system's
rates, and the fused rk4 step of its tangent flow, which carries a
tangent matrix for `integrate_variational` and the return maps of
`analysis`. Each repeats the numpy step's arithmetic in the same order.
A System batch of at most _FLOAT_ROWS (8) rows marches each row alone
as such a state, and `integrate_batch` assembles the batch's result. A
larger System batch, and the survey's, takes its rk4 steps through the
same generated step over the rows of the slot-major array (see
`dsl.compile_rows`). The numpy steps on the field remain for plain field
callables, for a System's midpoint batch of more than _FLOAT_ROWS rows
(_batch_midpoint), and for the one rk4 step of the Henon landing in
`analysis`.
Every fixed step, on floats, rows or arrays, is step(state, h). A
midpoint row iterates until its own update is at most _MIDPOINT_TOL, in
a batch as alone; one that diverges or is not converged after
_MIDPOINT_MAX_ITER iterations is reported as an escape. No run takes
more than _MAX_STEPS steps.

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
from .systems import System, _check_point

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
    update of at most _MIDPOINT_TOL, or _MIDPOINT_MAX_ITER times, and no
    run takes more than _MAX_STEPS steps.
    """

    method: str = RK4
    h: float = 1e-2
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    store_every: int = 1
    escape_norm: float = 1e8

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InvalidValue(f"unknown method {self.method!r}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise InvalidValue("h must be positive and finite")
        if self.store_every < 1:
            raise InvalidValue("store_every must be >= 1")


_CSV_BLOCK = 1024


def _csv_text(header: str, columns, line: str) -> str:
    """The one CSV writer: header, then `line % row` for each row of the
    columns. Python floats format as numpy's do, at a fraction of the
    cost, _CSV_BLOCK rows at a time, so no whole column is held as a list."""
    rows = [header]
    for a in range(0, len(columns[0]), _CSV_BLOCK):
        rows += map(line.__mod__, zip(
            *[col[a:a + _CSV_BLOCK].tolist() for col in columns]))
    return "\n".join(rows) + "\n"


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
        return _csv_text("t," + ",".join(self.layout.labels),
                         [self.times, *self.states.T],
                         ",".join(["%.17g"] * (1 + self.layout.dim)))


FieldLike = Union[System, Callable[[np.ndarray], np.ndarray]]


def _as_field_fn(field: FieldLike) -> Callable[[np.ndarray], np.ndarray]:
    """The field of slot-major states (dim, ...): a System's generated
    one, else the field callable (of states (..., dim)) on the transpose."""
    if isinstance(field, System):
        return field.compiled("field")
    if not callable(field):
        raise InvalidValue(f"not a field or system: {field!r}")
    return lambda s: np.asarray(field(s.T)).T


def _rk4_step(f, s, h):
    k1 = f(s)
    k2 = f(s + 0.5 * h * k1)
    k3 = f(s + 0.5 * h * k2)
    k4 = f(s + h * k3)
    # divide the stage sum, not h, so a constant field advances by
    # exactly h per step
    return s + h * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6
# (1980) 19-26). The last stage row is the 5th-order weights, so that stage
# evaluates the rates at the 5th-order state. An accepted step hands them
# on as the next step's first stage (first same as last) and a rejected
# one keeps its first stage, so each attempt costs 6 evaluations.
# dsl.compile_rates generates the same step over Python floats (dp54_step).
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


def _dp54_step(f, s, k1, h):
    # k1 = f(s); returns the 5th-order state, the error estimate and the
    # last stage's rates f(y5)
    ks = [k1]
    for row in _DP_A[1:]:
        incr = sum(a * k for a, k in zip(row, ks))
        ks.append(f(s + h * incr))
    y5 = s + h * sum(b * k for b, k in zip(_DP_B5, ks))
    err = h * sum((b5 - b4) * k
                  for b5, b4, k in zip(_DP_B5, _DP_B4, ks))
    return y5, err, ks[-1]


def _escaping(trial, escape_norm):
    # the test on one state (dim,); inf, nan and |x| > escape_norm all fail
    # the <=. _march tests a batch down its slots in the same way
    return not np.abs(trial).max() <= escape_norm


def _escaping_floats(trial, escape_norm):
    # the same test on a tuple of floats; max() skips a nan that is not
    # first, but the sum is nan whenever an entry is
    total = sum(trial)
    return not (max(map(abs, trial)) <= escape_norm and total == total)


_MIDPOINT_TOL = 1e-12
_MIDPOINT_MAX_ITER = 50
_MAX_STEPS = 5_000_000


def _batch_midpoint(f, s, h):
    # solve m = s + (h/2) f(m) by fixed-point iteration, then reflect; rows
    # that refuse to converge turn non-finite, which the escape test catches.
    # A row stops at its own convergence, as alone (dsl's midpoint_step),
    # though the field still sees every row while any iterates. A batch is
    # slot-major: norms run down axis 0, masks pick rows on the last axis
    hh = 0.5 * h
    m = s + hh * f(s)
    act = None  # the rows still iterating, None while that is all of them
    for _ in range(_MIDPOINT_MAX_ITER):
        m_next = s + hh * f(m)
        # only finite rows whose update is above the tolerance go on
        delta = np.abs(m_next - m).max(axis=0)
        going = (delta > _MIDPOINT_TOL) & (delta < np.inf)
        if act is None:
            m = m_next
        else:
            m[..., act] = m_next[..., act]
            going &= act
        if not going.any():
            break
        if act is not None or not going.all():
            act = going
    else:
        stuck = np.max(np.abs(s + hh * f(m) - m), axis=0) > _MIDPOINT_TOL
        m[..., stuck if act is None else stuck & act] = np.nan
    return 2.0 * m - s


def _compiled_for(field, state):
    """The compiled code that steps one state of a System on Python floats.

    A state of the system's dim slots gets its compiled rates; one of
    dim + dim^2 slots, the state followed by a tangent matrix row by row,
    gets its compiled tangent flow (see `dsl.compile_system`). A batch,
    another length, or a field that is not a System gets None and steps
    numpy arrays.
    """
    if not isinstance(field, System) or np.ndim(state) != 1:
        return None
    dim = field.dim
    kind = {dim: "rates", dim * (dim + 1): "tangent"}.get(len(state))
    return None if kind is None else field.compiled(kind)


def _fixed_step(field, cfg, state):
    """The rk4 or midpoint step of cfg, a function step(state, h), and
    the state for _march to start from.

    A state with compiled code (see _compiled_for) steps through it and
    starts as a tuple. A System batch (dim, rows) takes rk4 steps through
    the system's generated code for batches (see `dsl.compile_rows`),
    which gives _rk4_step's result bit for bit at a fraction of its cost;
    any other state steps numpy arrays.
    """
    code = _compiled_for(field, state)
    if code is not None:
        start = tuple(np.asarray(state, dtype=float).tolist())
        return (code.midpoint_step if cfg.method == MIDPOINT
                else code.rk4_step), start
    if cfg.method == RK4 and isinstance(field, System) \
            and np.ndim(state) == 2 and len(state) == field.dim:
        return field.compiled("rk4_rows"), state
    return partial(_batch_midpoint if cfg.method == MIDPOINT else _rk4_step,
                   _as_field_fn(field)), state


def _adaptive_step(field, cfg, state):
    """The Dormand-Prince step of cfg, the rates, and the state to start
    from; compiled code and tuples as in _fixed_step.

    The step is a function of (state, k1, h), k1 the rates at state, that
    gives the 5th-order state, the error norm and the rates there. The
    norm is the root mean square of the error over abs_tol + rel_tol *
    max(|state|, |trial|), slot by slot, and inf for a non-finite trial.
    """
    code = _compiled_for(field, state)
    if code is not None:
        return (partial(code.dp54_step, abs_tol=cfg.abs_tol,
                        rel_tol=cfg.rel_tol), code.field,
                tuple(np.asarray(state, dtype=float).tolist()))
    f = _as_field_fn(field)

    def step(s, k1, h):
        trial, err, k7 = _dp54_step(f, s, k1, h)
        if not np.all(np.isfinite(trial)):
            return trial, math.inf, k7
        r = err / (cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(s),
                                                          np.abs(trial)))
        return trial, float(np.sqrt(np.mean(r * r))), k7
    return step, f, np.array(state, dtype=float)


def _march(step, state, t_end, cfg, observe=None, retire=None,
           store_every=None):
    """Advance state, shape (dim,) or slot-major (dim, rows), to t_end in
    fixed steps.

    int(|t_end| / h) whole steps, then a remainder step if one is left;
    the last step ends exactly at t_end. Returns (state, escaped,
    escape_times, steps taken, stored), stored holding (t, state) after
    every store_every-th step and the last one when store_every is given,
    and empty otherwise; a batch is stored whole, its escaped rows at
    their last finite states. A state given as a tuple of floats is one
    row for a step compiled to Python floats (see _fixed_step).

    t_end may also be a (rows,) array of a batch's signed end times, all
    of one magnitude (integrate_batch checks them): every row steps on
    the same grid, each in the direction of its own sign, with h a
    (rows,) vector of signed steps. Each row's escape time carries its
    sign, and observe is then given the live rows' signed times.

    A batch, copied to C order, steps only its live rows, kept dense as
    the columns of cur: a row that escapes is written to the full state
    once, at its last finite state, and dropped, from the step vector as
    from cur. retire, if given, is called on each step's result for the
    live rows (dim, live rows) and returns None or a mask of rows to
    retire: such a row leaves at that step exactly as an escaping row
    does, at its state before the step, but is not marked escaped. The
    survey retires the rows that leave the domain of its certificate: an
    orbit outside the certified neighbourhood cannot lie on a torus
    inside it, so it is refuted there as an escaping orbit is. Without
    retire the loop makes no call for it.

    observe(k, t, cur, live, dropped), called after each step, sees the
    live rows cur (dim, live rows), their batch indices live (None while
    cur is the whole batch) and dropped, None or (indices, last states
    (dim, rows), keep) of the rows that escaped or were retired at this
    step, keep marking the previous cur's rows still live. A single
    state is observed with live and dropped None, and is never retired;
    its escape ends the march without a call. The march ends when no row
    is left or when observe returns true.
    """
    if np.ndim(t_end):
        direction = np.sign(t_end)
        span = float(abs(t_end[0])) if len(t_end) else 0.0  # no row, no step
    else:
        if not (math.isfinite(t_end) and t_end != 0.0):
            raise InvalidValue("t_end must be finite and nonzero")
        direction = 1.0 if t_end > 0 else -1.0
        span = abs(t_end)
    h = cfg.h
    # clipped past the cap, since int() refuses an infinite quotient
    n_whole = int(min(span / h, _MAX_STEPS + 1.0) + 1e-9)
    remainder = span - n_whole * h
    total = n_whole + (1 if remainder > 1e-12 else 0)
    if total > _MAX_STEPS:
        raise StepBudgetExceeded(
            f"{span / h:.3g} steps needed, cap is {_MAX_STEPS}")

    floats = isinstance(state, tuple)
    if not floats:
        state = np.array(state, dtype=float, order="C")
    single = floats or state.ndim == 1
    escaped = np.zeros(() if single else state.shape[1], dtype=bool)
    escape_times = np.full(escaped.shape, np.nan)
    cur, live, dropped = state, None, None
    stored = []
    h_k = direction * h
    k = -1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(total):
            if k == n_whole:
                h_k = direction * remainder
            elapsed = span if k == total - 1 else (k + 1) * h
            trial = step(cur, h_k)
            if single:
                if (_escaping_floats if floats else _escaping)(
                        trial, cfg.escape_norm):
                    escaped[()] = True
                    escape_times[()] = direction * elapsed
                    break  # cur is the last finite state
            else:
                # three calls when no row escapes, as nearly always; a nan
                # makes the max nan, which fails the <= as inf does
                top = np.abs(trial).max(axis=0)
                dropped = bad = None
                out = None if retire is None else retire(trial)
                if not top.max(initial=0.0) <= cfg.escape_norm:
                    bad = ~(top <= cfg.escape_norm)
                    out = bad if out is None else out | bad
                if out is not None:  # escapes and retirements leave alike
                    keep = ~out
                    rows = np.flatnonzero(out) if live is None else live[out]
                    frozen = cur[:, out]
                    state[:, rows] = frozen
                    if bad is not None:
                        gone = rows if out is bad else rows[bad[out]]
                        escaped[gone] = True
                        escape_times[gone] = (
                            direction[bad] if np.ndim(direction)
                            else direction) * elapsed
                    if np.ndim(direction):
                        direction, h_k = direction[keep], h_k[keep]
                    live = np.flatnonzero(keep) if live is None else live[keep]
                    trial = trial[:, keep]
                    dropped = (rows, frozen, keep)
            cur = trial
            if store_every and ((k + 1) % store_every == 0
                                or k == total - 1):
                if live is not None:
                    state[:, live] = cur
                stored.append((direction * elapsed,
                               cur if live is None else state.copy()))
            if observe is not None and observe(k, direction * elapsed, cur,
                                               live, dropped):
                break
            if live is not None and len(live) == 0:
                break
    if single or live is None:
        return cur, escaped, escape_times, k + 1, stored
    state[:, live] = cur
    return state, escaped, escape_times, k + 1, stored


def integrate(field: FieldLike, p0: MixedPoint, t_end: float,
              config: Optional[IntegratorConfig] = None) -> Trajectory:
    """Advance p0 to time t_end (either sign) and record the trajectory.

    Raises NumericalBlowup when the state exceeds the escape norm or goes
    non-finite, a diverging midpoint iteration included (the exception
    carries the escape time and the partial trajectory as attributes),
    and StepBudgetExceeded past _MAX_STEPS steps.

    Examples
    --------
    Quadratic escape has an exact solution to compare against:
    y' = y^2, y(0) = 1 reaches 1/(1 - t), and escapes at its pole t = 1.

    >>> line = CoordinateLayout(labels=("y",), angle_slots=())
    >>> y0 = MixedPoint.of(line, [1.0])
    >>> traj = integrate(lambda s: s * s, y0, 0.5)
    >>> float(abs(traj.final_point.coords[0] - 1 / (1 - 0.5))) < 1e-8
    True
    >>> try:
    ...     integrate(lambda s: s * s, y0, 2.0)
    ... except NumericalBlowup as exc:
    ...     print(f"escaped near t = {exc.time:.2f}")
    escaped near t = 1.01
    """
    cfg = config or IntegratorConfig()
    layout = p0.layout
    times = [0.0]
    stored = [p0.coords]  # raw states, wrapped together at the end
    n_rejected = 0
    t_escape = None

    def store(t, state):
        times.append(t)
        stored.append(state)

    if cfg.method != ADAPTIVE:
        state, escaped, escape_time, n_steps, kept = _march(
            *_fixed_step(field, cfg, p0.coords), t_end, cfg,
            store_every=cfg.store_every)
        for t, s in kept:
            store(t, s)
        if escaped:
            t_escape = float(escape_time)
    else:
        if not (math.isfinite(t_end) and t_end != 0.0):
            raise InvalidValue("t_end must be finite and nonzero")
        direction = 1.0 if t_end > 0 else -1.0
        span = abs(t_end)
        step, rates, state = _adaptive_step(field, cfg, p0.coords)
        escaping = _escaping_floats if isinstance(state, tuple) \
            else _escaping
        t = 0.0
        n_steps = 0
        h = cfg.h
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rates(state)
            while abs(t) < span - 1e-12:
                if n_steps + n_rejected > _MAX_STEPS:
                    raise StepBudgetExceeded(
                        f"step cap {_MAX_STEPS} reached at t={t:.6g}")
                h = min(h, span - abs(t))
                if h < 1e-14 * max(1.0, abs(t)):
                    raise ConvergenceFailure(
                        f"adaptive step collapsed near t={t:.6g}")
                trial, norm, k7 = step(state, k1, direction * h)
                if norm <= 1.0:
                    t = t_end if abs(t) + h >= span - 1e-12 \
                        else t + direction * h
                    n_steps += 1
                    if escaping(trial, cfg.escape_norm):
                        t_escape = t
                        break
                    state, k1 = trial, k7
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
                      states=wrap_angles(np.array(stored, dtype=float),
                                         layout.angle_mask),
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


# A System batch of 1 to _FLOAT_ROWS rows marches row by row on the
# compiled float steps. Per step on ham-unique, ham-compact and rev-compact
# (n = m = 1, 2 shared cores), the float rk4 step costs 1-4 us a row and
# the generated rows step a near-flat 42-47, 66-74 and 21-24 us at 2-32
# rows, so the float path is the cheaper up to 16 rows; the two meet at
# 24-32 rows.
# For midpoint, float steps cost 3-9 us a row against 36-215 us for
# _batch_midpoint, and meet it at 16-32 rows.
_FLOAT_ROWS = 8


def _march_rows(field, cfg, states, t_end, mask, store_every):
    """integrate_batch's result with each row marched alone by _march,
    to its own entry of a per-row t_end."""
    runs = [_march(*_fixed_step(field, cfg, row), t_end, cfg,
                   store_every=store_every)
            for row, t_end in zip(states, np.broadcast_to(t_end, len(states))
                                  .tolist())]
    # kept: (t, state) at each store step a row lives past
    *columns, kept = zip(*runs)
    final, escaped, escape_times, steps = map(np.array, columns)
    result = BatchResult(final=final, escaped=escaped,
                         escape_times=escape_times, n_steps=int(steps.max()))
    if not store_every:
        return result
    # the batch stores on the grid of its longest-lived row, at the step
    # it escapes too; a row that has escaped stays at its last finite state
    j = int(steps.argmax())
    times = [0.0] + [t for t, _ in kept[j]]
    if escaped[j] and (steps[j] % store_every == 0
                       or escape_times[j] == t_end):
        times.append(float(escape_times[j]))
    rows = [[start, *(s for _, s in seen)]
            + [end] * (len(times) - 1 - len(seen))
            for start, seen, end in zip(states, kept, final)]
    return replace(result, stored_times=np.array(times),
                   stored_states=wrap_angles(np.stack(
                       [np.array(r) for r in rows], axis=1), mask))


def integrate_batch(field: FieldLike, states0: np.ndarray,
                    t_end: Union[float, np.ndarray],
                    config: Optional[IntegratorConfig] = None,
                    layout: Optional[CoordinateLayout] = None,
                    store_every: Optional[int] = None) -> BatchResult:
    """Advance a whole batch (B, dim) to t_end with a shared fixed step.

    Supports the rk4 and midpoint methods (a shared adaptive controller
    would let one stiff row throttle everyone), and stores states through
    its store_every argument, never config.store_every, which must be 1.
    Escaping rows are frozen at their last finite state rather than
    raising; a midpoint row whose iteration diverges counts as escaped.

    t_end is one time (either sign) for every row, or a (B,) array of
    nonzero, finite times of one magnitude whose signs give each row's
    direction; the rows then march on one step grid, forward and
    backward together, and each gets the result it would get in a batch
    of its own direction, bit for bit. A per-row t_end stores no states.

    A System batch of 1 to _FLOAT_ROWS (8) rows marches each row alone on
    the system's compiled float step, where numpy's per-call cost would
    dwarf the arithmetic; any other batch, and any field that is not a
    System, steps a numpy array (dim, rows), transposed once each way,
    through the system's generated rk4 step of such arrays or through
    the numpy steps on the field. All give the same result, bit for bit.
    A System batch's rows must have the system's dim slots.

    Examples
    --------
    y' = y^2 from y = 1 escapes forward at its pole t = 1, detected a
    step of h = 0.01 later, and backward reaches 1/(1 - t) at t = -2;
    one batch marches both:

    >>> res = integrate_batch(lambda s: s * s, [[1.0], [1.0]], [2.0, -2.0])
    >>> res.escaped.tolist(), round(float(res.escape_times[0]), 2)
    ([True, False], 1.01)
    >>> round(float(res.final[1, 0]), 9)  # 1/3
    0.333333333
    """
    cfg = config or IntegratorConfig()
    if cfg.method == ADAPTIVE:
        raise InvalidValue("integrate_batch supports rk4 and midpoint")
    if cfg.store_every != 1:
        raise InvalidValue("integrate_batch stores through its store_every "
                           "argument, not config.store_every")
    if store_every is not None and store_every < 1:
        raise InvalidValue("store_every must be >= 1")
    states = np.array(states0, dtype=float)
    if states.ndim != 2:
        raise InvalidValue("states0 must have shape (batch, dim)")
    if isinstance(field, System) and states.shape[1] != field.dim:
        raise InvalidValue(f"states0 rows must have the system's "
                           f"{field.dim} slots, not {states.shape[1]}")
    if np.ndim(t_end):
        t_end = np.array(t_end, dtype=float)
        span = np.abs(t_end)
        if t_end.shape != (len(states),):
            raise InvalidValue("t_end must be one time or one per row")
        if len(span) and not (0.0 < span[0] < math.inf
                              and (span == span[0]).all()):
            raise InvalidValue("per-row t_end entries must be nonzero, "
                               "finite and of one magnitude")
        if store_every is not None:
            raise InvalidValue("store_every needs one t_end for every row")
    mask = layout.angle_mask if layout is not None \
        else np.zeros(states.shape[1], dtype=bool)
    if 1 <= len(states) <= _FLOAT_ROWS and isinstance(field, System):
        return _march_rows(field, cfg, states, t_end, mask, store_every)
    final, escaped, escape_times, n_steps, kept = _march(
        *_fixed_step(field, cfg, states.T), t_end, cfg,
        store_every=store_every)
    result = BatchResult(final=final.T, escaped=escaped,
                         escape_times=escape_times, n_steps=n_steps)
    if store_every is None:
        return result
    times = np.array([0.0] + [t for t, _ in kept])
    snapshots = np.array([states] + [s.T for _, s in kept])
    del kept  # so that the wrapped copy is the second, not the third
    return replace(result, stored_times=times,
                   stored_states=wrap_angles(snapshots, mask))


# ---------------------------------------------------------------------------
# variational flow


@dataclass(frozen=True, eq=False)
class VariationalResult:
    """End state of the flow plus the propagated tangent matrix."""

    end_point: MixedPoint
    matrix: np.ndarray
    n_steps: int


def integrate_variational(sys: System, p0: MixedPoint, t_end: float,
                          config: Optional[IntegratorConfig] = None
                          ) -> VariationalResult:
    """Co-integrate state and tangent matrix M' = J(state(t)) M, M(0) = I.

    Steps the System's compiled tangent flow (see _compiled_for) in fixed
    rk4 steps; anything that is not a System raises InvalidValue. t_end
    must be positive; monodromy conventions assume forward time.
    """
    _check_point(sys, p0)
    if not t_end > 0:
        raise InvalidValue("t_end must be positive")
    cfg = config or IntegratorConfig(h=1e-2)
    dim = sys.dim
    z0 = np.concatenate([p0.coords, np.eye(dim).ravel()])
    # only a non-finite state is a blowup; the bound is the largest float
    # and not inf, because inf <= inf would let an infinity through
    z, escaped, escape_time, steps, _ = _march(
        *_fixed_step(sys, replace(cfg, method=RK4), z0), t_end,
        replace(cfg, escape_norm=np.finfo(float).max))
    z = np.asarray(z)
    if escaped:
        raise NumericalBlowup("variational state left the finite range",
                              time=float(escape_time))
    return VariationalResult(
        end_point=MixedPoint.of(p0.layout, z[:dim]),
        matrix=z[dim:].reshape(dim, dim), n_steps=steps)
