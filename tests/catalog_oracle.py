"""Hand-written numpy fields of the shipped families, for the tests.

The library builds every field from its family's text through the
expression language. These fields are written out by hand instead, so a
test that compares the two checks the derivation against an independent
route. The compact families are the unique ones read through sin; the
chain rule turns the unique field into the compact one.

The numpy tangent flow of a System is here too, and the every-product
tangent compiled over the whole matrix: the library steps only the
tangent flow it compiles over the entries of M that move, and the tests
compare that against these, in the full layout (the state, then M row
by row) that `full_state` and `moving_state` convert from and to.
So is the march of a batch one step at a time, the reference for the
library's march in blocks of steps, with each step as it stands alone:
the generated rows step computes its conserved terms afresh at every
step (see `step_alone`), where the library's march computes them once.
The generated float steps take the same terms, and `float_alone` gives
them theirs in the same way. The survey's gap pass is here in its whole
form, every slot and numpy's remainder, the reference for the library's
pass over the slots that move.

Last come the helpers only claims and tests need: the largest deviation
between two fields, membership of a point in a `ModularDomain`, the
energy texts installed with the package, central differences and the
brackets they give, the rate of the escape certificate, and the control
fixture at an oscillator frequency of the test's choosing.
"""

import functools
import math
import operator
from dataclasses import replace
from importlib import resources

import numpy as np

from toruslab import dsl
from toruslab.dsl import Const, Var
from toruslab.errors import InvalidValue, LayoutMismatch
from toruslab.integrators import _tangent_matrix
from toruslab.phase import TWO_PI
from toruslab.systems import (CONTROL_NU, HAM_COMPACT, HAM_UNIQUE,
                              REV_COMPACT, build_control_system)


def _ham_unique(sys):
    sl = sys.slots
    omega = np.array(sys.params.omega)

    def rhs(s):
        u = s[..., sl.u]
        x = s[..., sl.x]
        y = s[..., sl.y]
        p = s[..., sl.p]
        q = s[..., sl.q]
        r = np.zeros_like(s)
        r[..., sl.phi] = omega + 2.0 * x[..., None] * u
        r[..., sl.x] = -2.0 * x * y
        r[..., sl.y] = (u * u).sum(-1) + x * x + y * y
        r[..., sl.p] = -2.0 * p * q
        r[..., sl.q] = p * p + q * q
        return r

    return rhs


def _rev_unique(sys):
    sl = sys.slots
    omega = np.array(sys.params.omega)

    def rhs(s):
        r = np.zeros_like(s)
        r[..., sl.phi] = omega
        v = s[..., sl.v]
        y = s[..., sl.y]
        q = s[..., sl.q]
        r[..., sl.y] = (v * v).sum(-1) + y * y + (q * q).sum(-1)
        return r

    return rhs


def oracle_field(sys):
    """The hand-written field of a built family member.

    A compact field is the unique one at sin(s). A Hamiltonian rate is the
    derivative of H along the partner of its slot (the other member of
    its canonical pair), so it also picks up cos at that partner.
    """
    base = _ham_unique(sys) if sys.family in (HAM_UNIQUE, HAM_COMPACT) \
        else _rev_unique(sys)
    partner = np.arange(sys.dim)
    for a, b in sys.canonical_pairing:
        partner[a], partner[b] = b, a

    def field(states):
        s = np.asarray(states, dtype=float)
        if sys.family == HAM_COMPACT:
            return np.cos(s[..., partner]) * base(np.sin(s))
        if sys.family == REV_COMPACT:
            return base(np.sin(s))
        return base(s)

    return field


def tangent_field(sys):
    """The numpy tangent flow of a System: z = (state, M row by row) goes
    to (f(state), J(state) M), from the numpy field and exact Jacobian."""
    dim = sys.dim

    def field(z):
        s = z[:dim]
        M = z[dim:].reshape(dim, dim)
        return np.concatenate([sys.field(s), (sys.jacobian(s) @ M).ravel()])

    return field


def full_tangent(sys):
    """The System's tangent flow over every entry of M, compiled as
    `dsl.compile_tangent` did before it kept the moving entries alone:
    each entry's rate sums every product d rate_i / d slot_k * M[k, j]
    whose derivative is not identically zero, over the full layout."""
    labels = sys.layout.labels
    rates = dsl._source_rates(sys.rates_source, labels)
    jac = dsl._gradients(rates, labels)
    dim = len(labels)
    m = [[Var(f"M[{k},{j}]") for j in range(dim)] for k in range(dim)]
    products = [functools.reduce(dsl._add, [
        dsl._mul(jac[i, k], m[k][j]) for k in range(dim)
        if not dsl._is_const(jac[i, k], 0.0)], Const(0.0))
        for i in range(dim) for j in range(dim)]
    return dsl.compile_rates(rates + products, labels + tuple(
        v.name for row in m for v in row),
        functions=("field", "conserved", "rk4_step"))


def full_state(sys, z):
    """The library's tangent state z (the state plus the moving entries
    of M) in the full layout, every other entry at the identity."""
    x, M = _tangent_matrix(sys, np.asarray(z, dtype=float))
    return np.concatenate([x, M.ravel()])


def moving_state(sys, z):
    """The library's tangent state of z in the full layout: its state and
    the entries of M that the System's tangent flow moves."""
    dim = sys.dim
    M = np.asarray(z, dtype=float)[dim:].reshape(dim, dim)
    return np.concatenate([z[:dim], [M[i, j] for i, j in
                                     sys.compiled("tangent").moving]])


def step_alone(step, s, h):
    """step(s, h) for a step of a batch (dim, rows). A rows step of
    dsl.compile_rows is given its conserved terms computed here: first
    at s, for its first stage, and rest at s + h*0.0, for the others."""
    if not hasattr(step, "conserved"):
        return step(s, h)
    return step(s, h, step.conserved(s), step.conserved(s + h * 0.0))


def float_alone(step, conserved):
    """The float twin of `step_alone`: a step(s, h, first, rest) of
    dsl.compile_rates as a step(s, h) of one state tuple, given first =
    conserved(s) and rest = conserved(s + h*0.0) at every step."""
    def alone(s, h):
        return step(s, h, conserved(s),
                    conserved(tuple([x + h * 0.0 for x in s])))
    return alone


def march_per_step(step, state, t_end, cfg, observe=None, retire=None,
                   store_every=None):
    """integrators._march of a batch (dim, rows), one step at a time: the
    reference for its march in blocks of steps.

    Each step's result for the live rows is tested for escape and handed
    to retire (a mask of the live rows to retire, or None), and observe
    is called after each step with (t, cur, dropped): the time, the live
    rows and None or (indices, keep) of the rows dropped at that step.
    Returns (state, escaped, escape_times, steps taken, stored) as
    _march does.
    """
    if np.ndim(t_end):
        direction = np.sign(t_end)
        span = float(abs(t_end[0])) if len(t_end) else 0.0
    else:
        direction = 1.0 if t_end > 0 else -1.0
        span = abs(t_end)
    h = cfg.h
    n_whole = int(span / h + 1e-9)
    remainder = span - n_whole * h
    total = n_whole + (1 if remainder > 1e-12 else 0)
    state = np.array(state, dtype=float, order="C")
    escaped = np.zeros(state.shape[1], dtype=bool)
    escape_times = np.full(escaped.shape, np.nan)
    stored = []
    cur, live, dropped = state, None, None
    h_k = direction * h
    k = -1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(total):
            if k == n_whole:
                h_k = direction * remainder
            elapsed = span if k == total - 1 else (k + 1) * h
            trial = step_alone(step, cur, h_k)
            top = np.abs(trial).max(axis=0)
            dropped = bad = None
            out = None if retire is None else retire(trial)
            if not top.max(initial=0.0) <= cfg.escape_norm:
                bad = ~(top <= cfg.escape_norm)
                out = bad if out is None else out | bad
            if out is not None:
                keep = ~out
                rows = np.flatnonzero(out) if live is None else live[out]
                state[:, rows] = cur[:, out]
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
                dropped = (rows, keep)
            cur = trial
            if store_every and ((k + 1) % store_every == 0
                                or k == total - 1):
                if live is not None:
                    state[:, live] = cur
                stored.append((direction * elapsed,
                               cur if live is None else state.copy()))
            if observe is not None:
                observe(direction * elapsed, cur, dropped)
            if live is not None and len(live) == 0:
                break
    if live is None:
        return cur, escaped, escape_times, k + 1, stored
    state[:, live] = cur
    return state, escaped, escape_times, k + 1, stored


def squared_returns_every_slot(layout, block, origin, moving):
    """analysis._squared_returns over every slot: one (K, dim, rows)
    difference array, each angle wrapped to pi - remainder(pi - d, 2*pi)
    by numpy's remainder, squared, and summed down the slots in numpy's
    order. moving is not read."""
    d = np.subtract(block, origin)
    for s in range(layout.dim):
        if layout.is_angle(s):
            d[:, s] = np.pi - np.remainder(np.pi - d[:, s], TWO_PI)
    d *= d
    return dsl._numpy_sum([d[:, s] for s in range(layout.dim)],
                          operator.add)


def field_deviation(f1, f2, layout, samples, seed):
    """The largest absolute deviation between two fields on states
    (..., dim), slot by slot, over seeded random states of layout: real
    slots from [-1, 1], angular slots from the full circle."""
    rng = np.random.default_rng(seed)
    states = rng.uniform(-1.0, 1.0, size=(samples, layout.dim))
    mask = layout.angle_mask
    states[:, mask] = rng.uniform(-math.pi, math.pi,
                                  size=(samples, int(mask.sum())))
    return float(np.max(np.abs(f1(states) - f2(states))))


def in_modular_domain(p, domain):
    """Whether the MixedPoint p lies in the open box of the ModularDomain;
    angular slots are compared modulo 2*pi.

    Adding 2*pi*k to any angular slot of the input leaves the verdict
    unchanged. Raises LayoutMismatch if dimensions disagree and
    InvalidValue if an angular interval is wider than 2*pi.
    """
    if domain.dim != p.layout.dim:
        raise LayoutMismatch(
            f"domain has {domain.dim} slots, point has {p.layout.dim}")
    for slot, iv in enumerate(domain.intervals):
        if iv is None:
            continue
        lo, hi = iv
        v = p.coords[slot]
        if p.layout.is_angle(slot):
            width = hi - lo
            if width > TWO_PI + 1e-15:
                raise InvalidValue(
                    f"angular interval wider than 2*pi on slot {slot}")
            if not 0.0 < (v - lo) % TWO_PI < width:
                return False
        elif not lo < v < hi:
            return False
    return True


def shipped_hamiltonians():
    """The energy texts installed with the package (its data/*.ham),
    keyed by stem."""
    base = resources.files("toruslab") / "data"
    return {entry.name[:-4]: entry.read_text()
            for entry in sorted(base.iterdir())
            if entry.name.endswith(".ham")}


def central_differences(fn, x) -> np.ndarray:
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


def fd_bracket_matrix(sys, states):
    """Every bracket {I_i, I_j} of the first integrals, shape (..., k, k),
    from gradients rebuilt by central differences of the integral values:
    a route to `analysis.bracket_matrix` independent of the exact
    gradients it contracts."""
    G = central_differences(sys.integrals, states)
    return sum(G[..., :, a, None] * G[..., None, :, b]
               - G[..., :, b, None] * G[..., None, :, a]
               for a, b in sys.canonical_pairing)


def certificate_rate(sys, states):
    """Time derivative of the escape certificate y + sum(q).

    For ham-unique this equals the squared Euclidean distance of the
    non-angular part from the canonical torus, so it is positive off the
    torus; for the compact variants it is non-negative on the isolation
    domain.
    """
    r = sys.field(states)
    out = r[..., sys.slots.y]
    if sys.slots.q.stop > sys.slots.q.start:
        out = out + r[..., sys.slots.q].sum(axis=-1)
    return out


def control_system(nu):
    """The control fixture at omega = 1 with its oscillator at frequency
    nu, where the library fixes it at CONTROL_NU."""
    sys = build_control_system()
    text = sys.rates_source.replace(f"*{CONTROL_NU!r}*", f"*{float(nu)!r}*")
    if text == sys.rates_source and nu != CONTROL_NU:
        raise AssertionError("the control's text no longer names its nu")
    return replace(sys, rates_source=text)
