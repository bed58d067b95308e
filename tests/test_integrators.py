import itertools
import math
import types
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from catalog_oracle import (
    central_differences,
    control_system,
    float_alone,
    full_state,
    full_tangent,
    march_per_step,
    step_alone,
    tangent_field,
)

from toruslab.analysis import monodromy
from toruslab.dsl import compile_numpy, compile_rates, compile_rows, parse
from toruslab import integrators
from toruslab.errors import (
    ConvergenceFailure,
    InvalidValue,
    LayoutMismatch,
    NumericalBlowup,
    StepBudgetExceeded,
)
from toruslab.integrators import (
    BatchResult,
    IntegratorConfig,
    Trajectory,
    MIDPOINT,
    RK4,
    _batch_midpoint,
    _escaping,
    _fixed_step,
    _march,
    _rk4_step,
    _run,
    _tangent_start,
    integrate,
    integrate_batch,
    integrate_variational,
)
from toruslab.phase import CoordinateLayout, MixedPoint, wrap_angles
from toruslab.systems import (
    FAMILIES,
    HAM_COMPACT,
    HAM_UNIQUE,
    REV_COMPACT,
    REV_UNIQUE,
    System,
    SystemParams,
    build_control_system,
    build_system,
)

SCALAR = CoordinateLayout(labels=("y",), angle_slots=())


def quad_field(s):
    # y' = y^2, exact solution y0 / (1 - y0 t)
    return s * s


def quad_exact(y0, t):
    return y0 / (1.0 - y0 * t)


def ham(n=1, m=0, omega=None):
    if omega is None:
        omega = (1.0,) * n
    return build_system(SystemParams(HAM_UNIQUE, n=n, m=m, omega=omega))


def row_path(sys, states, t_end, cfg):
    """integrate_batch's result for any batch of a System, put together
    from chunks of at most 8 rows, each of which marches row by row on
    the compiled float steps and not through the numpy batch march."""
    parts = [integrate_batch(sys, states[a:a + 8], t_end, cfg)
             for a in range(0, len(states), 8)]
    return BatchResult(
        *(np.concatenate([getattr(p, name) for p in parts])
          for name in ("final", "escaped", "escape_times")),
        n_steps=max(p.n_steps for p in parts))


def small_point(sys, scale=0.1, seed=0):
    rng = np.random.default_rng(seed)
    coords = scale * rng.uniform(-1.0, 1.0, sys.dim)
    return MixedPoint.of(sys.layout, coords)


class TestFixedStep:
    def test_rk4_matches_quadratic_solution(self):
        p0 = MixedPoint.of(SCALAR, [1.0])
        traj = integrate(quad_field, p0, 0.5,
                         IntegratorConfig(method="rk4", h=1e-2))
        assert traj.times[-1] == 0.5
        assert abs(traj.states[-1, 0] - quad_exact(1.0, 0.5)) < 1e-8

    def test_rk4_error_shrinks_at_fourth_order(self):
        p0 = MixedPoint.of(SCALAR, [1.0])
        errs = []
        for h in (2e-3, 1e-3):
            traj = integrate(quad_field, p0, 0.5,
                             IntegratorConfig(method="rk4", h=h))
            errs.append(abs(traj.states[-1, 0] - quad_exact(1.0, 0.5)))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_partial_final_step_lands_exactly(self):
        p0 = MixedPoint.of(SCALAR, [0.5])
        traj = integrate(quad_field, p0, 0.3037,
                         IntegratorConfig(method="rk4", h=1e-2))
        assert traj.times[-1] == 0.3037
        assert abs(traj.states[-1, 0] - quad_exact(0.5, 0.3037)) < 1e-10

    def test_backward_integration(self):
        sys = build_system(
            SystemParams(REV_UNIQUE, n=1, m=0, l=1, omega=(1.0,)))
        p0 = MixedPoint.of(sys.layout, [0.2, 0.0, 0.5])
        traj = integrate(sys, p0, -2.0,
                         IntegratorConfig(method="adaptive", h=1e-2,
                                          rel_tol=1e-10, abs_tol=1e-12))
        # with v = 0 the y slot obeys y' = y^2 on its own
        y = traj.final_point["y"]
        assert traj.times[-1] == -2.0
        assert abs(y - quad_exact(0.5, -2.0)) < 1e-9

    def test_store_every_thins_output(self):
        p0 = MixedPoint.of(SCALAR, [0.1])
        traj = integrate(quad_field, p0, 1.0,
                         IntegratorConfig(method="rk4", h=1e-2),
                         store_every=10)
        assert len(traj) == 11
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 1.0
        assert traj.n_steps == 100

    def test_stored_angles_are_wrapped(self):
        sys = ham(n=1, m=0)
        p0 = MixedPoint.of(sys.layout, [0.0, 3.0, 0.0, 0.0])
        traj = integrate(sys, p0, 8.0, IntegratorConfig(h=1e-2))
        phi = traj.states[:, sys.layout.slot_of("phi_1")]
        assert np.all(phi <= math.pi) and np.all(phi > -math.pi)
        # the angle actually moved through several turns
        assert traj.final_point["phi_1"] == pytest.approx(
            math.pi - (math.pi - 11.0) % (2 * math.pi), abs=1e-10)

    def test_step_rk4_single_step(self):
        p0 = MixedPoint.of(SCALAR, [1.0])
        traj = integrate(quad_field, p0, 0.01, IntegratorConfig(h=0.01))
        assert traj.n_steps == 1
        assert abs(traj.final_point["y"] - quad_exact(1.0, 0.01)) < 1e-10

    def test_step_rk4_constant_rotation_is_exact(self):
        layout = CoordinateLayout(labels=("phi",), angle_slots=(0,))
        p0 = MixedPoint.of(layout, [0.0])
        traj = integrate(lambda s: np.ones_like(s), p0, 0.1,
                         IntegratorConfig(h=0.1))
        assert traj.n_steps == 1
        assert traj.final_point["phi"] == 0.1

    def test_torus_point_is_a_numerical_fixed_set(self):
        # the field vanishes in every non-angle slot on the torus itself
        # (u = x = y = p = q = 0), so RK4 keeps them at exactly zero and
        # the angle advances linearly; u must be zero, since any u != 0
        # feeds y' >= u^2 and the orbit escapes
        sys = ham(n=1, m=1)
        p0 = MixedPoint.of(sys.layout, [0.0, 1.3, 0.0, 0.0, 0.0, 0.0])
        traj = integrate(sys, p0, 100.0, IntegratorConfig(h=1e-2),
                         store_every=100)
        for lab in ("u_1", "x", "y", "p_1", "q_1"):
            col = traj.states[:, sys.layout.slot_of(lab)]
            assert np.max(np.abs(col)) == 0.0
        expect = math.pi - (math.pi - (1.3 + 100.0)) % (2 * math.pi)
        assert abs(traj.final_point["phi_1"] - expect) < 1e-9

    def test_zero_t_end_rejected(self):
        with pytest.raises(InvalidValue):
            integrate(quad_field, MixedPoint.of(SCALAR, [1.0]), 0.0)

    def test_only_a_field_or_system_accepted(self):
        # an object that merely carries a field is neither
        shim = types.SimpleNamespace(field=quad_field)
        p0 = MixedPoint.of(SCALAR, [0.1])
        for method in ("rk4", "midpoint", "adaptive"):
            with pytest.raises(InvalidValue, match="not a field or system"):
                integrate(shim, p0, 1.0, IntegratorConfig(method=method))
        with pytest.raises(InvalidValue, match="not a field or system"):
            integrate_batch(shim, np.zeros((3, 1)), 1.0)


class TestAdaptive:
    def test_tracks_quadratic_solution(self):
        p0 = MixedPoint.of(SCALAR, [1.0])
        cfg = IntegratorConfig(method="adaptive", h=0.1,
                               rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(quad_field, p0, 0.9, cfg)
        assert abs(traj.states[-1, 0] - quad_exact(1.0, 0.9)) < 1e-7
        assert traj.n_rejected >= 0
        assert traj.times[-1] == 0.9

    def test_steps_shrink_near_singularity(self):
        p0 = MixedPoint.of(SCALAR, [1.0])
        cfg = IntegratorConfig(method="adaptive", h=0.1,
                               rel_tol=1e-8, abs_tol=1e-10)
        traj = integrate(quad_field, p0, 0.99, cfg)
        dt = np.diff(traj.times)
        assert dt[-1] < dt[0]

    def test_back_and_forward_returns_home(self):
        sys = ham(n=1, m=1)
        p0 = small_point(sys, scale=0.1)
        cfg = IntegratorConfig(method="adaptive", h=1e-2,
                               rel_tol=1e-10, abs_tol=1e-12)
        fwd = integrate(sys, p0, 5.0, cfg)
        back = integrate(sys, fwd.final_point, -5.0, cfg)
        assert np.max(np.abs(back.final_point.coords - p0.coords)) < 1e-6


class TestMidpoint:
    def test_energy_oscillation_scales_quadratically(self):
        # bounded family, so a long horizon cannot run into the
        # finite-time escape of the unbounded one
        sys = build_system(
            SystemParams(HAM_COMPACT, n=1, m=1, omega=(1.0,)))
        p0 = small_point(sys, scale=0.3, seed=3)
        h0 = sys.hamiltonian(p0.coords)
        drifts = []
        for h in (0.02, 0.01):
            traj = integrate(sys, p0, 50.0,
                             IntegratorConfig(method="midpoint", h=h),
                             store_every=5)
            vals = sys.hamiltonian(traj.states)
            drifts.append(np.max(np.abs(vals - h0)))
        assert drifts[1] < 1e-6
        ratio = drifts[0] / drifts[1]
        assert 3.0 < ratio < 5.0

    def test_step_is_time_symmetric(self):
        sys = ham(n=1, m=1)
        p0 = small_point(sys, scale=0.2, seed=5)
        cfg = IntegratorConfig(method="midpoint", h=0.05)
        fwd = integrate(sys, p0, 0.05, cfg)
        back = integrate(sys, fwd.final_point, -0.05, cfg)
        assert np.max(np.abs(back.final_point.coords - p0.coords)) < 5e-12

    def test_unconverged_iteration_escapes_on_both_paths(self):
        # with hh * nu = 1 each fixed-point iteration turns the error in
        # (x, y) by a right angle without shrinking it, so rows off the
        # torus never settle and turn non-finite at the iteration cap; on
        # the torus the first update is already exact
        sys = control_system(1.0)
        rows = np.array([[0.0, 0.3, 0.0, 0.0], [0.1, 0.0, 0.1, 0.0],
                         [0.02, 1.0, 0.0, -0.05], [0.3, 0.2, 0.2, -0.1]])
        cfg = IntegratorConfig(method="midpoint", h=2.0)
        assert integrate(sys, MixedPoint.of(sys.layout, rows[0]), 6.0,
                         cfg).times[-1] == 6.0
        # 3 rows of the System step on compiled floats; 12 rows, and any
        # batch of its raw numpy field, step as one array
        for field in (sys, sys.field):
            for batch in (rows[:3], np.tile(rows, (3, 1))):
                res = integrate_batch(field, batch, 6.0, cfg)
                assert res.escaped.tolist() == [
                    b.any() for b in batch[:, 2:] != 0.0]
                assert (res.escape_times[res.escaped] == 2.0).all()
                assert not integrate_batch(
                    field, batch, 6.0,
                    IntegratorConfig(method="midpoint", h=1.0)
                ).escaped.any()
        for row in rows[1:]:
            with pytest.raises(NumericalBlowup) as info:
                integrate(sys, MixedPoint.of(sys.layout, row), 6.0, cfg)
            assert info.value.time == 2.0

    def test_divergent_iteration_reports_time(self):
        sys = ham(n=1, m=0)
        p0 = MixedPoint.of(sys.layout, [0.8, 0.0, 0.2, 0.3])
        with pytest.raises((ConvergenceFailure, NumericalBlowup)) as info:
            integrate(sys, p0, 10.0,
                      IntegratorConfig(method="midpoint", h=1e-3))
        assert 1.0 < info.value.time < 2.0


class TestEscape:
    # u = 0.8 pins y' >= 0.64 + y^2, so escape lands near t = 1.5
    def test_rk4_blowup_carries_time_and_partial(self):
        sys = ham(n=1, m=0)
        p0 = MixedPoint.of(sys.layout, [0.8, 0.0, 0.2, 0.3])
        with pytest.raises(NumericalBlowup) as info:
            integrate(sys, p0, 10.0, IntegratorConfig(h=1e-3))
        assert 1.3 < info.value.time < 1.7
        partial = info.value.trajectory
        assert isinstance(partial, Trajectory)
        assert np.all(np.isfinite(partial.states))
        assert partial.times[-1] < 10.0

    def test_adaptive_blowup_detected(self):
        sys = ham(n=1, m=0)
        p0 = MixedPoint.of(sys.layout, [0.8, 0.0, 0.2, 0.3])
        cfg = IntegratorConfig(method="adaptive", h=1e-2,
                               rel_tol=1e-8, abs_tol=1e-10)
        with pytest.raises(NumericalBlowup) as info:
            integrate(sys, p0, 10.0, cfg)
        assert 1.3 < info.value.time < 1.7

    def test_step_budget_enforced(self):
        # 1e7 steps of 1e-2 are past the cap of 5e6, which is checked
        # before the first step: the field is never called
        def never(s):
            raise AssertionError("stepped")

        p0 = MixedPoint.of(SCALAR, [0.1])
        with pytest.raises(StepBudgetExceeded):
            integrate(never, p0, 1e5, IntegratorConfig(h=1e-2))


# a single state of a System, and a System batch of at most 8 rows, step
# on compiled Python floats; a larger batch and a raw numpy field step on
# numpy arrays. Cases that run both `sys` and `sys.field` compare the two
BATCH_FAMILIES = pytest.mark.parametrize("family", [HAM_UNIQUE, HAM_COMPACT])

# the four families and the control, each with a slot whose rate is the
# constant 0 (u_1 or v_1) and its index
EVERY_SYSTEM = pytest.mark.parametrize("sys, zero_slot", [
    *((build_system(SystemParams(family, n=1, m=1, omega=(1.0,),
                                 l=None if family in (HAM_UNIQUE, HAM_COMPACT)
                                 else 1)),
       0 if family in (HAM_UNIQUE, HAM_COMPACT) else 1)
      for family in FAMILIES),
    (build_control_system(), 0)], ids=[*FAMILIES, "control"])


def same_bits(a, b):
    """Equal to the bit, the signs of zeros included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                  b.view(np.int64))


class TestBatch:
    @BATCH_FAMILIES
    def test_batch_rk4_matches_single(self, family):
        sys = build_system(SystemParams(family, n=1, m=1, omega=(1.0,)))
        rng = np.random.default_rng(7)
        states = 0.05 * rng.uniform(-1, 1, (5, sys.dim))
        # the System steps its rows on compiled floats, its raw numpy
        # field steps the batch as one array
        for field in (sys, sys.field):
            res = integrate_batch(field, states, 3.0,
                                  IntegratorConfig(h=1e-2),
                                  layout=sys.layout)
            assert not res.escaped.any()
            for i in range(5):
                traj = integrate(sys, MixedPoint.of(sys.layout, states[i]),
                                 3.0, IntegratorConfig(h=1e-2),
                                 store_every=300)
                # batch keeps raw angles; wrap before comparing
                got = MixedPoint.of(sys.layout, res.final[i]).coords
                assert np.max(np.abs(got - traj.final_point.coords)) \
                    < 1e-13

    @BATCH_FAMILIES
    def test_batch_midpoint_matches_single(self, family):
        sys = build_system(SystemParams(family, n=1, m=1, omega=(1.0,)))
        rng = np.random.default_rng(11)
        states = 0.01 * rng.uniform(-1, 1, (4, sys.dim))
        cfg = IntegratorConfig(method="midpoint", h=1e-2)
        for field in (sys, sys.field):
            res = integrate_batch(field, states, 2.0, cfg, layout=sys.layout)
            for i in range(4):
                traj = integrate(sys, MixedPoint.of(sys.layout, states[i]),
                                 2.0, cfg)
                got = MixedPoint.of(sys.layout, res.final[i]).coords
                assert np.max(np.abs(got - traj.final_point.coords)) \
                    < 1e-12

    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_small_system_batch_steps_rows_on_floats(self, monkeypatch,
                                                     method):
        sys = ham(n=1, m=1)
        states = 0.05 * np.random.default_rng(3).uniform(-1, 1,
                                                         (9, sys.dim))
        cfg = IntegratorConfig(method=method, h=1e-2)
        calls = []
        compiled = System.compiled
        # a batch takes rk4 steps through the generated batch step, and
        # midpoint steps through the generated numpy field
        batch_kind = "rk4_rows" if method == "rk4" else "field"

        def counted(self, kind="rates"):
            code = compiled(self, kind)
            if kind != batch_kind:
                return code

            def numpy_code(s, *args):  # a batch marches slot-major
                calls.append(s.shape)
                return code(s, *args)
            if kind == "rk4_rows":
                numpy_code.conserved = code.conserved
            return numpy_code

        monkeypatch.setattr(System, "compiled", counted)
        integrate_batch(sys, states[:8], 0.1, cfg)
        assert calls == []
        integrate_batch(sys, states, 0.1, cfg)
        assert calls and set(calls) == {(sys.dim, 9)}

    @pytest.mark.parametrize("seed, survivor", [(0, True), (1, False)])
    def test_row_path_matches_the_numpy_path(self, seed, survivor):
        # seed 0 keeps one row alive; in seed 1 every row escapes, the
        # last at step 182 under rk4, a store step of store_every=7, and
        # at step 179 under midpoint
        sys = ham(n=1, m=1)
        states = np.random.default_rng(seed).uniform(-2, 2, (4, sys.dim))
        if survivor:
            states[3] *= 1e-3
        for method, last_step in (("rk4", 182), ("midpoint", 179)):
            cfg = IntegratorConfig(method=method, h=1e-2)
            rows, whole = (integrate_batch(field, states, 3.0, cfg,
                                           layout=sys.layout, store_every=7)
                           for field in (sys, sys.field))
            assert rows.escaped.sum() == 4 - survivor
            assert rows.n_steps == whole.n_steps
            assert survivor or whole.n_steps == last_step
            for name in ("final", "escaped", "escape_times",
                         "stored_times", "stored_states"):
                assert np.array_equal(getattr(rows, name),
                                      getattr(whole, name),
                                      equal_nan=True), (method, name)

    @EVERY_SYSTEM
    @pytest.mark.parametrize("rows", [9, 100, 2500])
    def test_batch_code_repeats_the_numpy_step_bit_for_bit(self, sys,
                                                           zero_slot, rows):
        # a System batch of 9 rows or more takes rk4 steps through its
        # generated batch code; its raw field steps numpy _rk4_step
        rng = np.random.default_rng(rows)
        states = rng.uniform(-1.0, 1.0, (rows, sys.dim))
        states[::4, zero_slot] = -0.0
        states[1::3] *= 2.5  # past the escape norm soon, if not at once
        cfg = IntegratorConfig(h=1e-2, escape_norm=2.0)
        for t_end in (1.5, -1.5):
            got, want = (integrate_batch(field, states, t_end, cfg,
                                         store_every=7)
                         for field in (sys, sys.field))
            assert 0 < got.escaped.sum() < rows
            assert np.array_equal(got.escaped, want.escaped)
            assert np.array_equal(got.escape_times, want.escape_times,
                                  equal_nan=True)
            assert got.n_steps == want.n_steps
            for name in ("final", "stored_times", "stored_states"):
                assert same_bits(getattr(got, name), getattr(want, name)), \
                    (t_end, name)
            # a signed zero in a zero-rate slot takes the sign of 0 + h*0
            assert np.signbit(got.final[::4, zero_slot]).all() == (t_end < 0)

    @pytest.mark.parametrize("store_every", [0, -2])
    def test_store_every_below_one_rejected(self, store_every):
        for rows in (1, 20):
            with pytest.raises(InvalidValue, match="store_every"):
                integrate_batch(ham(), np.zeros((rows, 4)), 1.0,
                                store_every=store_every)

    def test_empty_batch_marches_the_whole_grid(self):
        res = integrate_batch(ham(), np.zeros((0, 4)), 1.0,
                              IntegratorConfig(h=0.1), store_every=3)
        assert res.n_steps == 10 and res.final.shape == (0, 4)
        assert res.stored_states.shape == (5, 0, 4)

    def test_escaping_row_is_frozen_not_fatal(self):
        sys = ham(n=1, m=0)
        states = np.array([
            [0.8, 0.0, 0.2, 0.3],     # escapes near t = 1.5
            [1e-4, 0.0, 0.0, 1e-4],   # survives to t = 4
            [0.0, 1.0, 0.0, 0.0],     # on the torus, survives
        ])
        for field in (sys, sys.field):
            res = integrate_batch(field, states, 4.0,
                                  IntegratorConfig(h=1e-3),
                                  layout=sys.layout)
            assert res.escaped.tolist() == [True, False, False]
            assert np.all(np.isfinite(res.final))
            assert 1.3 < res.escape_times[0] < 1.7
            assert np.isnan(res.escape_times[1:]).all()

    def test_nan_rows_escape_as_they_would_alone(self):
        # slots (x, a, b, y, z): the clock x' = 1 passes a row's own a
        # inside some step, where y' = sqrt(a - x) turns nan, never inf;
        # z' = b takes the one row with b = 1e9 past the escape norm
        def field(s):
            x, a, b = s[..., 0], s[..., 1], s[..., 2]
            zero = np.zeros_like(x)
            return np.stack([zero + 1.0, zero, zero, np.sqrt(a - x), b],
                            axis=-1)

        a = [0.05, 0.3, 5.0, 0.3, 0.123, 5.0, 0.555, 5.0, 0.9, 5.0]
        b = [0.0] * 7 + [1e9] + [0.0] * 2
        states = np.zeros((len(a), 5))
        states[:, 1], states[:, 2] = a, b
        cfg = IntegratorConfig(h=1e-2)
        res = integrate_batch(field, states, 1.0, cfg)
        alone = [_march(*_fixed_step(field, cfg, row), 1.0, cfg)
                 for row in states]
        assert res.escaped.tolist() == [x < 1.0 or y > 0.0
                                        for x, y in zip(a, b)]
        assert len(set(res.escape_times[res.escaped].tolist())) == 6
        for i, (final, escaped, escape_time, _, _) in enumerate(alone):
            assert res.escaped[i] == escaped
            assert same_bits(res.escape_times[i], escape_time)
            assert same_bits(res.final[i], final)
        assert np.isfinite(res.final).all()

    def test_row_results_do_not_depend_on_the_batch(self):
        # rows leave the batch at their own steps, and a midpoint row
        # stops iterating at its own convergence; the rows that remain
        # must step exactly as they would alone
        sys = ham(n=1, m=1)
        states = np.random.default_rng(21).uniform(-2.0, 2.0,
                                                   (256, sys.dim))
        for method in ("rk4", "midpoint"):
            self._check_rows_alone(sys, states,
                                   IntegratorConfig(method=method, h=1e-2))

    @staticmethod
    def _check_rows_alone(sys, states, cfg):
        stored = integrate_batch(sys, states, 2.0, cfg, layout=sys.layout,
                                 store_every=7)
        plain = integrate_batch(sys, states, 2.0, cfg, layout=sys.layout)
        assert 0 < stored.escaped.sum() < 256
        alone = [integrate_batch(sys, row[None], 2.0, cfg,
                                 layout=sys.layout, store_every=7)
                 for row in states]
        for res in (stored, plain):
            assert np.array_equal(
                res.final, np.concatenate([a.final for a in alone]))
            for field in ("escaped", "escape_times"):
                assert np.array_equal(
                    getattr(res, field),
                    np.concatenate([getattr(a, field) for a in alone]),
                    equal_nan=True)
            assert res.n_steps == max(a.n_steps for a in alone)
        for i, a in enumerate(alone):
            # a row's storage ends at its escape; the batch keeps storing
            # its last finite state
            n = len(a.stored_times)
            assert np.array_equal(a.stored_times, stored.stored_times[:n])
            assert np.array_equal(a.stored_states[:, 0],
                                  stored.stored_states[:n, i])
            frozen = wrap_angles(a.final[0], sys.layout.angle_mask)
            assert (stored.stored_states[n:, i] == frozen).all()

    def test_observer_sees_only_live_rows(self):
        # the march hands observe each block of steps of the rows live at
        # its start, slot-major (steps, dim, live rows), those rows'
        # indices in the batch, and each row's first step that escapes;
        # the reference is the march one step at a time, whose observer
        # sees each step's live rows, followed here through its drops
        sys = ham(n=1, m=1)
        states = np.random.default_rng(5).uniform(-2.0, 2.0, (64, sys.dim))
        cfg = IntegratorConfig(h=1e-2)
        steps, alive = [], np.arange(len(states))

        def per_step(t, cur, dropped):
            nonlocal alive
            if dropped is not None:
                alive = alive[dropped[1]]
            steps.append((t, cur, alive))

        march_per_step(*_fixed_step(sys, cfg, states.T), 2.0, cfg, per_step)
        ref = row_path(sys, states, 2.0, cfg)
        seen = {"k": 0, "drops": 0}

        def observe(t, block, live, first):
            n = len(t)
            assert block.shape == (n, sys.dim, len(live))
            left = np.full(len(live), n) if first is None else first
            for j in range(n):
                t_ref, cur_ref, live_ref = steps[seen["k"] + j]
                assert t[j] == t_ref
                # the rows still live after step j are the reference's,
                # at the reference's indices in the batch
                assert np.array_equal(live[left > j], live_ref)
                assert same_bits(block[j][:, left > j], cur_ref)
                assert np.array_equal(
                    live[left == j], np.flatnonzero(ref.escape_times == t[j]))
            seen["drops"] += first is not None
            seen["k"] += n

        final, escaped, _, n_steps, _ = _march(
            *_fixed_step(sys, cfg, states.T), 2.0, cfg, observe)
        assert seen["drops"] > 1 and seen["k"] >= n_steps
        assert np.array_equal(final, ref.final.T)
        assert n_steps == ref.n_steps == len(steps)

    def test_batch_storage_is_wrapped(self):
        sys = ham(n=1, m=0)
        states = np.array([[0.0, 3.0, 0.0, 0.0], [0.0, -3.0, 0.0, 0.0]])
        for field in (sys, sys.field):
            res = integrate_batch(field, states, 5.0,
                                  IntegratorConfig(h=1e-2),
                                  layout=sys.layout, store_every=100)
            assert res.stored_states.shape[0] == len(res.stored_times)
            phi = res.stored_states[:, :, sys.layout.slot_of("phi_1")]
            assert np.all(phi <= math.pi) and np.all(phi > -math.pi)
            assert res.stored_times[-1] == 5.0

    def test_adaptive_batch_rejected(self):
        with pytest.raises(InvalidValue):
            integrate_batch(quad_field, np.zeros((2, 1)), 1.0,
                            IntegratorConfig(method="adaptive"))

    @pytest.mark.parametrize("rows", [8, 9])
    def test_system_batch_of_another_width_rejected(self, rows):
        # rows of a state and its tangent matrix, dim + dim^2 slots, on
        # the float row path and on the batch path alike
        sys = ham(n=1, m=0)
        with pytest.raises(InvalidValue, match="slots"):
            integrate_batch(sys, np.zeros((rows, sys.dim * (sys.dim + 1))),
                            1.0)


class TestPerRowDirection:
    """A per-row t_end marches forward and backward rows as one batch."""

    @staticmethod
    def _points(rows):
        # rev-unique at point scale 3: rows escape in both directions,
        # at their own steps; the first, scaled down, lives to the end
        sys = build_system(SystemParams(REV_UNIQUE, n=1, m=1, l=1,
                                        omega=(1.0,)))
        pts = 3.0 * np.random.default_rng(rows).uniform(-1.0, 1.0,
                                                        (rows, sys.dim))
        pts[0] *= 1e-3
        return sys, pts, sys.involution(pts)

    # 3 + 3 rows take the float row path, 9 + 9 and 100 + 100 the
    # generated rows step (rk4) or the numpy midpoint step
    @pytest.mark.parametrize("rows", [3, 9, 100])
    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_mixed_batch_matches_one_call_per_direction(self, rows, method):
        sys, fwd, back = self._points(rows)
        cfg = IntegratorConfig(method=method, h=1e-2)
        both = integrate_batch(sys, np.concatenate([fwd, back]),
                               np.repeat([5.0, -5.0], rows), cfg,
                               layout=sys.layout)
        alone = [integrate_batch(sys, states, t_end, cfg, layout=sys.layout)
                 for states, t_end in ((fwd, 5.0), (back, -5.0))]
        assert both.escaped[:rows].any() and both.escaped[rows:].any()
        assert not both.escaped.all()
        for name in ("final", "escaped", "escape_times"):
            assert same_bits(getattr(both, name), np.concatenate(
                [getattr(a, name) for a in alone])), name
        assert both.n_steps == max(a.n_steps for a in alone)
        # each escape time carries its row's direction
        times = both.escape_times
        assert (times[:rows][both.escaped[:rows]] > 0).all()
        assert (times[rows:][both.escaped[rows:]] < 0).all()

    @pytest.mark.parametrize("rows", [3, 9])
    def test_bad_per_row_t_end_rejected(self, rows):
        # 3 rows take the float row path, 9 the batch march
        states = np.zeros((rows, 4))
        good = np.resize([1.0, -1.0], rows)
        first = np.ones(rows)
        first[0] = 2.0
        for t_end in (good[1:], good[None], good * first, 0.0 * good,
                      math.inf * good, np.where(first > 1, math.nan, good)):
            with pytest.raises(InvalidValue, match="t_end"):
                integrate_batch(ham(), states, t_end)
        with pytest.raises(InvalidValue, match="store_every"):
            integrate_batch(ham(), states, good, store_every=1)
        assert integrate_batch(ham(), states, good).n_steps == 100


class TestCompiledStep:
    def test_constant_rate_advances_by_exactly_h(self):
        sys = build_system(SystemParams(REV_UNIQUE, n=1, l=0, m=0,
                                        omega=(1.0,)))
        p0 = MixedPoint.of(sys.layout, [0.0, 0.0])
        traj = integrate(sys, p0, 0.1, IntegratorConfig(h=0.1))
        assert traj.n_steps == 1
        assert traj.final_point["phi_1"] == 0.1

    @EVERY_SYSTEM
    def test_float_steps_repeat_the_numpy_step_bit_for_bit(self, sys,
                                                           zero_slot):
        rates, tangent = sys.compiled(), sys.compiled("tangent")
        field = sys.compiled("field")
        state = 0.3 * np.random.default_rng(4).uniform(-1.0, 1.0, sys.dim)
        state[zero_slot] = -0.0
        for h in (1e-2, -1e-2):
            want = _rk4_step(field, state, h)
            got = float_alone(rates.rk4_step, rates.conserved)(
                tuple(state.tolist()), h)
            assert same_bits(got, want)
            assert np.signbit(got[zero_slot]) == (h < 0)
            if not sys.is_hamiltonian:
                continue
            # the tangent step against the numpy tangent flow over the
            # full matrix, the compiled state scattered into it, stepped
            # alone and marched by the same loop as integrate_variational
            oracle = tangent_field(sys)
            z = _tangent_start(sys, state)
            assert same_bits(full_state(sys, float_alone(
                tangent.rk4_step, tangent.conserved)(tuple(z.tolist()), h)),
                _rk4_step(oracle, full_state(sys, z), h))
            if h > 0:
                cfg = IntegratorConfig(h=h)
                got = integrate_variational(
                    sys, MixedPoint.of(sys.layout, state), 0.5, cfg)
                want = _march(*_fixed_step(oracle, cfg, full_state(sys, z)),
                              0.5, cfg)[0]
                assert same_bits(got.matrix,
                                 want[sys.dim:].reshape(sys.dim, sys.dim))
                assert same_bits(got.end_point.coords, MixedPoint.of(
                    sys.layout, want[:sys.dim]).coords)

    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_single_state_never_calls_the_numpy_field(self, monkeypatch,
                                                      method):
        sys = build_system(SystemParams(HAM_COMPACT, n=1, m=1,
                                        omega=(1.0,)))
        p0 = small_point(sys, scale=0.3, seed=2)
        want = integrate(sys.field, p0, 1.0,
                         IntegratorConfig(method=method, h=1e-2))

        def numpy_field(self, states):
            raise AssertionError("numpy field called")

        monkeypatch.setattr(System, "field", numpy_field)
        got = integrate(sys, p0, 1.0, IntegratorConfig(method=method,
                                                        h=1e-2))
        assert np.max(np.abs(got.states - want.states)) < 1e-14

    @pytest.mark.parametrize("sys, coords, t_end", [
        # the benchmark's adaptive simulate point
        (build_system(SystemParams(HAM_COMPACT, n=1, m=1, omega=(1.0,))),
         [0.1, 0.7, 0.05, 0.05, 0.05, 0.05], 50.0),
        (build_system(SystemParams(HAM_UNIQUE, n=1, m=0, omega=(1.0,))),
         [0.1, 0.7, 0.05, -0.05], 10.0),
    ], ids=["ham-compact", "ham-unique"])
    def test_adaptive_step_repeats_the_numpy_pair(self, monkeypatch, sys,
                                                  coords, t_end):
        # the fused step keeps the numpy step's order of operations, so
        # the controller takes the same steps to the last bit
        p0 = MixedPoint.of(sys.layout, coords)
        cfg = IntegratorConfig(method="adaptive", h=1e-2)
        want = integrate(sys.field, p0, t_end, cfg)

        def numpy_field(self, states):
            raise AssertionError("numpy field called")

        monkeypatch.setattr(System, "field", numpy_field)
        got = integrate(sys, p0, t_end, cfg)
        assert (got.n_steps, got.n_rejected) == (want.n_steps,
                                                 want.n_rejected)
        assert want.n_rejected > 0
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.states, want.states)


def runner(code, step):
    """The runner that _fixed_step makes of compiled code and one of its
    steps, for compiled rates that are no System's."""
    run = partial(code.run, step)
    run.conserved = code.conserved
    return run


def one_step_at_a_time(step, state, t_end, cfg, store_every=None,
                       stop=None):
    """_march of one state, as a loop that calls step(state, h) once a
    step and makes the escape test of `_escaping` on each new state."""
    span, sign = abs(t_end), math.copysign(1.0, t_end)
    n_whole = int(span / cfg.h + 1e-9)
    remainder = span - n_whole * cfg.h
    total = n_whole + (1 if remainder > 1e-12 else 0)
    cur = prev = state
    stored = []
    for k in range(1, total + 1):
        t = sign * (span if k == total else k * cfg.h)
        trial = step(cur, sign * (cfg.h if k <= n_whole else remainder))
        if _escaping(trial, cfg.escape_norm):
            return cur, True, t, k, stored
        prev, cur = cur, trial
        if store_every and (k % store_every == 0 or k == total):
            stored.append((t, cur))
        if stop is not None and cur[stop[0]] - stop[1] >= 0.0:
            break
    if stop is not None:
        stored = [(sign * ((k - 1) * cfg.h), prev)]
    return cur, False, math.nan, k, stored


def assert_same_march(got, want):
    state, escaped, escape_time, steps, stored = got
    assert same_bits(state, want[0])
    assert (bool(escaped), steps) == (want[1], want[3])
    assert same_bits(escape_time, want[2])
    assert len(stored) == len(want[4])
    for (t, s), (t_want, s_want) in zip(stored, want[4]):
        assert same_bits(t, t_want) and same_bits(s, s_want)


def escape_norm_at(step, state, t_end, cfg, k):
    """An escape norm that the k-th state of the march passes first."""
    stored = one_step_at_a_time(step, state, t_end, cfg, store_every=1)[4]
    tops = [max(map(abs, s)) for s in [state] + [s for _, s in stored]]
    assert tops[k] > max(tops[:k])
    return 0.5 * (tops[k] + max(tops[:k]))


class TestStretchMarch:
    """A single state marches in stretches of steps, each one call of the
    runner; the result is that of one call of the step per step."""

    @staticmethod
    def _unique(coords=(0.8, 0.0, 0.2, 0.3)):
        # u = 0.8 pins y' >= 0.64 + y^2: escape near t = 1.5
        sys = ham(n=1, m=0)
        code = sys.compiled()
        return sys, float_alone(code.rk4_step, code.conserved), tuple(coords)

    @pytest.mark.parametrize("store_every", [None, 7])
    def test_escape_inside_a_stretch(self, store_every):
        cfg = IntegratorConfig(h=1e-3)
        sys, step, start = self._unique()
        got = _march(*_fixed_step(sys, cfg, start), 10.0, cfg,
                     store_every=store_every)
        want = one_step_at_a_time(step, start, 10.0, cfg, store_every)
        assert want[1] and want[3] % 7 and 1000 < want[3] < 2000
        assert_same_march(got, want)

    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_escape_on_the_remainder_step(self, method):
        cfg = IntegratorConfig(method=method, h=1e-2)
        sys, _, start = self._unique()
        code = sys.compiled()
        step = float_alone(code.midpoint_step if method == "midpoint"
                           else code.rk4_step, code.conserved)
        # 123 whole steps and one of 0.0045
        t_end = 1.2345
        cfg = replace(cfg, escape_norm=escape_norm_at(step, start, t_end,
                                                      cfg, 124))
        want = one_step_at_a_time(step, start, t_end, cfg, store_every=10)
        assert want[1] and want[2] == t_end and want[3] == 124
        assert_same_march(_march(*_fixed_step(sys, cfg, start), t_end, cfg,
                                 store_every=10), want)
        # a plain field runs through the numpy steps
        field = np.array(start)
        got = _march(*_fixed_step(sys.field, cfg, field), t_end, cfg)
        assert got[1] and got[2] == t_end and got[3] == 124

    @pytest.mark.parametrize("t_end", [1.0, -1.0, 1.005])
    def test_store_every_that_does_not_divide_the_steps(self, t_end):
        cfg = IntegratorConfig(h=1e-2)
        sys, step, start = self._unique((0.01, 0.0, 0.02, -0.03))
        got = _march(*_fixed_step(sys, cfg, start), t_end, cfg,
                     store_every=7)
        want = one_step_at_a_time(step, start, t_end, cfg, store_every=7)
        assert not want[1] and len(want[4]) == 15
        assert_same_march(got, want)

    @pytest.mark.parametrize("order", [("t", "y", "z"), ("y", "t", "z")])
    @pytest.mark.parametrize("rate, bad", [
        # the product overflows past t = 1.34: inf - inf, or inf
        ("t*t*1e300*1e8 - t*t*1e300*1e8", "nan"),
        ("t*t*1e300*1e8*1e-302", "inf"),
    ], ids=["nan", "inf"])
    def test_one_slot_turns_non_finite(self, order, rate, bad):
        texts = {"t": "1", "y": rate, "z": "t"}
        code = compile_rates([parse(texts[x]) for x in order], order)
        cfg = IntegratorConfig(h=1e-2)
        start = (0.0, 0.0, 0.0)
        got = _march(runner(code, code.rk4_step), start, 2.0, cfg,
                     store_every=10)
        step = float_alone(code.rk4_step, code.conserved)
        want = one_step_at_a_time(step, start, 2.0, cfg, 10)
        assert want[1] and want[3] == 135
        trial = step(want[0], 1e-2)
        y = order.index("y")
        assert str(trial[y]) == bad
        assert all(math.isfinite(v) for i, v in enumerate(trial) if i != y)
        assert_same_march(got, want)

    def test_crossing_on_the_first_step(self):
        cfg = IntegratorConfig(h=1e-2)
        sys, step, start = self._unique((0.01, 0.5, 0.02, -0.03))
        slot = sys.layout.slot_of("phi_1")
        stop = (slot, start[slot] + 0.001)  # phi_1' is near 1
        got = _march(*_fixed_step(sys, cfg, start), 100.0, cfg, stop=stop)
        want = one_step_at_a_time(step, start, 100.0, cfg, stop=stop)
        assert want[3] == 1 and want[4] == [(0.0, start)]
        assert_same_march(got, want)

    def test_crossing_on_the_remainder_step(self):
        cfg = IntegratorConfig(h=1e-2)
        sys, step, start = self._unique((0.01, 0.5, 0.02, -0.03))
        slot = sys.layout.slot_of("phi_1")
        phi = [s[slot] for _, s in
               one_step_at_a_time(step, start, 0.5, cfg, store_every=1)[4]]
        # between the 29th and the 30th state, so that a remainder step
        # of 0.9 h after 29 whole steps crosses
        stop = (slot, 0.5 * (phi[28] + phi[29]))
        t_end = 0.299
        got = _march(*_fixed_step(sys, cfg, start), t_end, cfg, stop=stop)
        want = one_step_at_a_time(step, start, t_end, cfg, stop=stop)
        assert want[3] == 30 and want[0][slot] - stop[1] >= 0.0
        assert_same_march(got, want)

    def test_tangent_state_of_19_slots(self):
        # 6 slots and the 13 entries of M that move
        sys = ham(n=1, m=1)
        code = sys.compiled("tangent")
        step = float_alone(code.rk4_step, code.conserved)
        start = tuple(_tangent_start(
            sys, small_point(sys, 0.5, seed=3).coords).tolist())
        assert len(start) == 19
        cfg = IntegratorConfig(h=1e-2)
        for k in (None, 57):
            if k is not None:  # an escape inside the stretch
                cfg = replace(cfg, escape_norm=escape_norm_at(
                    step, start, 1.0, cfg, k))
            got = _march(*_fixed_step(sys, cfg, start), 1.0, cfg,
                         store_every=25)
            want = one_step_at_a_time(step, start, 1.0, cfg, 25)
            assert want[1] == (k is not None)
            assert want[3] == (k or 100)
            assert_same_march(got, want)

    def test_tangent_state_with_a_nan_past_the_first_slot(self):
        # max() skips a nan that is not first; the sum catches it. phi_1
        # (slot 1) passes 0.3 past its start near step 30
        sys = ham(n=1, m=1)
        code = sys.compiled("tangent")
        start = tuple(_tangent_start(
            sys, small_point(sys, 0.5, seed=3).coords).tolist())

        def step(s, h, first, rest):
            t = code.rk4_step(s, h, first, rest)
            return t[:9] + (math.nan,) + t[10:] if t[1] > start[1] + 0.3 \
                else t

        cfg = IntegratorConfig(h=1e-2)
        alone = float_alone(step, code.conserved)
        want = one_step_at_a_time(alone, start, 1.0, cfg, 25)
        assert want[1] and 1 < want[3] < 100
        for run in (partial(_run, alone), runner(code, step)):
            assert_same_march(_march(run, start, 1.0, cfg, store_every=25),
                              want)


def drift(s):
    # every slot moves at rate 1, so a slot that starts at b - (k - 0.5) h
    # passes b inside step k
    return np.ones_like(s)


def crossing_at(bound, k, h=1e-2):
    """The start of a drift slot that passes bound inside step k, or 0.0
    for k None."""
    return 0.0 if k is None else bound - (k - 0.5) * h


def past_five(x):
    # the retire test of either march: slot 1 at or past 5.0, down the
    # slot axis of a step (dim, rows) or a block (steps, dim, rows)
    out = x[..., 1, :] >= 5.0
    return out if out.any() else None


def assert_same_batch(got, want):
    state, escaped, escape_times, steps, stored = got
    assert same_bits(state, want[0])
    assert np.array_equal(escaped, want[1])
    assert same_bits(escape_times, want[2])
    assert steps == want[3]
    assert len(stored) == len(want[4])
    for (t, s), (t_want, s_want) in zip(stored, want[4]):
        assert same_bits(t, t_want) and same_bits(s, s_want)


class TestBlockMarch:
    """A batch marches in blocks of steps and settles escapes, retirements
    and storage once a block; the result is that of the march one step
    at a time (catalog_oracle.march_per_step), bit for bit."""

    @staticmethod
    def _drift_march(rows, t_end, store_every=None, retire=None):
        # rows: (escape step, retire step) of each row, None for never;
        # slot 0 escapes past the norm 10, slot 1 retires past 5
        cfg = IntegratorConfig(h=1e-2, escape_norm=10.0)
        states = np.array([[crossing_at(10.0, e), crossing_at(5.0, r)]
                           for e, r in rows])
        step, start = _fixed_step(drift, cfg, states.T)
        got = _march(step, start, t_end, cfg, retire=retire,
                     store_every=store_every)
        want = march_per_step(step, start, t_end, cfg, retire=retire,
                              store_every=store_every)
        assert_same_batch(got, want)
        return got

    # store_every=5 ends the blocks after steps 5, 10, ...
    @pytest.mark.parametrize("store_every", [None, 5])
    def test_escape_on_the_first_and_last_step_of_a_block(self,
                                                          store_every):
        assert integrators._BLOCK_STEPS >= 5
        rows = [(1, None), (6, None), (10, None), (None, None)]
        _, escaped, times, steps, _ = self._drift_march(rows, 1.0,
                                                        store_every)
        assert escaped.tolist() == [True, True, True, False]
        assert np.allclose(times[:3], [0.01, 0.06, 0.1], rtol=1e-12)
        assert steps == 100

    @pytest.mark.parametrize("store_every", [None, 5])
    def test_escape_and_exit_on_one_step_counts_as_escaped(self,
                                                           store_every):
        # the last row leaves the domain at step 7 and would escape at
        # step 9, in the same block: it is retired, not escaped
        rows = [(8, 8), (None, 3), (None, None), (9, 12), (9, 7)]
        final, escaped, times, _, _ = self._drift_march(
            rows, 1.0, store_every, past_five)
        assert escaped.tolist() == [True, False, False, True, False]
        assert np.isnan(times[[1, 2, 4]]).all()
        # a retired row leaves at its state before the step, as an
        # escaping one does; final is slot-major (slot, row)
        assert final[1, 1] < 5.0 and final[0, 0] < 10.0
        assert final[1, 4] < 5.0 and final[0, 4] < 10.0

    def test_every_row_gone_inside_a_block(self):
        _, escaped, _, steps, stored = self._drift_march(
            [(6, None), (7, None), (None, 7)], 1.0, 5, past_five)
        assert escaped.tolist() == [True, True, False]
        assert steps == 7 and len(stored) == 1

    @pytest.mark.parametrize("store_every", [None, 5])
    def test_remainder_step_inside_a_block(self, store_every):
        # 12 whole steps and one of 0.0034; the second row passes the
        # norm on the remainder step
        cfg = IntegratorConfig(h=1e-2, escape_norm=10.0)
        states = np.array([[0.0, 0.0], [10.0 - 0.1217, 0.0]])
        step, start = _fixed_step(drift, cfg, states.T)
        got = _march(step, start, 0.1234, cfg, store_every=store_every)
        want = march_per_step(step, start, 0.1234, cfg,
                              store_every=store_every)
        assert want[1].tolist() == [False, True] and want[2][1] == 0.1234
        assert want[3] == 13
        assert_same_batch(got, want)

    @pytest.mark.parametrize("store_every", [None, 7, 20, 1000])
    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_system_batch_with_escaping_rows(self, store_every, method):
        # 12 rows: the generated rows step (rk4) or _batch_midpoint; a
        # block ends at each store point, so 20 and 1000 do not divide
        # the blocks of the cap
        sys = ham(n=1, m=1)
        states = np.random.default_rng(4).uniform(-2.0, 2.0, (12, sys.dim))
        states[0] *= 1e-3  # lives to the end
        cfg = IntegratorConfig(method=method, h=1e-2)
        step, start = _fixed_step(sys, cfg, states.T)
        got = _march(step, start, 2.0, cfg, store_every=store_every)
        want = march_per_step(step, start, 2.0, cfg,
                              store_every=store_every)
        assert 0 < want[1].sum() < 12
        assert_same_batch(got, want)

    def test_plain_field_callable(self):
        sys = ham(n=1, m=1)
        states = np.random.default_rng(9).uniform(-2.0, 2.0, (40, sys.dim))
        cfg = IntegratorConfig(h=1e-2)
        step, start = _fixed_step(sys.field, cfg, states.T)
        for store_every in (None, 9):
            got = _march(step, start, 1.5, cfg, store_every=store_every)
            want = march_per_step(step, start, 1.5, cfg,
                                  store_every=store_every)
            assert 0 < want[1].sum() < 40
            assert_same_batch(got, want)

    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_per_row_signed_t_end(self, method):
        sys, fwd, back = TestPerRowDirection._points(20)
        cfg = IntegratorConfig(method=method, h=1e-2)
        t_end = np.repeat([5.0, -5.0], 20)
        step, start = _fixed_step(sys, cfg, np.concatenate([fwd, back]).T)
        got = _march(step, start, t_end, cfg)
        want = march_per_step(step, start, t_end, cfg)
        assert want[1][:20].any() and want[1][20:].any()
        assert not want[1].all()
        assert_same_batch(got, want)

    @pytest.mark.parametrize("scale, store_every", [
        (1e-3, None), (1.0, None), (1e-3, 7)],
        ids=["no-drop", "escapes", "store-every"])
    def test_batch_result_owns_its_memory(self, scale, store_every):
        # the final states are an array of their own, not a view that
        # keeps the whole last block of steps alive
        sys = ham(n=1, m=1)
        states = scale * np.random.default_rng(4).uniform(
            -2.0, 2.0, (12, sys.dim))
        cfg = IntegratorConfig(h=1e-2)
        final, escaped, _, _, _ = _march(
            *_fixed_step(sys, cfg, states.T), 2.0, cfg,
            store_every=store_every)
        assert escaped.any() == (scale == 1.0)
        assert final.base is None and final.shape == (sys.dim, 12)

    def test_block_holds_at_most_the_cap(self):
        # 12,000 rows of 6 slots take single steps, 10^4 rows blocks of 2;
        # fewer rows, longer blocks, up to the step cap
        sys = ham(n=1, m=1)
        cfg = IntegratorConfig(h=1e-2)
        firsts = []
        for rows in (12_000, 10_000, 500, 9):
            sizes = []
            _march(*_fixed_step(sys, cfg, np.zeros((sys.dim, rows))), 0.5,
                   cfg, lambda t, block, live, first:
                   sizes.append(block.shape))
            assert sum(n for n, _, _ in sizes) == 50
            n = sizes[0][0]
            assert n == max(1, min(integrators._BLOCK_STEPS,
                                   integrators._BLOCK_BYTES
                                   // (8 * sys.dim * rows)))
            assert n * 8 * sys.dim * rows <= integrators._BLOCK_BYTES \
                or n == 1
            firsts.append(n)
        assert firsts == [1, 2, 16, 16]


# the four families at n in {1, 2, 3}, m in {0, 1, 2} and, for the
# reversible ones, l in {0, 1}, and the control
ALL_SIZES = pytest.mark.parametrize("family, n, m, l", [
    *((family, n, m, l) for family in FAMILIES
      for n, m, l in itertools.product(
          (1, 2, 3), (0, 1, 2),
          (None,) if family in (HAM_UNIQUE, HAM_COMPACT) else (0, 1))),
    ("control", 1, 0, None)])


class TestConservedTerms:
    """A batch's rows step reads the terms of its zero-rate slots, which
    the march computes once: at the start state for the first stage of
    the first step, and at it plus h*0.0 for every other stage. The
    result is that of the step that computes them afresh at every step
    (catalog_oracle.step_alone), and so of _rk4_step, bit for bit."""

    # values for the zero-rate slots: a step keeps each, but takes a
    # signed zero to the zero of 0 + h*0; inf and nan escape at once
    SPECIAL = (-0.0, 0.0, math.pi, -math.pi, 1e6, math.inf, math.nan)

    @ALL_SIZES
    def test_march_repeats_the_step_alone(self, family, n, m, l):
        sys = build_control_system() if family == "control" else \
            build_system(SystemParams(family, n=n, m=m, l=l, omega=(
                1.0, math.sqrt(2.0), math.sqrt(3.0))[:n]))
        rng = np.random.default_rng(sys.dim)
        states = rng.uniform(-0.3, 0.3, (40, sys.dim))
        zero = np.flatnonzero((sys.field(states) == 0.0).all(axis=0))
        special = np.array(self.SPECIAL)
        k = len(special)
        states[:k, zero] = special[:, None]  # every zero-rate slot
        if len(zero):  # the first alone
            states[k:2 * k, zero[0]] = special
        # forward and backward rows on one grid of 55 steps of 1e-2 and a
        # remainder of 5e-3; rows 14-19 leave |phi_1| <= 0.5 in the first
        # block, and the last row escapes on the first step
        t_end = np.where(np.arange(40) % 2, -0.555, 0.555)
        phi = sys.slots.phi.start
        states[14:20, phi] = np.sign(t_end[14:20]) * np.linspace(
            0.49, 0.44, 6)
        states[-1, phi] = math.inf
        marks = []

        def past(x):
            out = np.abs(x[..., phi, :]) >= 0.5
            marks.append(out.any())
            return out if out.any() else None

        cfg = IntegratorConfig(h=1e-2)
        step, start = _fixed_step(sys, cfg, states.T)
        assert hasattr(step, "conserved")
        got = _march(step, start, t_end, cfg, retire=past)
        assert marks[0]  # rows retire in the first block
        want = march_per_step(step, start, t_end, cfg, retire=past)
        assert_same_batch(got, want)
        escaped, times = got[1], got[2]
        assert escaped[-1] and times[-1] == -0.01
        assert not escaped[14:20].any()
        # each start state steps alone as _rk4_step with the numpy field
        h = np.sign(t_end) * cfg.h
        with np.errstate(all="ignore"):
            assert same_bits(step_alone(step, start, h),
                             _rk4_step(sys.compiled("field"), start, h))

    @pytest.mark.parametrize("t_end", [0.1, -0.1])
    @pytest.mark.parametrize("rate, escapes", [("1/a", 2), ("x*(-a)", 0)])
    def test_a_signed_zero_reaches_the_first_stage_alone(self, rate,
                                                         escapes, t_end):
        # rates that read the sign of the zero-rate slot a, which a step
        # of h > 0 takes from -0.0 to +0.0. The first step's stage 1 sees
        # a = -0.0 and its stages 2-4 +0.0: 1/a is -inf, then +inf, and b
        # turns nan. Every later step sees +0.0 alone: x*(-a), with x
        # past 0 from the second stage on, is -0.0 at every stage of the
        # second step, so b keeps the sign of -0.0 + -0.0. Each step of
        # each block is the step alone at the state before it
        names = ("a", "b", "x")
        rates = [parse(r) for r in ("0", rate, "1")]
        step = compile_rows(rates, names)
        start = np.array([[-0.0, 0.0, 1.0, -1.0], [-0.0] * 4, [-1e-3] * 4])
        cfg = IntegratorConfig(h=1e-2)
        h = math.copysign(cfg.h, t_end)
        prev = start

        def observe(t, block, live, first):
            nonlocal prev
            for states in block:
                assert same_bits(states, step_alone(step, prev, h))
                prev = states
            if first is not None:
                prev = prev[:, first == len(t)]

        with np.errstate(all="ignore"):
            want = _rk4_step(compile_numpy(rates, names), start, h)
            assert same_bits(step_alone(step, start, h), want)
            got = _march(step, start, t_end, cfg, observe)
            assert_same_batch(got, march_per_step(step, start, t_end, cfg))
        assert got[1].tolist() == [True] * escapes + [False] * (4 - escapes)
        if escapes:
            assert np.isnan(want[1, 0]) == (h > 0)
        else:  # backward, x < 0 makes each stage -0.0, and h times it +0.0
            assert np.signbit(got[0][1, 0]) == (h > 0)

    @pytest.mark.parametrize("scale, drops", [(1e-3, 0), (1.0, 3), (3.0, 5)])
    def test_computed_twice_a_march(self, scale, drops):
        # whatever the number of blocks in which rows leave
        sys = ham(n=1, m=1)
        rows = 50
        states = scale * np.random.default_rng(2).uniform(
            -1.0, 1.0, (sys.dim, rows))
        cfg = IntegratorConfig(h=1e-2)
        step = sys.compiled("rk4_rows")
        calls, blocks = [], []

        def conserved(s):
            calls.append(s.shape)
            return step.conserved(s)

        def counted(s, h, first, rest, out):
            return step(s, h, first, rest, out)

        counted.conserved = conserved
        got = _march(counted, states, 2.0, cfg, lambda t, block, live, first:
                     blocks.append(first is not None))
        assert calls == [(sys.dim, rows)] * 2
        assert sum(blocks) >= drops and (drops or not any(blocks))
        assert_same_batch(got, march_per_step(step, states, 2.0, cfg))


def float_oracle_march(step, field, start, t_end, cfg, store_every=None,
                       stop=None):
    """A march of one state, as a numpy array, by one_step_at_a_time of
    the numpy step (_rk4_step or _batch_midpoint) on a numpy field."""
    with np.errstate(all="ignore"):
        return one_step_at_a_time(partial(step, field), np.array(start),
                                  t_end, cfg, store_every, stop)


def assert_float_march_repeats_numpy(run, step, field, start, t_end, cfg):
    """The march of one state on a compiled runner against the numpy
    step: to the end, to an escape and to a section stop on the first
    step and on a later one, the last two chosen on the numpy march.
    Returns the numpy march to the end."""
    want = float_oracle_march(step, field, start, t_end, cfg, store_every=1)
    states = [s for _, s in want[4]]
    ends = [(cfg, None, 7)]
    if len(states) > 1:
        # an escape norm and a stop that the states pass first at step k
        tops = [float(np.max(np.abs(s))) for s in [np.array(start)] + states]
        k = max((j for j in range(2, len(tops))
                 if tops[j] > max(tops[:j])), default=None)
        if k is not None:
            ends.append((replace(cfg, escape_norm=0.5 * (
                tops[k] + max(tops[:k]))), None, 5))
        ends.append((cfg, (0, states[0][0]), None))
        for slot in range(len(start)):
            series = [s[slot] for s in states]
            k = max((j for j in range(1, len(series))
                     if series[j] > max(series[:j])), default=None)
            if k is not None:
                ends.append((cfg, (slot, series[k]), None))
                break
    for c, stop, every in ends:
        got = _march(run, start, t_end, c, store_every=every, stop=stop)
        assert_same_march(got, float_oracle_march(step, field, start, t_end,
                                                  c, every, stop))
    return want


class TestFloatProtocol:
    """A single state steps on floats with the terms of its zero-rate
    slots, which the march computes: at the start for the first step's
    stage 1 or predictor, and at it plus h*0.0 for the rest of that step;
    from the second step on, at the state after the first. The march is
    that of the numpy step on one row, bit for bit, whatever the
    conserved slots hold."""

    SPECIAL = (-0.0, math.pi, -math.pi, 1e150, math.nan)

    @pytest.mark.parametrize("method", [RK4, MIDPOINT])
    @pytest.mark.parametrize("sys", [
        *(ham(n, m) for n in (1, 2) for m in (0, 1)),
        *(build_system(SystemParams(HAM_COMPACT, n=n, m=m, omega=(
            1.0, math.sqrt(2.0))[:n])) for n in (1, 2) for m in (0, 1)),
        build_system(SystemParams(REV_COMPACT, n=1, l=1, m=1,
                                  omega=(1.0,))),
        build_control_system(),
    ], ids=lambda s: f"{s.family}-n{s.params.n}-m{s.params.m}")
    def test_march_repeats_the_numpy_step(self, sys, method):
        rng = np.random.default_rng(sys.dim)
        zero = np.flatnonzero((sys.field(rng.uniform(
            -0.3, 0.3, (8, sys.dim))) == 0.0).all(axis=0))
        assert len(zero)
        numpy_step = _batch_midpoint if method == MIDPOINT else _rk4_step
        escapes = 0
        for special, h in itertools.product(self.SPECIAL, (1e-2, -1e-2)):
            x = rng.uniform(-0.3, 0.3, sys.dim)
            x[zero] = special
            cfg = IntegratorConfig(method=method, h=1e-2,
                                   escape_norm=np.finfo(float).max)
            start = tuple(x.tolist())
            run, begin = _fixed_step(sys, cfg, x)
            assert same_bits(begin, start)
            want = assert_float_march_repeats_numpy(
                run, numpy_step, sys.compiled("field"), start,
                math.copysign(0.3, h), cfg)
            escapes += want[1]
            if math.isnan(special):
                assert want[1] and want[3] == 1
        assert escapes >= 2

    @pytest.mark.parametrize("method", [RK4, MIDPOINT])
    @pytest.mark.parametrize("rate", ["1/a", "x*(-a)", "sin(a)*x + a*a"])
    def test_rates_that_read_the_sign_of_a_zero(self, rate, method):
        # a is conserved: a step of h takes -0.0 to the zero of h's sign
        # (rk4) or to +0.0 (midpoint, 2m - s), while the first step's
        # stage 1 sees the start. 1/a raises on floats where numpy gives
        # an infinity; either way the march escapes at step 1
        names = ("a", "b", "x")
        rates = [parse(r) for r in ("0", rate, "1")]
        code = compile_rates(rates, names)
        field = compile_numpy(rates, names)
        step = code.midpoint_step if method == MIDPOINT else code.rk4_step
        numpy_step = _batch_midpoint if method == MIDPOINT else _rk4_step
        cfg = IntegratorConfig(method=method, h=1e-2,
                               escape_norm=np.finfo(float).max)
        for a, b, h in itertools.product(
                (-0.0, 0.0, 1e150, math.pi), (-0.0, 0.5), (1e-2, -1e-2)):
            start = (a, b, -1e-3)
            want = assert_float_march_repeats_numpy(
                runner(code, step), numpy_step, field, start,
                math.copysign(0.2, h), cfg)
            if rate == "1/a" and a == 0.0:
                assert want[1] and want[3] == 1
            else:
                assert not want[1]


class TestMidpointStop:
    """The float midpoint iteration stops as _batch_midpoint's going mask
    does on one row, by comparisons alone."""

    def test_no_builtin_in_the_iteration(self):
        text = ham(n=1, m=1).compiled().source
        step = text[text.index("def midpoint_step"):text.index("def dp54")]
        assert "for _ in range(_max_iter):" in step
        for name in ("abs(", "max(", "sum(", "min("):
            assert name not in step

    @pytest.mark.parametrize("rate, x, calls, finite", [
        # one update, as at the lab's amplitudes: a field call for the
        # predictor and one for the update
        ("-x*x*y", 1e-4, 2, True),
        ("-10*x", 0.5, 9, True),  # a contraction of 0.05 an update
        # expanding 50 times an update: stuck after _MIDPOINT_MAX_ITER, or
        # overflowing first (y's rate x*x)
        ("-1e4*x", 0.5, 52, False),
        ("-1e4*x", 1e100, 33, False),
        ("x*x*1e300*1e8", 0.5, 2, False),  # the update turns inf
        ("x*x*1e300*1e8 - x*x*1e300*1e8", 1e250, 2, False),  # inf - inf
    ], ids=["one", "several", "stuck", "overflow", "inf", "nan"])
    def test_each_way_out_of_the_iteration(self, rate, x, calls, finite):
        # a conserved a, read by y's rate, a conserved b that no rate
        # reads, and phi of constant rate
        names = ("a", "b", "phi", "x", "y")
        rates = [parse(r) for r in ("0", "0", "1", rate, "x*x + a*a")]
        code = compile_rates(rates, names)
        numpy_field = compile_numpy(rates, names)
        counted = []

        def field(s):
            counted.append(1)
            return numpy_field(s)

        step = float_alone(code.midpoint_step, code.conserved)
        for a, b, h, sx in itertools.product(
                (-0.0, 1e-4, 0.3), (0.5, -math.inf, math.nan),
                (1e-2, -1e-2), (x, -x)):
            s = (a, b, 0.1, sx, 0.2)
            counted.clear()
            with np.errstate(all="ignore"):
                want = _batch_midpoint(field, np.array(s), h)
            got = step(s, h)
            assert same_bits(got, want), (s, h)
            if b == 0.5:
                assert len(counted) == calls
                assert _escaping(want, 1e8) != finite
                if calls == 52:  # the stuck check turns every slot nan
                    assert np.isnan(got).all()
            else:  # a slot that is not finite ends the iteration at once
                assert len(counted) == 2 and _escaping(want, 1e8)

    def test_a_nan_residual_is_not_stuck(self):
        # after _MIDPOINT_MAX_ITER updates that expand x 50 times each,
        # the stuck check's field makes y's residual inf - inf: numpy's
        # max of the residuals is then nan, which is not above _tol, so
        # the step keeps its last iterate
        names = ("a", "phi", "x", "y")
        rates = [parse(r) for r in ("0", "1", "-1e4*x", "x*x - x*x + a*a")]
        code = compile_rates(rates, names)
        s = (0.3, 0.1, 1e69, 0.2)
        with np.errstate(all="ignore"):
            want = _batch_midpoint(compile_numpy(rates, names),
                                   np.array(s), 1e-2)
        assert np.isfinite(want).all()
        assert same_bits(float_alone(code.midpoint_step, code.conserved)(
            s, 1e-2), want)


class TestCsv:
    def test_round_trips_through_loadtxt(self):
        sys = ham(n=1, m=0)
        p0 = small_point(sys, scale=0.01, seed=2)
        traj = integrate(sys, p0, 1.0,
                         IntegratorConfig(h=1e-2), store_every=20)
        text = traj.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "t,u_1,phi_1,x,y"
        data = np.loadtxt(text.split("\n"), delimiter=",", skiprows=1)
        assert data.shape == (len(traj), 1 + sys.dim)
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:], traj.states)


class TestJacobian:
    def test_vanishes_on_the_canonical_torus(self):
        # every partial of the field has a factor that is zero when all
        # non-angle slots vanish
        sys = ham(n=1, m=1)
        J = sys.jacobian([0.0, 2.2, 0.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(J)) == 0.0


class TestVariational:
    def test_volume_is_preserved(self):
        # the field Jacobian is traceless, so det M must stay 1
        sys = ham(n=1, m=1)
        p0 = small_point(sys, scale=0.1, seed=4)
        res = integrate_variational(sys, p0, 2.0, IntegratorConfig(h=1e-2))
        assert abs(np.linalg.det(res.matrix) - 1.0) < 1e-8

    def test_short_time_linearization(self):
        sys = ham(n=1, m=1)
        p0 = small_point(sys, scale=0.1, seed=6)
        t = 1e-3
        res = integrate_variational(sys, p0, t, IntegratorConfig(h=1e-4))
        expect = np.eye(sys.dim) + t * sys.jacobian(p0.coords)
        assert np.max(np.abs(res.matrix - expect)) < 1e-5

    def test_fd_scheme_agrees_with_exact(self):
        # the tangent matrix against central differences of the end
        # states of the flow, each a run of integrate
        sys = ham(n=1, m=0)
        p0 = small_point(sys, scale=0.1, seed=8)
        cfg = IntegratorConfig(h=1e-2)
        exact = integrate_variational(sys, p0, 0.5, cfg)

        def end_state(s):
            return integrate(sys, MixedPoint.of(sys.layout, s), 0.5,
                             cfg).final_point.coords

        fd = central_differences(end_state, p0.coords)
        assert np.max(np.abs(exact.matrix - fd)) < 1e-6
        assert np.max(np.abs(exact.end_point.coords
                             - end_state(p0.coords))) < 1e-9

    def test_identity_around_the_torus_orbit(self):
        # the Jacobian vanishes identically along the canonical orbit, so
        # the tangent flow over one full period stays at the identity
        sys = ham(n=1, m=1)
        p0 = MixedPoint.of(sys.layout, [0.0, 0.7, 0.0, 0.0, 0.0, 0.0])
        res = integrate_variational(sys, p0, 2 * math.pi,
                                    IntegratorConfig(h=1e-2))
        assert np.max(np.abs(res.matrix - np.eye(sys.dim))) < 1e-8

    def test_negative_time_rejected(self):
        sys = ham()
        with pytest.raises(InvalidValue):
            integrate_variational(sys, small_point(sys), -1.0)

    def test_only_a_system_accepted(self):
        # a field, or a field with a Jacobian, has no compiled tangent flow
        sys = ham()
        for other in (sys.field, types.SimpleNamespace(
                field=sys.field, jacobian=sys.jacobian)):
            with pytest.raises(InvalidValue):
                integrate_variational(other, small_point(sys), 1.0)

    def test_point_of_another_layout_rejected(self):
        compact = build_system(SystemParams(HAM_COMPACT, n=1, m=0,
                                            omega=(1.0,)))
        for sys in (ham(n=1, m=1), compact):
            with pytest.raises(LayoutMismatch):
                integrate_variational(sys, small_point(ham()), 1.0)


# ham-unique and ham-compact at n = 1, 2 and m = 0, 1, 2, rev-unique and
# rev-compact at l = 0, 1, and the control
TANGENT_GRID = [
    build_system(SystemParams(family, n=n, m=m,
                              omega=(1.0, math.sqrt(2.0))[:n]))
    for family in (HAM_UNIQUE, HAM_COMPACT) for n in (1, 2)
    for m in (0, 1, 2)] + [
    build_system(SystemParams(family, n=1, l=l, m=1, omega=(1.0,)))
    for family in (REV_UNIQUE, REV_COMPACT) for l in (0, 1)] + [
    build_control_system(omega=1.0)]


def scattered(sys, march):
    """A march of the tangent flow with its states in the full layout."""
    state, escaped, escape_time, steps, stored = march
    return (full_state(sys, state), escaped, escape_time, steps,
            [(t, full_state(sys, s)) for t, s in stored])


class TestMovingTangent:
    """The tangent flow carries the entries of M that can move from the
    identity; the oracle's full_tangent carries all dim^2 of them, as the
    flow did before."""

    @pytest.mark.parametrize("sys, moving", [
        (ham(n=1, m=0), 9), (ham(n=1, m=1), 13), (ham(n=1, m=2), 17),
        (build_control_system(omega=1.0), 4),
        (build_system(SystemParams(REV_COMPACT, n=1, l=1, m=1,
                                   omega=(1.0,))), 3),
    ], ids=["ham-unique-m0", "ham-unique-m1", "ham-unique-m2", "control",
            "rev-compact"])
    def test_moving_counts(self, sys, moving):
        code = sys.compiled("tangent")
        assert len(code.moving) == moving
        assert len(_tangent_start(sys, np.zeros(sys.dim))) \
            == sys.dim + moving

    @pytest.mark.parametrize(
        "sys", TANGENT_GRID, ids=lambda s: f"{s.family}-n{s.params.n}"
        f"-m{s.params.m}" + ("" if s.params.l is None else f"-l{s.params.l}"))
    def test_steps_and_marches_match_the_full_tangent(self, sys):
        full = full_tangent(sys)
        full_step = float_alone(full.rk4_step, full.conserved)
        code = sys.compiled("tangent")
        step = float_alone(code.rk4_step, code.conserved)
        slot = sys.layout.slot_of("phi_1")
        rng = np.random.default_rng(7)
        big = np.finfo(float).max
        for special in (None, -0.0, math.pi, -math.pi, 1e150, math.nan):
            x = 0.3 * rng.uniform(-1.0, 1.0, sys.dim)
            if special is not None:
                x[rng.choice(sys.dim, 2, replace=False)] = special
            z = tuple(_tangent_start(sys, x).tolist())
            start = tuple(full_state(sys, z).tolist())
            for h in (1e-2, -1e-2):
                want = np.array(full_step(start, h))
                got = full_state(sys, step(z, h))
                # a term left out is J * +0.0, which is +-0.0 while the
                # step stays finite; past that, both steps escape
                if np.isfinite(want).all():
                    assert same_bits(got, want), special
                else:
                    assert not np.isfinite(got).all(), special
            # to the end, to an escape (phi_1 passes 4 before t = 8) and
            # to a section stop, as _first_return marches
            for cfg, t_end, stop in (
                    (IntegratorConfig(h=1e-2, escape_norm=big), 1.0, None),
                    (IntegratorConfig(h=5e-2, escape_norm=4.0), 10.0, None),
                    (IntegratorConfig(h=1e-2), 5.0, (slot, x[slot] + 0.3))):
                every = None if stop else 25
                got = _march(*_fixed_step(sys, cfg, z), t_end, cfg,
                             store_every=every, stop=stop)
                want = _march(partial(_run, full_step), start, t_end,
                              cfg, store_every=every, stop=stop)
                assert_same_march(scattered(sys, got), want)
                # the escape or the stop ends the march before its end
                if t_end > 1.0:
                    assert got[3] < round(t_end / cfg.h)

    def test_a_tangent_that_moves_no_entry_is_the_rates_flow(self):
        # nu = 0 leaves every rate constant, so no entry of M moves: the
        # tangent state is the state alone, which marches on the rates
        sys = control_system(0.0)
        assert sys.compiled("tangent").moving == ()
        p0 = MixedPoint.of(sys.layout, [0.3, 0.5, -0.2, 0.1])
        z = _tangent_start(sys, p0.coords)
        assert same_bits(z, p0.coords)
        assert integrators._compiled_for(sys, z) is sys.compiled()
        cfg = IntegratorConfig(h=1e-2)
        got = integrate_variational(sys, p0, 2.0, cfg)
        full = full_tangent(sys)
        want = _march(partial(_run, float_alone(full.rk4_step,
                                                full.conserved)),
                      tuple(full_state(sys, z).tolist()), 2.0,
                      replace(cfg, escape_norm=np.finfo(float).max))[0]
        assert same_bits(want[4:], np.eye(4).ravel())
        assert same_bits(got.matrix, np.eye(4))
        assert same_bits(got.end_point.coords,
                         MixedPoint.of(sys.layout, want[:4]).coords)
        assert got.n_steps == 200
        assert np.all(monodromy(sys).multipliers == 1.0)


class TestFlowInvolution:
    def test_backward_flow_conjugates_through_the_involution(self):
        # g o flow_t = flow_{-t} o g, checked on a bounded stretch
        sys = ham(n=1, m=1)
        p0 = small_point(sys, scale=0.05, seed=13)
        cfg = IntegratorConfig(method="adaptive", h=1e-2,
                               rel_tol=1e-10, abs_tol=1e-12)
        fwd = integrate(sys, p0, 5.0, cfg)
        g_end = sys.involution(fwd.final_point.coords)
        g_start = MixedPoint.of(sys.layout, sys.involution(p0.coords))
        back = integrate(sys, g_start, -5.0, cfg)
        dev = np.abs(back.final_point.coords
                     - MixedPoint.of(sys.layout, g_end).coords)
        assert np.max(dev) < 1e-6


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidValue):
            IntegratorConfig(method="euler")

    def test_bad_step_rejected(self):
        with pytest.raises(InvalidValue):
            IntegratorConfig(h=0.0)
        with pytest.raises(InvalidValue, match="store_every"):
            integrate(quad_field, MixedPoint.of(SCALAR, [0.1]), 1.0,
                      store_every=0)
