import math
import types

import numpy as np
import pytest
from catalog_oracle import tangent_field

from toruslab.analysis import _central_differences
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
    _fixed_step,
    _march,
    _rk4_step,
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
                         IntegratorConfig(method="rk4", h=1e-2,
                                          store_every=10))
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
        traj = integrate(sys, p0, 100.0, IntegratorConfig(h=1e-2,
                                                          store_every=100))
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
                             IntegratorConfig(method="midpoint", h=h,
                                              store_every=5))
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
        sys = build_control_system(omega=1.0, nu=1.0)
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
                                 3.0, IntegratorConfig(h=1e-2,
                                                       store_every=300))
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

            def numpy_code(s, *h):  # a batch marches slot-major
                calls.append(s.shape)
                return code(s, *h)
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

    def test_config_store_every_rejected(self):
        # a batch stores through its own store_every argument; a config
        # asking for storage would otherwise store nothing
        cfg = IntegratorConfig(store_every=10)
        for field, shape in ((ham(), (3, 4)), (ham(), (20, 4)),
                             (quad_field, (3, 1))):
            with pytest.raises(InvalidValue, match="store_every argument"):
                integrate_batch(field, np.zeros(shape), 1.0, cfg)

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
        # the march keeps its batch slot-major: cur and frozen are
        # (dim, rows); the reference is the row path
        sys = ham(n=1, m=1)
        states = np.random.default_rng(5).uniform(-2.0, 2.0, (64, sys.dim))
        cfg = IntegratorConfig(h=1e-2)
        ref = row_path(sys, states, 2.0, cfg)
        seen = {"cur": states.T, "drops": 0}

        def observe(k, t, cur, live, dropped):
            gone = ref.escape_times <= t  # nan for a row that never left
            if live is None:
                assert not gone.any()
            else:
                assert np.array_equal(live, np.flatnonzero(~gone))
            assert cur.shape == (sys.dim, (~gone).sum())
            now = np.flatnonzero(ref.escape_times == t)
            if dropped is None:
                assert len(now) == 0
            else:
                rows, frozen, keep = dropped
                assert np.array_equal(rows, now)
                # a dropped row keeps its state from before this step
                assert np.array_equal(frozen, seen["cur"][:, ~keep])
                assert np.array_equal(frozen, ref.final[rows].T)
                assert keep.sum() == cur.shape[1]
                seen["drops"] += 1
            seen["cur"] = cur

        final, escaped, _, n_steps, _ = _march(
            *_fixed_step(sys, cfg, states.T), 2.0, cfg, observe)
        assert seen["drops"] > 1
        assert np.array_equal(final, ref.final.T)
        assert n_steps == ref.n_steps

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
            got = rates.rk4_step(tuple(state.tolist()), h)
            assert same_bits(got, want)
            assert np.signbit(got[zero_slot]) == (h < 0)
            if not sys.is_hamiltonian:
                continue
            # the tangent step against the numpy tangent flow, stepped
            # alone and marched by the same loop as integrate_variational
            oracle = tangent_field(sys)
            z = np.concatenate([state, np.eye(sys.dim).ravel()])
            assert same_bits(tangent.rk4_step(tuple(z.tolist()), h),
                             _rk4_step(oracle, z, h))
            if h > 0:
                cfg = IntegratorConfig(h=h)
                got = integrate_variational(
                    sys, MixedPoint.of(sys.layout, state), 0.5, cfg)
                want = _march(*_fixed_step(oracle, cfg, z), 0.5, cfg)[0]
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


class TestCsv:
    def test_round_trips_through_loadtxt(self):
        sys = ham(n=1, m=0)
        p0 = small_point(sys, scale=0.01, seed=2)
        traj = integrate(sys, p0, 1.0,
                         IntegratorConfig(h=1e-2, store_every=20))
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

        fd = _central_differences(end_state, p0.coords)
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
        with pytest.raises(InvalidValue):
            IntegratorConfig(store_every=0)
