import concurrent.futures
import math
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from catalog_oracle import (
    certificate_rate,
    control_system,
    fd_bracket_matrix,
    full_state,
    moving_state,
    squared_returns_every_slot,
    tangent_field,
)

from toruslab import analysis, integrators
from toruslab.analysis import (
    _sample_box,
    _SKIP_TOL,
    _survey_block,
    KroneckerReport,
    Section,
    bracket_matrix,
    circulation_period,
    find_fixed_point,
    integral_jacobian_rank,
    measure_frequencies,
    monodromy,
    poincare_map,
    reversibility_deviations,
    survey_uniqueness,
    verify_kronecker,
)
from toruslab.errors import (
    DegenerateOffset,
    DomainNotCertified,
    InsufficientData,
    InvalidParams,
    InvalidValue,
    LayoutMismatch,
    NoReturn,
    NotHamiltonian,
    TangentCrossing,
)
from toruslab.integrators import (
    IntegratorConfig,
    _rk4_step,
    integrate,
    integrate_batch,
    integrate_variational,
)
from toruslab.phase import (
    MixedPoint,
    ModularDomain,
    torus_distance_batch,
)
from toruslab.systems import (
    HAM_COMPACT,
    HAM_UNIQUE,
    REV_COMPACT,
    REV_UNIQUE,
    System,
    SystemParams,
    build_control_system,
    build_system,
    canonical_torus,
    delta_tori,
    isolation_domain,
    nearby_torus,
    torus_point,
)

SQRT2 = math.sqrt(2.0)


def make(family, n=1, m=0, l=None, omega=None):
    if omega is None:
        omega = (1.0,) * n
    if family in (REV_UNIQUE, REV_COMPACT) and l is None:
        l = 1
    return build_system(SystemParams(family, n=n, m=m, l=l, omega=omega))


ALL_FAMILIES = [
    make(HAM_UNIQUE, n=1, m=1),
    make(HAM_COMPACT, n=1, m=1),
    make(REV_UNIQUE, n=1, l=1, m=1),
    make(REV_COMPACT, n=1, l=1, m=1),
]


def small_point(sys, scale=0.05, seed=0):
    rng = np.random.default_rng(seed)
    return MixedPoint.of(sys.layout, scale * rng.uniform(-1, 1, sys.dim))


class TestInvariantDrift:
    def test_small_on_a_bounded_run(self):
        sys = make(HAM_UNIQUE, n=1, m=1)
        p0 = small_point(sys, scale=0.01, seed=1)
        traj = integrate(sys, p0, 10.0, IntegratorConfig(h=1e-2))
        vals = sys.integrals(traj.states)
        drifts = np.max(np.abs(vals - vals[0]), axis=0)
        assert np.all(drifts <= 1e-6)
        # the action integrals have identically zero time derivative, so
        # every RK4 stage contributes exactly nothing to them
        names = sys.integral_names
        for i, name in enumerate(names):
            if name.startswith("u_"):
                assert drifts[i] == 0.0


class TestPoissonBracket:
    def test_exact_matrix_vanishes_at_many_points(self):
        for sys in (make(HAM_UNIQUE, n=1, m=1),
                    make(HAM_COMPACT, n=2, m=1, omega=(1.0, SQRT2))):
            rng = np.random.default_rng(4)
            states = rng.uniform(-1.5, 1.5, (1000, sys.dim))
            B = bracket_matrix(sys, states)
            assert np.max(np.abs(B)) <= 1e-12

    def test_fd_matrix_vanishes_at_many_points(self):
        sys = make(HAM_UNIQUE, n=1, m=1)
        rng = np.random.default_rng(5)
        states = rng.uniform(-1.0, 1.0, (200, sys.dim))
        B = fd_bracket_matrix(sys, states)
        assert np.max(np.abs(B)) <= 1e-8

    def test_matrix_is_antisymmetric_bitwise(self):
        sys = make(HAM_COMPACT, n=1, m=1)
        rng = np.random.default_rng(6)
        states = rng.uniform(-2.0, 2.0, (50, sys.dim))
        B = bracket_matrix(sys, states)
        assert np.array_equal(B, -np.swapaxes(B, -1, -2))

    def test_reversible_family_rejected(self):
        sys = make(REV_COMPACT)
        with pytest.raises(NotHamiltonian):
            bracket_matrix(sys, np.zeros(sys.dim))


class TestIntegralRank:
    def test_full_rank_at_generic_points(self):
        cases = [(make(HAM_UNIQUE, n=1, m=1), 3),
                 (make(HAM_UNIQUE, n=1, m=0), 2),
                 (make(HAM_UNIQUE, n=2, m=1, omega=(1.0, SQRT2)), 4)]
        for sys, expected in cases:
            p = small_point(sys, scale=0.5, seed=7)
            assert integral_jacobian_rank(sys, p) == expected

    def test_degenerate_on_the_torus(self):
        sys = make(HAM_UNIQUE, n=1, m=1)
        p = torus_point(canonical_torus(sys), [1.1])
        assert integral_jacobian_rank(sys, p) <= 1

    def test_reversible_family_rejected(self):
        sys = make(REV_UNIQUE)
        with pytest.raises(NotHamiltonian):
            integral_jacobian_rank(sys, small_point(sys))

    def test_point_of_another_layout_rejected(self):
        # a 6-slot point once gave rank 2 from its first 4 slots, and so
        # did a 4-slot point of other labels
        sys = make(HAM_UNIQUE, n=1, m=0)
        for other in (make(HAM_UNIQUE, n=1, m=1), make(REV_UNIQUE)):
            with pytest.raises(LayoutMismatch):
                integral_jacobian_rank(sys, small_point(other, scale=0.5))


class TestKronecker:
    def test_canonical_torus_all_families(self):
        for sys in ALL_FAMILIES:
            rep = verify_kronecker(sys, canonical_torus(sys), horizon=100.0)
            assert rep.passed, sys.family
            assert rep.max_pinned_dev <= 1e-10
            assert rep.max_angle_dev <= 1e-8

    def test_flipped_delta_torus(self):
        sys = make(HAM_COMPACT, n=1, m=0)
        specs = delta_tori(sys)
        all_pi = [s for s in specs
                  if all(v == math.pi for _, v in s.pinned)]
        assert len(all_pi) == 1
        spec = all_pi[0]
        assert spec.frequency == (-1.0,)
        rep = verify_kronecker(sys, spec, horizon=100.0)
        assert rep.passed

    def test_non_invariant_pin_fails(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        base = canonical_torus(sys)
        ix = sys.layout.slot_of("x")
        pinned = tuple((s, 0.3 if s == ix else v) for s, v in base.pinned)
        fake = KroneckerReport  # appease linters; replaced below
        from toruslab.systems import TorusSpec
        fake = TorusSpec(layout=base.layout, pinned=pinned,
                         free_angles=base.free_angles,
                         frequency=base.frequency)
        rep = verify_kronecker(sys, fake, horizon=4.0)
        assert not rep.passed
        assert rep.max_pinned_dev > 0.1

    def test_nearby_spec_rejected(self):
        sys = make(HAM_COMPACT, n=1, m=0)
        spec = nearby_torus(sys, (0.5,))
        with pytest.raises(InvalidValue):
            verify_kronecker(sys, spec)

    def test_spec_of_another_layout_rejected(self):
        # a rev-unique torus once marched on ham-unique and escaped
        sys = make(HAM_UNIQUE, n=1, m=0)
        other = canonical_torus(make(REV_UNIQUE, n=1, l=1, m=1))
        for spec in (other, [canonical_torus(sys), other]):
            with pytest.raises(LayoutMismatch):
                verify_kronecker(sys, spec)


def _return_linearization(sys, sec, p):
    # the return map's Jacobian over every slot but the section angle,
    # from one tangent run of an orbit that returns within 100
    slots = [i for i in range(sys.dim) if i != sec.slot]
    _, DP = analysis._return_jacobian(sys, sec, p.coords, 100.0)
    return DP[np.ix_(slots, slots)]


class TestPoincare:
    def test_canonical_orbit_is_a_fixed_point(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        p0 = torus_point(canonical_torus(sys), [0.0])
        res = poincare_map(sys, sec, p0)
        assert abs(res.time - 2 * math.pi) < 1e-8
        assert res.point["phi_1"] == 0.0
        for lab in ("u_1", "x", "y"):
            assert res.point[lab] == 0.0

    def test_off_torus_crossing_gains_height(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        p0 = MixedPoint.of(sys.layout, [0.0, 0.0, 0.01, 0.01])
        res = poincare_map(sys, sec, p0)
        assert res.point["y"] > 0.01

    def test_circulation_crossing_time_matches_oracle(self):
        sys = make(HAM_COMPACT, n=1, m=0)
        spec = nearby_torus(sys, (math.pi / 2,))
        p0 = torus_point(spec, [0.3, 0.0])
        sec = Section(slot=sys.layout.slot_of("y"), value=0.0)
        res = poincare_map(sys, sec, p0)
        assert abs(res.time - circulation_period(1.0)) < 1e-6

    def test_crossing_on_the_first_step_lands_from_the_start(self):
        # phi_1 starts 0.001 short of the section and advances near 1: the
        # first step of 0.01 crosses, and Henon's step starts from the
        # start state at t = 0
        sys = make(HAM_UNIQUE, n=1, m=0)
        slot = sys.layout.slot_of("phi_1")
        p0 = MixedPoint.of(sys.layout, [0.01, -0.001, 0.02, -0.03])
        res = poincare_map(sys, Section(slot=slot, value=0.0), p0)
        rates = sys.compiled().field

        def per_angle(v):
            r = np.array(rates(tuple(v[:-1].tolist())))
            return np.append(r, 1.0) / r[slot]

        want = _rk4_step(per_angle, np.append(p0.coords, 0.0), 0.001)
        assert 0.0 < res.time == want[-1] < 0.01
        want[slot] = 0.0
        assert np.array_equal(res.point.coords, want[:-1])

    def test_wrong_direction_never_returns(self):
        # phi falls at omega = -1, so an increasing crossing never comes
        sys = make(REV_UNIQUE, n=1, l=1, m=0, omega=(-1.0,))
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        p0 = torus_point(canonical_torus(sys), [0.5])
        with pytest.raises(NoReturn):
            poincare_map(sys, sec, p0, horizon=10.0)

    def test_non_angular_slot_rejected(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        with pytest.raises(InvalidValue):
            poincare_map(sys, Section(slot=sys.layout.slot_of("x"),
                                      value=0.0),
                         small_point(sys))

    def test_tangent_crossing_detected(self):
        # phi_1 advances at the rotation frequency 5e-9, below the 1e-8
        # at which a crossing counts as tangent
        sys = build_control_system(omega=5e-9)
        p0 = MixedPoint.of(sys.layout, [0.0, -2e-11, 0.0, 0.0])
        with pytest.raises(TangentCrossing, match="angular rate 5e-09"):
            poincare_map(sys, Section(slot=1, value=0.0), p0, horizon=1.0)

    def test_only_a_system_accepted(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        p0 = torus_point(canonical_torus(sys), [0.0])
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        for other in (sys.field, SimpleNamespace(layout=sys.layout,
                                                 field=sys.field)):
            with pytest.raises(InvalidValue, match="System"):
                poincare_map(other, sec, p0)

    def test_point_of_another_layout_rejected(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        p0 = torus_point(canonical_torus(make(HAM_UNIQUE, n=1, m=1)), [0.0])
        with pytest.raises(LayoutMismatch):
            poincare_map(sys, sec, p0)

    def test_linearization_matches_variational_matrix(self):
        # on the canonical orbit the tangent flow is the identity, so the
        # return-map Jacobian must be too
        sys = make(HAM_UNIQUE, n=1, m=0)
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        p0 = torus_point(canonical_torus(sys), [0.0])
        J = _return_linearization(sys, sec, p0)
        assert J.shape == (3, 3)
        assert np.max(np.abs(J - np.eye(3))) < 1e-4

    @pytest.mark.parametrize("sys, coords", [
        (build_control_system(omega=1.0), [0.7, 0.2, 0.3, -0.2]),
        (make(HAM_COMPACT, n=1, m=1), [0.2, 0.3, 0.1, -0.1, 0.1, 0.05]),
    ], ids=["control", "ham-compact"])
    def test_return_jacobian_matches_central_differences(self, sys, coords):
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        p = MixedPoint.of(sys.layout, coords)
        J = _return_linearization(sys, sec, p)
        slots = [i for i in range(sys.dim) if i != sec.slot]
        step = 1e-6
        fd = np.empty_like(J)
        for j, slot in enumerate(slots):
            e = step * np.eye(sys.dim)[slot]
            up = poincare_map(sys, sec, MixedPoint.of(p.layout, p.coords + e))
            dn = poincare_map(sys, sec, MixedPoint.of(p.layout, p.coords - e))
            # ham-compact wraps every slot, so wrap the differences too
            diff = up.point.coords[slots] - dn.point.coords[slots]
            fd[:, j] = (diff + math.pi) % (2 * math.pi) - math.pi
        fd /= 2 * step
        assert np.max(np.abs(J - fd)) < 1e-6


class TestFixedPoint:
    def test_origin_found_with_degenerate_linearization(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        guess = torus_point(canonical_torus(sys), [0.0])
        res = find_fixed_point(sys, sec, guess, energy=0.0)
        assert res.status == "found"
        assert res.singular
        assert res.residual <= 1e-9
        for lab in ("u_1", "x", "y"):
            assert abs(res.point[lab]) <= 1e-9

    def test_no_orbit_off_the_zero_level(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        guess = torus_point(canonical_torus(sys), [0.0])
        res = find_fixed_point(sys, sec, guess, energy=0.1)
        assert res.status == "not-found"

    def test_control_converges_cleanly(self):
        sys = build_control_system(omega=1.0)
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        guess = MixedPoint.of(sys.layout, [0.0, 0.0, 0.3, -0.2])
        res = find_fixed_point(sys, sec, guess, energy=0.7)
        assert res.status == "found"
        assert not res.singular
        assert res.iterations <= 6
        assert abs(res.point["x"]) < 1e-7
        assert abs(res.point["y"]) < 1e-7
        assert abs(res.point["u_1"] - 0.7) < 1e-9

    def test_compact_orbit_off_the_zero_level(self):
        # u follows z along the energy level, so Newton converges only
        # when its matrix carries the coupling DP[z,u] (x) H_z / H_u
        sys = make(HAM_COMPACT, n=1, m=0)
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        guess = MixedPoint.of(sys.layout, [0.0, 0.0, 0.1, 0.1])
        res = find_fixed_point(sys, sec, guess, energy=0.2)
        assert res.residual <= 1e-6

    def test_preconditions(self):
        rev = make(REV_UNIQUE)
        with pytest.raises(NotHamiltonian):
            find_fixed_point(rev, Section(slot=0, value=0.0),
                             small_point(rev))
        two = make(HAM_UNIQUE, n=2, m=0, omega=(1.0, SQRT2))
        with pytest.raises(InvalidValue):
            find_fixed_point(two, Section(slot=2, value=0.0),
                             small_point(two))

    def test_guess_of_another_layout_rejected(self):
        # a 6-slot (m=1) guess once ran on slots 0, 2 and 3 and was found
        sys = make(HAM_UNIQUE, n=1, m=0)
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        guess = torus_point(canonical_torus(make(HAM_UNIQUE, n=1, m=1)),
                            [0.0])
        with pytest.raises(LayoutMismatch):
            find_fixed_point(sys, sec, guess)


def _compiled_and_numpy_tangent(monkeypatch, run):
    """run() on the compiled tangent flow, where the numpy Jacobian must
    not be called, then on the numpy tangent step marched in its place:
    over the full matrix, from and to the compiled flow's state, the
    state plus the moving entries of M."""
    def jacobian(self, state):
        raise AssertionError("numpy jacobian called")

    monkeypatch.setattr(System, "jacobian", jacobian)
    got = run()
    monkeypatch.undo()
    compiled = System.compiled

    def numpy_tangent(self, kind="rates"):
        code = compiled(self, kind)
        if kind != "tangent":
            return code
        f = tangent_field(self)

        def field(s):
            return tuple(moving_state(self, f(full_state(self, s))))

        def rk4_step(s, h, first, rest):  # the numpy flow reads no terms
            return tuple(moving_state(
                self, _rk4_step(f, full_state(self, s), h)))

        return replace(code, field=field, rk4_step=rk4_step)

    monkeypatch.setattr(System, "compiled", numpy_tangent)
    return got, run()


class TestCompiledTangent:
    def test_variational_run(self, monkeypatch):
        sys = make(HAM_COMPACT, n=1, m=1)
        p0 = small_point(sys, scale=0.3, seed=4)
        got, want = _compiled_and_numpy_tangent(
            monkeypatch, lambda: integrate_variational(
                sys, p0, 2.0, IntegratorConfig(h=1e-2)))
        assert got.n_steps == want.n_steps == 200
        assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12
        assert np.max(np.abs(got.end_point.coords
                             - want.end_point.coords)) <= 1e-12

    @pytest.mark.parametrize("sys", [
        make(HAM_UNIQUE, n=1, m=1), build_control_system(omega=1.0),
    ], ids=["ham-unique", "control"])
    def test_monodromy(self, monkeypatch, sys):
        # the tangent flow over one period, as monodromy marches it, from
        # a point off the canonical orbit, where M moves from I
        point = small_point(sys, scale=0.2, seed=5)
        got, want = _compiled_and_numpy_tangent(
            monkeypatch, lambda: integrate_variational(
                sys, point, 2 * math.pi, IntegratorConfig(h=1e-2)))
        assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12

    @pytest.mark.parametrize("sys, coords, energy", [
        (build_control_system(omega=1.0), [0.0, 0.0, 0.3, -0.2],
         0.7),
        (make(HAM_COMPACT, n=1, m=0), [0.0, 0.0, 0.1, 0.1], 0.2),
    ], ids=["control", "ham-compact"])
    def test_fixed_point_search(self, monkeypatch, sys, coords, energy):
        sec = Section(slot=sys.layout.slot_of("phi_1"), value=0.0)
        guess = MixedPoint.of(sys.layout, coords)
        got, want = _compiled_and_numpy_tangent(
            monkeypatch, lambda: find_fixed_point(sys, sec, guess,
                                                  energy=energy))
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert abs(got.residual - want.residual) <= 1e-12
        if want.point is not None:
            assert np.max(np.abs(got.point.coords
                                 - want.point.coords)) <= 1e-12


class TestMonodromy:
    def test_all_multipliers_one_on_canonical_orbits(self):
        for sys in (make(HAM_UNIQUE, n=1, m=1),
                    make(HAM_UNIQUE, n=1, m=0),
                    make(HAM_COMPACT, n=1, m=1)):
            res = monodromy(sys)
            assert len(res.multipliers) == sys.dim
            assert np.max(np.abs(res.multipliers - 1.0)) < 1e-6
            assert np.max(res.residuals) < 1e-8

    def test_control_has_rotating_pair(self):
        nu = 0.3
        sys = build_control_system(omega=1.0)
        res = monodromy(sys)
        target = np.exp(1j * nu * 2 * math.pi)
        mults = sorted(res.multipliers, key=lambda z: z.imag)
        assert abs(mults[0] - target.conjugate()) < 1e-6
        assert abs(mults[-1] - target) < 1e-6
        ones = [z for z in mults if abs(z.imag) < 1e-8]
        assert len(ones) == 2
        assert all(abs(z - 1.0) < 1e-6 for z in ones)

    def test_multipliers_closed_under_reciprocal(self):
        for sys in (make(HAM_UNIQUE, n=1, m=1),
                    control_system(0.45)):
            res = monodromy(sys)
            for lam in res.multipliers:
                recips = np.abs(res.multipliers - 1.0 / lam)
                assert recips.min() < 1e-6

    def test_requires_single_angle(self):
        sys = make(HAM_UNIQUE, n=2, m=0, omega=(1.0, SQRT2))
        with pytest.raises(InvalidValue):
            monodromy(sys)


class TestFrequencies:
    def test_linear_flow_measures_exactly(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        p0 = torus_point(canonical_torus(sys), [0.3])
        traj = integrate(sys, p0, 100.0,
                         IntegratorConfig(h=1e-2), store_every=10)
        meas = measure_frequencies(traj)
        assert meas.circulating.tolist() == [True]
        assert abs(meas.values[0] - 1.0) < 1e-6
        assert meas.residual_rms[0] < 1e-8

    def test_circulating_offset_torus(self):
        sys = make(HAM_COMPACT, n=1, m=0)
        spec = nearby_torus(sys, (math.pi / 2,))
        p0 = torus_point(spec, [0.5, 0.0])
        traj = integrate(sys, p0, 800.0,
                         IntegratorConfig(h=1e-2), store_every=10)
        meas = measure_frequencies(traj, slots=("phi_1", "y"))
        # phi freezes at this offset (cos(pi/2) = 0) while y circulates
        assert meas.circulating.tolist() == [False, True]
        assert meas.values[0] == 0.0
        assert abs(meas.values[1] - SQRT2) < 1e-4

    def test_intermediate_circulation_is_refused(self):
        sys = make(HAM_COMPACT, n=1, m=0)
        spec = nearby_torus(sys, (math.pi / 2,))
        p0 = torus_point(spec, [0.5, 0.0])
        traj = integrate(sys, p0, 30.0,
                         IntegratorConfig(h=1e-2), store_every=10)
        with pytest.raises(InsufficientData):
            measure_frequencies(traj, slots=("y",))

    def test_short_trajectory_refused(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        p0 = torus_point(canonical_torus(sys), [0.0])
        traj = integrate(sys, p0, 0.05, IntegratorConfig(h=1e-2))
        with pytest.raises(InsufficientData):
            measure_frequencies(traj)


class TestCirculationOracle:
    def test_matches_closed_form(self):
        for zeta in (1e-4, 0.1, 0.25, 1.0, 4.0, 100.0):
            period = circulation_period(zeta)
            closed = 2 * math.pi / math.sqrt(zeta * (zeta + 1.0))
            assert abs(period - closed) < 1e-8

    def test_reference_values(self):
        assert abs(circulation_period(1.0) - 4.442882938158366) < 1e-9
        assert abs(circulation_period(0.25)
                   - 2 * math.pi / math.sqrt(0.3125)) < 1e-8

    def test_large_zeta_asymptotics(self):
        zeta = 1e3
        assert abs(zeta * circulation_period(zeta) / (2 * math.pi)
                   - 1.0) < 0.01

    def test_degenerate_offset(self):
        with pytest.raises(DegenerateOffset):
            circulation_period(0.0)
        with pytest.raises(DegenerateOffset):
            circulation_period(-1.0)


class TestReversibility:
    def test_all_families_conjugate(self):
        for sys in ALL_FAMILIES:
            p = small_point(sys, scale=0.05, seed=11)
            dev, = reversibility_deviations(sys, p.coords[None], t=5.0)
            assert dev <= 1e-6, sys.family

    def test_symmetric_point_gives_symmetric_orbit(self):
        sys = make(HAM_UNIQUE, n=1, m=1)
        coords = np.zeros(sys.dim)
        coords[sys.layout.slot_of("u_1")] = 0.05
        coords[sys.layout.slot_of("x")] = 0.02
        coords[sys.layout.slot_of("p_1")] = 0.03
        # the point is fixed by the involution, so both sides of the
        # conjugacy run along the same symmetric orbit
        dev, = reversibility_deviations(sys, coords[None], t=3.0)
        assert dev <= 1e-6

    def test_damped_field_fails(self):
        sys = make(REV_UNIQUE, n=1, l=1, m=1)
        # a term 0.3*y in the y rate is odd under y -> -y, which destroys
        # the conjugacy even though the rest of the rate survives it
        damped = replace(sys, rates_source=tuple(
            f"{rate} + 0.3*y" if label == "y" else rate
            for label, rate in zip(sys.layout.labels, sys.rates_source)))
        pts = np.array([[0.1, 0.1, 0.1, 0.1]])
        assert reversibility_deviations(sys, pts, t=2.0)[0] <= 1e-6
        dev, = reversibility_deviations(damped, pts, t=2.0)
        assert 1e-3 < dev < math.inf

    def test_batch_matches_single_and_flags_escapes(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        pts = np.array([
            [0.01, 0.3, 0.02, -0.01],
            [0.02, -1.0, 0.0, 0.03],
            [0.8, 0.0, 0.2, 0.3],     # escapes inside t=5
        ])
        devs = reversibility_deviations(sys, pts, t=5.0)
        assert devs.shape == (3,)
        assert np.all(devs[:2] <= 1e-6)
        assert devs[2] == math.inf


class TestCompactCertificate:
    def test_rate_nonnegative_inside_isolation_domain(self):
        for fam, n, m, l in ((HAM_COMPACT, 1, 1, None),
                             (REV_COMPACT, 1, 1, 1)):
            sys = make(fam, n=n, m=m, l=l)
            dom = isolation_domain(sys)
            rng = np.random.default_rng(12)
            cols = []
            for slot in range(sys.dim):
                iv = dom.intervals[slot]
                lo, hi = iv if iv is not None else (-math.pi, math.pi)
                cols.append(rng.uniform(lo, hi, 100000))
            states = np.stack(cols, axis=1)
            rates = certificate_rate(sys, states)
            assert np.min(rates) >= 0.0
            # a random point is never on a torus, so the rate is
            # strictly positive everywhere in the draw
            assert np.min(rates) > 1e-12

    def test_rate_vanishes_on_tori(self):
        sys = make(HAM_COMPACT, n=1, m=1)
        for spec in delta_tori(sys):
            p = torus_point(spec, [0.7])
            # pi-pinned slots leave sin(pi)^2 ~ 1e-32 of float residue,
            # zero-pinned slots contribute exactly nothing
            rate = certificate_rate(sys, p.coords)
            assert rate <= 1e-30
            if all(v == 0.0 for _, v in spec.pinned):
                assert rate == 0.0


def _exit_times(sys, times, states):
    """The time of each row's first stored step outside ham-compact's
    certified domain |x|, |p_j| < pi/2, nan for a row that stays inside.

    states (steps, rows, slots) are stored on the grid times, from the
    start on; x and p cannot wrap before they leave, so wrapped states
    give the same first step as raw ones.
    """
    slots = [sys.layout.slot_of(lab) for lab in sys.layout.labels
             if lab == "x" or lab.startswith("p_")]
    out = (np.abs(states[1:, :, slots]) >= math.pi / 2).any(axis=2)
    return np.where(out.any(axis=0), times[1:][out.argmax(axis=0)],
                    math.nan)


class TestSurvey:
    def box(self, sys, half=1.0):
        iv = []
        for slot in range(sys.dim):
            if sys.slots.phi.start <= slot < sys.slots.phi.stop:
                iv.append(None)
            else:
                iv.append((-half, half))
        return ModularDomain(intervals=tuple(iv))

    def test_unbounded_family_has_no_candidates(self):
        sys = make(HAM_UNIQUE, n=1, m=1)
        rep = survey_uniqueness(sys, self.box(sys), samples=200, seed=7)
        assert rep.n_candidates == 0
        assert rep.candidate.shape == (200,) and not rep.candidate.any()
        assert rep.escaped.sum() > 0
        alive = ~rep.escaped & ~rep.skipped
        assert np.all(rep.gains[alive] > 1e-8)

    def test_compact_family_inside_isolation_domain(self):
        sys = make(HAM_COMPACT, n=1, m=0)
        rep = survey_uniqueness(sys, self.box(sys, half=1.2),
                                samples=200, seed=8)
        assert rep.n_candidates == 0

    def test_uncertified_domain_rejected(self):
        sys = make(HAM_COMPACT, n=1, m=0)
        iv = [None] * sys.dim
        iv[sys.layout.slot_of("x")] = (-2.0, 2.0)  # leaves |x| < pi/2
        iv[sys.layout.slot_of("u_1")] = (-1.0, 1.0)
        iv[sys.layout.slot_of("y")] = (-1.0, 1.0)
        with pytest.raises(DomainNotCertified):
            survey_uniqueness(sys, ModularDomain(intervals=tuple(iv)),
                              samples=10, seed=0)

    def test_unbounded_real_slot_rejected(self):
        sys = make(HAM_UNIQUE, n=1, m=0)
        iv = [None] * sys.dim
        with pytest.raises(InvalidValue):
            survey_uniqueness(sys, ModularDomain(intervals=tuple(iv)),
                              samples=10, seed=0)

    def test_deterministic_and_job_count_invariant(self):
        sys = make(REV_UNIQUE, n=1, l=1, m=0)
        box = self.box(sys)
        rep1 = survey_uniqueness(sys, box, samples=120, seed=3)
        rep2 = survey_uniqueness(sys, box, samples=120, seed=3)
        rep3 = survey_uniqueness(sys, box, samples=120, seed=3, jobs=2)
        assert np.array_equal(rep1.gains, rep2.gains, equal_nan=True)
        assert np.array_equal(rep1.gains, rep3.gains, equal_nan=True)
        assert np.array_equal(rep1.gaps, rep3.gaps, equal_nan=True)

    @pytest.mark.parametrize("samples, jobs, cpus, workers", [
        (40, 100_000, 3, 3), (40, 2, 3, 2), (5, 4, 8, 4)])
    def test_pool_starts_at_most_one_worker_per_block_and_cpu(
            self, monkeypatch, samples, jobs, cpus, workers):
        # a stand-in pool that records its size and its blocks and runs
        # each block inline
        started, blocks = [], []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                blocks.append(len(args[1]))
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(analysis.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        sys = make(REV_UNIQUE, n=1, l=1, m=0)
        kw = dict(samples=samples, seed=3, horizon=2.0)
        rep = survey_uniqueness(sys, self.box(sys), jobs=jobs, **kw)
        assert started == [workers]
        # one contiguous block per worker, of sizes a row apart at most
        assert len(blocks) == workers and sum(blocks) == samples
        assert max(blocks) - min(blocks) <= 1
        serial = survey_uniqueness(sys, self.box(sys), **kw)
        assert np.array_equal(rep.gains, serial.gains, equal_nan=True)
        assert np.array_equal(rep.gaps, serial.gaps, equal_nan=True)

    def test_gain_is_the_change_of_the_certificate(self):
        # march the field with the certificate's rate y' + sum(q') as an
        # extra slot, an independent integral of the same gain
        sys = make(HAM_COMPACT, n=1, m=1)
        dom = isolation_domain(sys)
        rep = survey_uniqueness(sys, dom, samples=40, seed=6)
        starts = _sample_box(sys.layout, dom, 6, 40)
        dim = sys.dim

        def with_rate(z):
            return np.concatenate(
                [sys.field(z[:, :dim]),
                 certificate_rate(sys, z[:, :dim])[:, None]], axis=1)

        res = integrate_batch(with_rate, np.concatenate(
            [starts, np.zeros((40, 1))], axis=1), 20.0,
            IntegratorConfig(h=1e-2), store_every=1)
        assert not (rep.escaped.any() or rep.skipped.any()
                    or res.escaped.any())
        # a row that left the domain is retired from its exit on: its
        # gain is not tested but infinite, and its later steps have no gap
        exits = _exit_times(sys, res.stored_times, res.stored_states)
        inside = np.isnan(exits)
        assert inside.any() and not inside.all()
        assert np.array_equal(rep.retired, ~inside)
        assert np.array_equal(rep.exit_t, exits, equal_nan=True)
        assert np.all(rep.gains[~inside] == math.inf)
        assert np.max(np.abs(rep.gains[inside]
                             - res.final[inside, dim])) <= 1e-12
        gaps = np.full(40, math.inf)
        for t, z in zip(res.stored_times, res.stored_states):
            if t >= 1.0:
                live = ~(exits <= t)
                gaps[live] = np.minimum(gaps[live], torus_distance_batch(
                    sys.layout, z[live, :dim], starts[live]))
        assert np.array_equal(rep.gaps, gaps)

    def test_sample_is_the_streams_row_at_every_sample_count(self):
        # every sample is drawn from one default_rng(seed) stream in C
        # order, so row i is the same for every sample count (and so for
        # every split of the rows into blocks); pin it to the bit, for
        # seeds of one to three entropy words, one of more words than
        # SeedSequence's pool (3^70) and a numpy integer
        hc, rc, hu = (make(HAM_COMPACT, n=1, m=1),
                      make(REV_COMPACT, n=1, l=1, m=1),
                      make(HAM_UNIQUE, n=1, m=1))
        cases = [(hc, isolation_domain(hc), 1), (rc, isolation_domain(rc), 2)]
        cases += [(hu, self.box(hu), seed)
                  for seed in (0, 42, 2**64 + 5, 3**70, np.int64(7))]
        for sys, dom, seed in cases:
            lows = np.array([-math.pi if iv is None else iv[0]
                             for iv in dom.intervals])
            highs = np.array([math.pi if iv is None else iv[1]
                              for iv in dom.intervals])
            full = _sample_box(sys.layout, dom, seed, 7000)
            assert np.array_equal(full, np.random.default_rng(seed).uniform(
                lows, highs, (7000, sys.dim))), seed
            assert np.all((lows <= full) & (full < highs))
            for n in (1, 7, 300, 4567):
                assert np.array_equal(
                    _sample_box(sys.layout, dom, seed, n), full[:n]), (seed, n)

    def _check_gaps(self, family, n, m, samples, half=1.0):
        # the survey keeps squared gaps on its live rows and roots their
        # minimum once; recompute them as the minimum over steps of the
        # rooted distance, leaving out each row's steps from its escape
        # or its exit from the domain on. The reference marches chunks of
        # 8 rows, which step row by row on the compiled floats, not
        # through the survey's numpy march
        sys = make(family, n=n, m=m, omega=(1.0, SQRT2)[:n])
        dom = self.box(sys, half) if family == HAM_UNIQUE \
            else isolation_domain(sys)
        rep = survey_uniqueness(sys, dom, samples=samples, seed=5)
        starts = _sample_box(sys.layout, dom, 5, samples)
        assert not rep.skipped.any()
        assert rep.escaped.any() == (family == HAM_UNIQUE)
        assert rep.retired.any() == (family == HAM_COMPACT)
        gaps = np.full(samples, math.inf)
        exits = np.full(samples, math.nan)
        for a in range(0, samples, 8):
            rows = slice(a, a + 8)
            res = integrate_batch(sys, starts[rows], 20.0,
                                  IntegratorConfig(h=1e-2), store_every=1)
            assert np.array_equal(rep.escaped[rows], res.escaped)
            if family == HAM_COMPACT:
                exits[rows] = _exit_times(sys, res.stored_times,
                                          res.stored_states)
            chunk = gaps[rows]
            for t, z in zip(res.stored_times, res.stored_states):
                live = ~(res.escape_times <= t) & ~(exits[rows] <= t)
                if t >= 1.0:
                    chunk[live] = np.minimum(chunk[live], torus_distance_batch(
                        sys.layout, z[live], starts[rows][live]))
        assert np.array_equal(rep.retired, ~np.isnan(exits))
        assert np.array_equal(rep.exit_t, exits, equal_nan=True)
        assert np.array_equal(rep.gaps, gaps)

    @pytest.mark.parametrize("family, n, m", [
        (HAM_UNIQUE, 1, 1), (HAM_COMPACT, 1, 1), (REV_UNIQUE, 1, 1),
        (REV_COMPACT, 1, 1), (HAM_COMPACT, 2, 2)],
        ids=["ham-unique", "ham-compact", "rev-unique", "rev-compact",
             "ham-compact-n2"])
    def test_gap_pass_over_the_moving_slots_keeps_every_bit(
            self, monkeypatch, family, n, m):
        # the pass leaves the zero-rate slots out and wraps without fmod;
        # the whole pass, every slot and numpy's remainder, gives the six
        # arrays of the report and the work counts to the bit. Blocks hold
        # one step of every row, so they are single steps until rows
        # drop, or the default, 16 steps at these rows; some starts hold
        # -0.0, pi or -pi in a zero-rate slot
        sys = make(family, n=n, m=m, omega=(1.0, SQRT2)[:n])
        dom = isolation_domain(sys) if sys.is_compact else self.box(sys)
        zero = sys.compiled("rk4_rows").zero
        assert zero
        rows = 60
        states = _sample_box(sys.layout, dom, 9, rows)
        for k, value in enumerate((-0.0, math.pi, -math.pi)):
            states[k::7, zero[k % len(zero)]] = value
        for cap, blocks in ((8 * sys.dim * rows, "single"),
                            (integrators._BLOCK_BYTES, "16")):
            monkeypatch.setattr(integrators, "_BLOCK_BYTES", cap)
            got, work = _survey_block(sys, states, dom, 5.0)
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_squared_returns",
                              squared_returns_every_slot)
                want, want_work = _survey_block(sys, states, dom, 5.0)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert work == want_work
            if blocks == "single":
                assert work["blocks"] > -(-work["steps"] // 16)
                # no row drops on rev-compact: every block is one step
                assert (family != REV_COMPACT
                        or work["blocks"] == work["steps"] == 500)
            else:
                assert work["blocks"] == -(-work["steps"] // 16)
        assert np.isfinite(got[1]).sum() > rows // 2  # rows past t_min

    def test_large_survey_stays_within_its_memory_model(self):
        # the model of _MAX_SURVEY_SLOTS' comment: about a dozen (dim,
        # rows) float arrays and one block of _BLOCK_BYTES. The system
        # compiles its rows step before the trace starts. The seed-42
        # survey of the benchmark marches in 143 blocks
        sys = make(HAM_UNIQUE, n=1, m=1)
        survey_uniqueness(sys, self.box(sys), samples=10, seed=42)
        rows = 10_000
        tracemalloc.start()
        try:
            rep = survey_uniqueness(sys, self.box(sys), samples=rows,
                                    seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.escaped.all()
        assert rep.telemetry["blocks"] == 143
        assert peak <= 12 * 8 * sys.dim * rows + integrators._BLOCK_BYTES

    @pytest.mark.parametrize("family", [HAM_UNIQUE, HAM_COMPACT])
    def test_gaps_are_the_closest_return_of_each_live_step(self, family):
        self._check_gaps(family, n=1, m=1, samples=200)

    @pytest.mark.parametrize("family", [HAM_UNIQUE, HAM_COMPACT])
    def test_gaps_of_ten_slots_sum_in_numpy_row_order(self, family):
        # from 8 slots on, numpy's sum along each state's row adds eight
        # interleaved partial sums, not left to right; the survey's sum
        # down the slots of its slot-major batch must round the same. The
        # ham-unique box is halved, so that rows live long enough for a
        # left-to-right sum to show in the last bit
        self._check_gaps(family, n=2, m=2, samples=48, half=0.5)

    def test_on_torus_samples_are_skipped(self):
        sys = make(HAM_COMPACT, n=1, m=0)
        iv = []
        for slot in range(sys.dim):
            if sys.slots.phi.start <= slot < sys.slots.phi.stop:
                iv.append(None)
            else:
                iv.append((-1e-9, 1e-9))
        rep = survey_uniqueness(sys, ModularDomain(intervals=tuple(iv)),
                                samples=30, seed=4)
        assert rep.skipped.all()
        assert rep.n_candidates == 0

    @pytest.mark.parametrize("family, drop_all", [
        (HAM_COMPACT, None), (HAM_UNIQUE, None), (HAM_COMPACT, "retire"),
        (HAM_UNIQUE, "escape")])
    def test_skipped_row_is_marched_and_reported_as_skipped(
            self, monkeypatch, family, drop_all):
        # row 5 lies within _SKIP_TOL of the torus; the other rows escape
        # or leave the domain around it. With drop_all every row, row 5
        # too, leaves the domain or escapes (past a norm of 1e-3) at its
        # first step, and row 5 still reads as skipped only
        sys = make(family, n=1, m=1)
        dom = isolation_domain(sys) if family == HAM_COMPACT \
            else self.box(sys)
        if drop_all == "retire":
            monkeypatch.setattr(analysis, "_domain_exit", lambda sys, box: (
                lambda block: np.ones(block.shape[::2], dtype=bool)))
        if drop_all == "escape":
            monkeypatch.setattr(analysis, "_SURVEY_STEP", IntegratorConfig(
                h=1e-2, escape_norm=1e-3))
        states = _sample_box(sys.layout, dom, 6, 40)
        off = [s for s in range(sys.dim)
               if not sys.slots.phi.start <= s < sys.slots.phi.stop]
        states[5, off] = 0.0
        states[5, off[0]] = _SKIP_TOL / 2
        got, work = _survey_block(sys, states, dom, 20.0)
        want, want_work = _survey_block(sys, np.delete(states, 5, axis=0),
                                        dom, 20.0)
        gains, gaps, escaped, skipped, retired, exit_t = got
        assert np.flatnonzero(skipped).tolist() == [5]
        assert np.isnan([gains[5], gaps[5], exit_t[5]]).all()
        assert not (escaped[5] or retired[5])
        assert (want[2] | want[4]).any()  # the other rows drop
        for a, b in zip(got, want):  # bit for bit
            assert np.delete(a, 5).tobytes() == b.tobytes()
        if drop_all is None:  # the skipped row's steps count, all 2000
            assert work["row_steps"] - want_work["row_steps"] \
                == work["steps"] == 2000

    def test_control_fixture_rejected(self):
        sys = build_control_system()
        with pytest.raises(InvalidParams):
            survey_uniqueness(sys, self.box(sys), samples=10, seed=0)

    def test_report_serialization(self):
        sys = make(REV_UNIQUE, n=1, l=1, m=0)
        rep = survey_uniqueness(sys, self.box(sys), samples=50, seed=9)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "index,gain,gap,escaped,skipped,retired,exit_t"
        assert len(lines) == 51

    @pytest.mark.parametrize("label, partner", [("x", "y"), ("p_1", "q_1")])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_row_is_retired_at_its_first_step_outside(self, label, partner,
                                                      sign):
        # x' = -2 sin(x) sin(y) cos(y), so at y = -pi/4 the row starts
        # 0.045 inside the edge |x| < pi/2 and moves outward at about 1
        # (p at q = -pi/4 likewise): still inside after 4 steps of 1e-2,
        # outside after the 5th, where it is retired
        sys = make(HAM_COMPACT, n=1, m=1)
        start = np.zeros(sys.dim)
        start[sys.layout.slot_of("x")] = start[
            sys.layout.slot_of("p_1")] = 0.3
        start[sys.layout.slot_of(label)] = sign * (math.pi / 2 - 0.045)
        start[sys.layout.slot_of(partner)] = -math.pi / 4
        box = ModularDomain(intervals=tuple(
            (c - 1e-9, c + 1e-9) for c in start))
        rep = survey_uniqueness(sys, box, samples=3, seed=0, horizon=2.0)
        res = integrate_batch(sys, _sample_box(sys.layout, box, 0, 3),
                              0.1, IntegratorConfig(h=1e-2), store_every=1)
        edge = np.abs(res.stored_states[:, :, sys.layout.slot_of(label)]) \
            >= math.pi / 2
        assert edge.T.tolist() == [[False] * 5 + [True] * 6] * 3
        assert rep.retired.all() and not rep.escaped.any()
        assert np.all(rep.exit_t == 5 * 0.01)
        assert np.all(rep.gains == math.inf)
        assert np.all(rep.gaps == math.inf)  # it left before t = 1
        assert rep.n_candidates == 0

    def test_narrow_box_retires_on_the_domain_not_the_box(self):
        # rows drawn from |x|, |p| < 1 that cross that edge live on until
        # they reach |x| or |p| = pi/2, if they do
        sys = make(HAM_COMPACT, n=1, m=1)
        box = self.box(sys, half=1.0)
        rep = survey_uniqueness(sys, box, samples=16, seed=2, horizon=5.0)
        starts = _sample_box(sys.layout, box, 2, 16)
        exits, left_box = np.full(16, math.nan), np.zeros(16, dtype=bool)
        for a in (0, 8):
            res = integrate_batch(sys, starts[a:a + 8], 5.0,
                                  IntegratorConfig(h=1e-2), store_every=1)
            exits[a:a + 8] = _exit_times(sys, res.stored_times,
                                         res.stored_states)
            left_box[a:a + 8] = (np.abs(res.stored_states[:, :, [
                sys.layout.slot_of("x"), sys.layout.slot_of("p_1")]])
                >= 1.0).any(axis=(0, 2))
        assert np.array_equal(rep.exit_t, exits, equal_nan=True)
        assert rep.retired.any()
        assert (left_box & ~rep.retired).any()

    @pytest.mark.parametrize("turns", [1, -1])
    def test_domain_copy_holds_the_box(self, turns):
        # the domain is read modulo 2 pi: a box a turn away in x is
        # certified by the copy of |x| < pi/2 a turn away, so its rows
        # leave at the same steps as those of the box itself
        sys = make(HAM_COMPACT, n=1, m=1)

        def survey(shift):
            iv = list(self.box(sys).intervals)
            iv[sys.layout.slot_of("x")] = (shift + 1.0, shift + 1.4)
            return survey_uniqueness(sys, ModularDomain(intervals=tuple(iv)),
                                     samples=20, seed=1, horizon=5.0)
        near, far = survey(0.0), survey(turns * 2 * math.pi)
        assert near.retired.any()
        assert np.array_equal(far.exit_t, near.exit_t, equal_nan=True)
