import itertools
import math
import pickle

import numpy as np
import pytest
from catalog_oracle import oracle_field, tangent_field

from toruslab.errors import (
    DegenerateOffset,
    InvalidParams,
    InvalidValue,
    LayoutMismatch,
    NotCompact,
    NotHamiltonian,
)
from toruslab.phase import MixedPoint, in_modular_domain
from toruslab.systems import (
    CONTROL,
    FAMILIES,
    HAM_COMPACT,
    HAM_UNIQUE,
    REV_COMPACT,
    REV_UNIQUE,
    SystemParams,
    _compiled,
    apply_involution,
    build_control_system,
    build_system,
    canonical_torus,
    delta_tori,
    eval_field,
    eval_hamiltonian,
    eval_integrals,
    isolation_domain,
    lyapunov_rate,
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


ALL_SYSTEMS = [
    make(HAM_UNIQUE, n=1, m=1),
    make(HAM_UNIQUE, n=2, m=0, omega=(1.0, SQRT2)),
    make(HAM_COMPACT, n=1, m=1),
    make(HAM_COMPACT, n=2, m=1, omega=(1.0, SQRT2)),
    make(REV_UNIQUE, n=1, l=1, m=1),
    make(REV_UNIQUE, n=0, l=0, m=0, omega=()),
    make(REV_COMPACT, n=1, l=1, m=1),
    make(REV_COMPACT, n=2, l=2, m=0, omega=(1.0, SQRT2)),
]


def rand_states(sys, count, seed=0, scale=1.2):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(count, sys.dim))


def fd_gradient(f, s, h=1e-6):
    g = np.zeros_like(s)
    for i in range(len(s)):
        e = np.zeros_like(s)
        e[i] = h
        g[i] = (f(s + e) - f(s - e)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(InvalidParams):
        SystemParams("nope", n=1, omega=(1.0,))
    with pytest.raises(InvalidParams):
        SystemParams(HAM_UNIQUE, n=0, omega=())
    with pytest.raises(InvalidParams):
        SystemParams(HAM_UNIQUE, n=1, m=-1, omega=(1.0,))
    with pytest.raises(InvalidParams):
        SystemParams(HAM_UNIQUE, n=1, l=1, omega=(1.0,))
    with pytest.raises(InvalidParams):
        SystemParams(REV_UNIQUE, n=1, omega=(1.0,))  # missing l
    with pytest.raises(InvalidParams):
        SystemParams(HAM_UNIQUE, n=2, omega=(1.0,))  # omega length
    with pytest.raises(InvalidParams):
        SystemParams(HAM_UNIQUE, n=1, omega=(math.nan,))
    # reversible families permit an empty angle block
    SystemParams(REV_UNIQUE, n=0, l=0, m=0, omega=())


def test_dimensions_and_counts():
    sys = make(HAM_UNIQUE, n=1, m=1)
    assert sys.dim == 6
    assert len(sys.layout.angle_slots) == 1
    assert sys.integral_names == ("H", "u_1", "cubic_1")

    rev = make(REV_UNIQUE, n=1, l=1, m=1)
    assert rev.dim == 4
    assert len(rev.layout.angle_slots) == 1
    assert rev.integral_names == ("v_1", "q_1")

    cpt = make(HAM_COMPACT, n=1, m=1)
    assert len(cpt.layout.angle_slots) == cpt.dim == 6

    assert make(HAM_UNIQUE, n=2, m=0, omega=(1, SQRT2)).layout.labels == \
        ("u_1", "u_2", "phi_1", "phi_2", "x", "y")
    assert rev.layout.labels == ("phi_1", "v_1", "y", "q_1")


# ---------------------------------------------------------------------------
# frozen evaluator oracles (worked through by hand)


def test_ham_unique_field_oracle():
    sys = make(HAM_UNIQUE, n=1, m=1)
    p = MixedPoint.of(sys.layout, [0.5, 0.0, 0.2, 0.3, 0.1, 0.4])
    rate = eval_field(sys, p)
    # order (u_1, phi_1, x, y, p_1, q_1)
    np.testing.assert_allclose(
        rate, [0.0, 1.2, -0.12, 0.38, -0.08, 0.17], rtol=0, atol=1e-15)


def test_ham_unique_hamiltonian_and_integrals_oracle():
    sys = make(HAM_UNIQUE, n=1, m=1)
    p = MixedPoint.of(sys.layout, [0.5, 0.0, 0.2, 0.3, 0.1, 0.4])
    assert eval_hamiltonian(sys, p) == pytest.approx(0.587, abs=1e-15)
    vals = eval_integrals(sys, p)
    np.testing.assert_allclose(
        vals, [0.587, 0.5, 0.001 / 3 + 0.016], rtol=0, atol=1e-15)
    # certificate rate equals the squared off-torus distance here
    assert lyapunov_rate(sys, p) == pytest.approx(0.55, abs=1e-15)


def test_ham_compact_field_oracle():
    sys = make(HAM_COMPACT, n=1, m=0)
    p = MixedPoint.of(sys.layout, [math.pi / 2, 0.0, 0.0, 0.0])
    rate = eval_field(sys, p)
    np.testing.assert_allclose(rate, [0.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_rev_unique_field_oracle():
    sys = make(REV_UNIQUE, n=1, l=1, m=1, omega=(SQRT2,))
    p = MixedPoint.of(sys.layout, [0.3, 0.7, -0.2, 0.5])
    rate = eval_field(sys, p)
    np.testing.assert_allclose(rate, [SQRT2, 0.0, 0.78, 0.0], atol=1e-15)
    with pytest.raises(NotHamiltonian):
        eval_hamiltonian(sys, p)


def test_field_matches_hand_written_oracle():
    for sys in ALL_SYSTEMS:
        states = rand_states(sys, 300, seed=11, scale=math.pi)
        dev = np.abs(sys.field(states) - oracle_field(sys)(states))
        assert np.max(dev) <= 1e-12, sys.family


def test_field_is_vectorized():
    for sys in ALL_SYSTEMS:
        S = rand_states(sys, 17, seed=5)
        batch = sys.field(S)
        assert batch.shape == S.shape
        for i in (0, 7, 16):
            np.testing.assert_allclose(batch[i], sys.field(S[i]), atol=1e-15)


# ---------------------------------------------------------------------------
# derivative consistency


def test_hamiltonian_field_matches_canonical_gradient():
    # pos-rate = +dH/dmom, mom-rate = -dH/dpos, checked by finite differences
    for sys in [make(HAM_UNIQUE, n=1, m=1), make(HAM_UNIQUE, n=2, m=0,
                                                 omega=(1, SQRT2)),
                make(HAM_COMPACT, n=1, m=1),
                make(HAM_COMPACT, n=2, m=1, omega=(1, SQRT2)),
                build_control_system()]:
        states = rand_states(sys, 250, seed=2)
        worst = 0.0
        for s in states:
            g = fd_gradient(lambda z: float(sys.hamiltonian(z)), s)
            expect = np.zeros(sys.dim)
            for pos, mom in sys.canonical_pairing:
                expect[pos] = g[mom]
                expect[mom] = -g[pos]
            worst = max(worst, float(np.max(np.abs(sys.field(s) - expect))))
        assert worst < 1e-6


def test_integral_gradients_match_fd():
    for sys in ALL_SYSTEMS + [build_control_system()]:
        states = rand_states(sys, 40, seed=3)
        exact = sys.integral_gradients(states)
        for k in range(len(sys.integral_names)):
            for i in (0, 13, 39):
                g = fd_gradient(lambda z: float(sys.integrals(z)[k]),
                                states[i])
                np.testing.assert_allclose(exact[i, k], g, atol=1e-6)


def test_integrals_conserved_along_field():
    # directional derivative <grad I, f> vanishes analytically; the field
    # and the gradients are derived from the same expressions, which makes
    # it vanish in floating point as well
    for sys in ALL_SYSTEMS + [build_control_system()]:
        states = rand_states(sys, 1000, seed=4)
        G = sys.integral_gradients(states)
        f = sys.field(states)
        dots = np.einsum("bkd,bd->bk", G, f)
        assert np.max(np.abs(dots)) <= 1e-12 if dots.size else True


def test_jacobian_matches_fd():
    for sys in ALL_SYSTEMS + [build_control_system()]:
        states = rand_states(sys, 6, seed=6)
        for s in states:
            J = sys.jacobian(s)
            for i in range(sys.dim):
                e = np.zeros(sys.dim)
                e[i] = 1e-6
                col = (sys.field(s + e) - sys.field(s - e)) / 2e-6
                np.testing.assert_allclose(J[:, i], col, atol=1e-6)


def test_compiled_tangent_matches_the_numpy_tangent_field():
    # real slots in [-1, 1], angles around the circle, M in [-1, 1]
    for sys in ALL_SYSTEMS + [build_control_system()]:
        rng = np.random.default_rng(12)
        dim = sys.dim
        z = rng.uniform(-1.0, 1.0, (256, dim + dim * dim))
        angles = np.flatnonzero(sys.layout.angle_mask)
        z[:, angles] = rng.uniform(-math.pi, math.pi, (256, len(angles)))
        want = tangent_field(sys)
        tangent = sys.compiled("tangent")
        got = np.array([tangent.field(tuple(row)) for row in z.tolist()])
        dev = np.abs(got - np.array([want(row) for row in z]))
        assert np.max(dev) <= 1e-15, sys.family


# ---------------------------------------------------------------------------
# involution


def test_involution_is_an_involution():
    for sys in ALL_SYSTEMS:
        for s in rand_states(sys, 20, seed=8):
            p = MixedPoint.of(sys.layout, s)
            q = apply_involution(sys, apply_involution(sys, p))
            np.testing.assert_allclose(q.coords, p.coords, atol=1e-15)


def test_field_anticommutes_with_involution():
    # Dg . f(p) = -f(g(p)) with g linear (diagonal signs)
    for sys in ALL_SYSTEMS + [build_control_system()]:
        states = rand_states(sys, 400, seed=9)
        lhs = sys.involution_signs * sys.field(states)
        rhs = -sys.field(sys.involution(states))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------------------
# tori


def test_canonical_torus_is_invariant_with_linear_flow():
    for sys in ALL_SYSTEMS:
        spec = canonical_torus(sys)
        n_free = len(spec.free_angles)
        assert spec.frequency == sys.params.omega
        rng = np.random.default_rng(10)
        for _ in range(4):
            ang = rng.uniform(-math.pi, math.pi, size=n_free)
            p = torus_point(spec, ang)
            rate = eval_field(sys, p)
            for slot, _ in spec.pinned:
                assert rate[slot] == 0.0
            for k, slot in enumerate(spec.free_angles):
                assert rate[slot] == pytest.approx(spec.frequency[k],
                                                   abs=1e-15)


def test_canonical_torus_sits_on_zero_energy():
    for sys in [make(HAM_UNIQUE, n=1, m=1), make(HAM_COMPACT, n=2, m=1,
                                                 omega=(1, SQRT2))]:
        spec = canonical_torus(sys)
        p = torus_point(spec, [0.4] * len(spec.free_angles))
        assert eval_hamiltonian(sys, p) == pytest.approx(0.0, abs=1e-15)


def test_degeneracy_of_integrals_at_torus():
    # dH = sum omega_i d(u_i-integral) on the torus; cubic gradients vanish
    for sys in [make(HAM_UNIQUE, n=2, m=1, omega=(1, SQRT2)),
                make(HAM_COMPACT, n=2, m=1, omega=(1, SQRT2))]:
        spec = canonical_torus(sys)
        p = torus_point(spec, [0.3, 1.1])
        G = sys.integral_gradients(p.coords)
        n = sys.params.n
        combo = sum(sys.params.omega[i] * G[1 + i] for i in range(n))
        np.testing.assert_allclose(G[0], combo, atol=1e-12)
        for j in range(sys.params.m):
            np.testing.assert_allclose(G[1 + n + j], 0.0, atol=1e-12)


def test_delta_tori_counts_and_invariance():
    sys = make(HAM_COMPACT, n=1, m=0)
    tori = delta_tori(sys)
    # one binary choice per pinned slot: u_1, x, y
    assert len(tori) == 2 ** 3
    assert tori[0].pinned == canonical_torus(sys).pinned
    assert len(delta_tori(make(HAM_COMPACT, n=1, m=1))) == 2 ** 5

    rev = make(REV_COMPACT, n=1, l=1, m=1)
    assert len(delta_tori(rev)) == 2 ** 3

    for spec in tori:
        p = torus_point(spec, [0.7])
        rate = eval_field(sys, p)
        for slot, _ in spec.pinned:
            assert abs(rate[slot]) < 1e-15
        # the phi rate is the stored signed frequency
        slot = spec.free_angles[0]
        assert rate[slot] == pytest.approx(spec.frequency[0], abs=1e-12)
        assert abs(spec.frequency[0]) == pytest.approx(1.0)


def test_delta_tori_sign_flip_on_pinned_u():
    sys = make(HAM_COMPACT, n=1, m=0)
    u_slot = sys.slots.u.start
    flipped = [t for t in delta_tori(sys)
               if dict(t.pinned)[u_slot] == math.pi]
    assert len(flipped) == 2 ** 2
    assert all(t.frequency == (-1.0,) for t in flipped)


def test_delta_tori_requires_compact():
    with pytest.raises(NotCompact):
        delta_tori(make(HAM_UNIQUE, n=1, m=0))
    with pytest.raises(NotCompact):
        delta_tori(make(REV_UNIQUE, n=1, l=0, m=0))


def test_rev_delta_tori_keep_frequency():
    rev = make(REV_COMPACT, n=2, l=2, m=0, omega=(1.0, SQRT2))
    for spec in delta_tori(rev):
        assert spec.frequency == (1.0, SQRT2)


# ---------------------------------------------------------------------------
# nearby tori


def test_nearby_torus_frozen_prediction():
    sys = make(HAM_COMPACT, n=2, m=0, omega=(1.0, SQRT2))
    spec = nearby_torus(sys, (math.pi / 6, 0.0))
    assert spec.zeta == pytest.approx(0.25)
    np.testing.assert_allclose(
        spec.predicted_frequency,
        [math.cos(math.pi / 6), SQRT2, math.sqrt(0.3125)], rtol=1e-15)
    # frozen decimal for the circulation rate at zeta = 1/4
    assert spec.predicted_frequency[-1] == pytest.approx(0.5590169943749475)


def test_nearby_torus_invariance():
    sys = make(HAM_COMPACT, n=1, m=1)
    spec = nearby_torus(sys, (math.pi / 2,))
    assert spec.zeta == pytest.approx(1.0)
    rng = np.random.default_rng(12)
    for _ in range(5):
        vals = rng.uniform(-math.pi, math.pi, size=len(spec.circulating))
        p = torus_point(spec, vals)
        rate = eval_field(sys, p)
        for slot, _ in spec.pinned:
            if slot in range(sys.slots.u.start, sys.slots.u.stop):
                continue  # u slots are pinned at the offset, rate 0 anyway
            assert abs(rate[slot]) <= 1e-12
        for slot, _ in spec.pinned:
            assert abs(rate[slot]) <= 1e-12

    rev = make(REV_COMPACT, n=1, l=2, m=1)
    rspec = nearby_torus(rev, (0.9, -0.4))
    assert rspec.zeta == pytest.approx(
        math.sin(0.9) ** 2 + math.sin(0.4) ** 2)
    p = torus_point(rspec, [0.2, 2.2])
    rate = eval_field(rev, p)
    for slot, _ in rspec.pinned:
        assert rate[slot] == 0.0


def test_nearby_torus_y_rate_on_the_torus():
    # on the nearby torus, y' = zeta + sin(y)^2
    sys = make(HAM_COMPACT, n=1, m=0)
    spec = nearby_torus(sys, (math.pi / 2,))
    for yv in (0.0, 0.5, -2.0):
        p = torus_point(spec, [0.3, yv])
        rate = eval_field(sys, p)
        assert rate[sys.slots.y] == pytest.approx(
            spec.zeta + math.sin(yv) ** 2, abs=1e-14)


def test_nearby_torus_degenerate_and_guards():
    sys = make(HAM_COMPACT, n=2, m=0, omega=(1, SQRT2))
    with pytest.raises(DegenerateOffset):
        nearby_torus(sys, (0.0, 0.0))
    with pytest.raises(DegenerateOffset):
        nearby_torus(sys, (math.pi, 0.0))
    with pytest.raises(InvalidValue):
        nearby_torus(sys, (0.5,))
    with pytest.raises(NotCompact):
        nearby_torus(make(HAM_UNIQUE, n=1, m=0), (0.5,))


# ---------------------------------------------------------------------------
# isolation domain and certificate


def test_isolation_domain_shape():
    sys = make(HAM_COMPACT, n=1, m=1)
    dom = isolation_domain(sys)
    assert dom.intervals[sys.slots.phi.start] is None
    assert dom.intervals[sys.slots.u.start] == (-math.pi, math.pi)
    assert dom.intervals[sys.slots.x] == (-math.pi / 2, math.pi / 2)
    assert dom.intervals[sys.slots.p.start] == (-math.pi / 2, math.pi / 2)
    assert dom.intervals[sys.slots.q.start] == (-math.pi, math.pi)
    with pytest.raises(NotCompact):
        isolation_domain(make(REV_UNIQUE, n=1, l=1, m=0))


def test_certificate_rate_nonnegative_on_isolation_domain():
    for sys in [make(HAM_COMPACT, n=1, m=1), make(REV_COMPACT, n=1, l=1,
                                                  m=1)]:
        dom = isolation_domain(sys)
        rng = np.random.default_rng(13)
        states = np.empty((2000, sys.dim))
        for slot in range(sys.dim):
            iv = dom.intervals[slot]
            lo, hi = iv if iv is not None else (-math.pi, math.pi)
            states[:, slot] = rng.uniform(lo, hi, size=2000)
        rates = sys.lyapunov_rate(states)
        assert np.min(rates) >= 0.0
        for s in states[:5]:
            assert in_modular_domain(MixedPoint.of(sys.layout, s), dom)


def test_certificate_rate_positive_off_torus_ham_unique():
    sys = make(HAM_UNIQUE, n=1, m=1)
    rng = np.random.default_rng(14)
    states = rng.uniform(-2, 2, size=(500, sys.dim))
    rates = sys.lyapunov_rate(states)
    nonang = [0, 2, 3, 4, 5]  # u, x, y, p, q
    norms2 = (states[:, nonang] ** 2).sum(axis=1)
    np.testing.assert_allclose(rates, norms2, atol=1e-12)


# ---------------------------------------------------------------------------
# misc


def test_torus_point_wraps_and_validates():
    sys = make(HAM_COMPACT, n=1, m=0)
    spec = canonical_torus(sys)
    p = torus_point(spec, [3 * math.pi])
    assert p[sys.slots.phi.start] == pytest.approx(math.pi)
    with pytest.raises(InvalidValue):
        torus_point(spec, [0.1, 0.2])


def test_layout_mismatch_guard():
    a = make(HAM_UNIQUE, n=1, m=0)      # dim 4, labels u/phi/x/y
    b = make(REV_UNIQUE, n=1, l=1, m=1)  # dim 4, labels phi/v/y/q
    p = MixedPoint.of(b.layout, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(LayoutMismatch):
        eval_field(a, p)


# every member the survey takes: the four families at n = 1, 2 and
# m = 0, 1, the reversible ones at l = 0, 1
SURVEY_MEMBERS = [
    make(family, n=n, m=m, l=l, omega=(1.0, SQRT2)[:n])
    for family, n, m in itertools.product(FAMILIES, (1, 2), (0, 1))
    for l in ((0, 1) if family in (REV_UNIQUE, REV_COMPACT) else (None,))]


@pytest.mark.parametrize("sys", SURVEY_MEMBERS, ids=lambda s: (
    f"{s.family}-n{s.params.n}-m{s.params.m}-l{s.params.l}"))
def test_pickled_system_keeps_its_texts_and_its_step(sys):
    # a survey's pool worker receives the System pickled
    clone = pickle.loads(pickle.dumps(sys))
    assert clone.params == sys.params
    assert clone.rates_source == sys.rates_source
    assert clone.integral_texts == sys.integral_texts
    assert clone.integral_names == sys.integral_names
    assert clone.layout == sys.layout and clone.slots == sys.slots
    assert clone.canonical_pairing == sys.canonical_pairing
    assert np.array_equal(clone.involution_signs, sys.involution_signs)
    assert not clone.involution_signs.flags.writeable
    states = np.random.default_rng(0).uniform(-1.0, 1.0, (sys.dim, 16))
    original = sys.compiled("rk4_rows")
    _compiled.cache_clear()  # the clone compiles its texts afresh
    step = clone.compiled("rk4_rows")
    assert step is not original
    assert np.array_equal(step(states.copy(), 1e-2),
                          original(states.copy(), 1e-2))


def test_control_system_basics():
    sys = build_control_system(omega=1.0, nu=0.3)
    assert sys.family == CONTROL
    p = MixedPoint.of(sys.layout, [0.2, 0.0, 0.5, -0.1])
    rate = eval_field(sys, p)
    np.testing.assert_allclose(rate, [0.0, 1.0, 0.03, 0.15], atol=1e-15)
    assert eval_hamiltonian(sys, p) == pytest.approx(
        0.2 + 0.5 * 0.3 * (0.25 + 0.01))
    with pytest.raises(InvalidParams):
        build_system(sys.params)
