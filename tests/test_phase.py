import math

import numpy as np
import pytest
from catalog_oracle import in_modular_domain
from hypothesis import given, strategies as st

from toruslab.errors import InvalidValue, LayoutMismatch
from toruslab.phase import (
    TWO_PI,
    CoordinateLayout,
    MixedPoint,
    ModularDomain,
    component_distances,
    shortest_arcs,
    subdomain_of,
    torus_distance_batch,
    wrap_angle,
    wrap_angles,
)

# a little cylinder R x T^1 and a plane R^2 used throughout
CYL = CoordinateLayout(labels=("r", "theta"), angle_slots=frozenset({1}))
PLANE = CoordinateLayout(labels=("a", "b"), angle_slots=frozenset())


def test_wrap_angle_oracle_values():
    # hand-picked representatives, wrapped target interval is (-pi, pi]
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2)
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    # -pi maps to the +pi endpoint, the interval is half-open
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-15)


def test_wrap_angle_range_and_idempotence_bulk():
    rng = np.random.default_rng(7)
    thetas = rng.uniform(-100.0, 100.0, size=10_000)
    wrapped = np.array([wrap_angle(t) for t in thetas])
    assert np.all(wrapped > -math.pi)
    assert np.all(wrapped <= math.pi)
    rewrapped = np.array([wrap_angle(t) for t in wrapped])
    np.testing.assert_allclose(rewrapped, wrapped, rtol=0, atol=0)
    # wrapped value represents the same angle
    np.testing.assert_allclose(np.exp(1j * wrapped), np.exp(1j * thetas),
                               atol=1e-12)


@given(st.floats(-1e6, 1e6))
def test_wrap_angle_idempotent(theta):
    once = wrap_angle(theta)
    assert wrap_angle(once) == once


def test_wrap_angle_rejects_non_finite():
    with pytest.raises(InvalidValue):
        wrap_angle(math.inf)
    with pytest.raises(InvalidValue):
        wrap_angle(math.nan)


def test_wrap_angles_touches_only_masked_slots():
    vals = np.array([7.0, 3 * math.pi])
    out = wrap_angles(vals, CYL.angle_mask)
    assert out[0] == 7.0
    assert out[1] == pytest.approx(math.pi)


def test_mixed_point_wraps_on_construction():
    p = MixedPoint.of(CYL, [2.5, 5 * math.pi / 2])
    assert p[0] == 2.5
    assert p[1] == pytest.approx(math.pi / 2)


def test_mixed_point_validates():
    with pytest.raises(InvalidValue):
        MixedPoint.of(CYL, [1.0])
    with pytest.raises(InvalidValue):
        MixedPoint.of(CYL, [np.nan, 0.0])


def test_layout_validates():
    with pytest.raises(InvalidValue):
        CoordinateLayout(labels=("a", "a"), angle_slots=frozenset())
    with pytest.raises(InvalidValue):
        CoordinateLayout(labels=("a",), angle_slots=frozenset({3}))


def _distance(a, b):
    # torus_distance_batch on two single states
    return float(torus_distance_batch(a.layout, a.coords, b.coords))


def test_torus_distance_oracle_values():
    # pure real part
    a = MixedPoint.of(PLANE, [0.0, 0.0])
    b = MixedPoint.of(PLANE, [3.0, 4.0])
    assert _distance(a, b) == pytest.approx(5.0)
    # angular slot measures the short way around
    c = MixedPoint.of(CYL, [0.0, -math.pi + 0.1])
    d = MixedPoint.of(CYL, [0.0, math.pi - 0.1])
    assert _distance(c, d) == pytest.approx(0.2)
    # mixed: 3-4-5 again with a 3.0 arc (just under pi) as one leg
    e = MixedPoint.of(CYL, [4.0, 0.0])
    f = MixedPoint.of(CYL, [0.0, 3.0 - 2 * math.pi])
    assert _distance(e, f) == pytest.approx(5.0)


def test_torus_distance_metric_axioms_random():
    # 500 triples of wrapped states, as MixedPoint.of would make them
    rng = np.random.default_rng(11)
    pts = wrap_angles(rng.uniform(-8, 8, size=(500, 3, 2)), CYL.angle_mask)
    a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
    dab = torus_distance_batch(CYL, a, b)
    assert np.array_equal(dab, torus_distance_batch(CYL, b, a))
    assert np.all(torus_distance_batch(CYL, a, a) == 0.0)
    assert np.all(dab <= torus_distance_batch(CYL, a, c)
                  + torus_distance_batch(CYL, c, b) + 1e-12)


@given(st.floats(-30, 30), st.floats(-30, 30), st.integers(-4, 4))
def test_torus_distance_invariant_under_full_turns(t1, t2, k):
    a = MixedPoint.of(CYL, [0.0, t1])
    b = MixedPoint.of(CYL, [0.0, t2])
    b_shift = MixedPoint.of(CYL, [0.0, t2 + 2 * math.pi * k])
    assert _distance(a, b) == pytest.approx(_distance(a, b_shift), abs=1e-9)


def test_torus_distance_batch_matches_scalar():
    # a row's distance does not depend on the rows beside it or on
    # wrapping its angles first
    rng = np.random.default_rng(3)
    A = rng.uniform(-5, 5, size=(40, 2))
    B = rng.uniform(-5, 5, size=(40, 2))
    batch = torus_distance_batch(CYL, A, B)
    for i in range(40):
        d = _distance(MixedPoint.of(CYL, A[i]), MixedPoint.of(CYL, B[i]))
        assert batch[i] == pytest.approx(d)


# the differences where the wrap is easiest to get wrong: signed zeros,
# +-pi and +-2 pi and the floats either side of them, whole turns, and
# the non-finite values
_ARC_EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf] + [
    x for c in (math.pi, TWO_PI)
    for v in (c, -c)
    for x in (v, np.nextafter(v, math.inf), np.nextafter(v, -math.inf))
] + [k * TWO_PI for k in (-3, 2, 5, 1e6)]


def _remainder_wrap(d):
    return np.pi - np.remainder(np.pi - d, TWO_PI)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                  b.view(np.int64))


@given(st.lists(st.one_of(st.sampled_from(_ARC_EDGES), st.floats(),
                          st.floats(-20.0, 20.0)), max_size=40),
       st.booleans())
def test_shortest_arcs_is_the_remainder_wrap_bit_for_bit(values, in_range):
    # in_range keeps every pi - d inside [0, 2 pi], where the remainder is
    # skipped but at 2 pi, edges included: d = pi gives pi - d = 0, and
    # d = -pi gives 2 pi, which wraps to pi, not -pi
    d = np.array(values, dtype=float)
    if in_range:
        d = d[(np.pi - d >= 0.0) & (np.pi - d <= TWO_PI)]
    with np.errstate(invalid="ignore"):
        want = _remainder_wrap(d)
        got = shortest_arcs(d.copy())
    assert _same_bits(got, want)


def _neighbours(centre, count=60):
    """centre and the count floats on each side of it."""
    out, up, down = [centre], centre, centre
    for _ in range(count):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        out += [up, down]
    return out


def test_shortest_arcs_within_eight_turns_is_the_remainder_wrap():
    # within 8 turns, a = pi - d is wrapped as a - floor(a / 2 pi) * 2 pi:
    # the remainder's bits on either side of every whole turn of a and of
    # d and every half turn of d, at signed zeros and subnormals, and at
    # tiny negative a, where the remainder gives 2 pi itself. Each value
    # goes alone, then all those within 8 turns together; past them, or
    # with a nan or an inf, the array takes numpy's remainder
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, -1e-17]
    for k in range(-9, 10):
        for centre in (k * TWO_PI, k * math.pi, math.pi - k * TWO_PI):
            values += _neighbours(centre)
    for edge in (-8 * TWO_PI, 8 * TWO_PI):  # of a, then of d
        values += _neighbours(edge) + _neighbours(math.pi - edge)
    for k in (-13, -11, 11, 13):  # where k * 2 pi is inexact
        values += _neighbours(math.pi - k * TWO_PI)
    d = np.array(values)
    inside = np.abs(np.pi - d) <= 8 * TWO_PI
    assert inside.sum() > 3000 and (~inside).sum() > 100
    for v in values + [math.nan, math.inf, -math.inf]:
        with np.errstate(invalid="ignore"):
            want = _remainder_wrap(np.array([v]))
            got = shortest_arcs(np.array([v]))
        assert got.tobytes() == want.tobytes(), v
    for part in (d[inside], d, np.append(d[inside], math.nan)):
        want = _remainder_wrap(part)
        assert shortest_arcs(part.copy()).tobytes() == want.tobytes()
    # a tiny negative a: a + 2 pi rounds to 2 pi, as the remainder does
    assert shortest_arcs(np.array([np.nextafter(np.pi, 4.0)]))[0] == -np.pi


def test_shortest_arcs_of_the_half_turns():
    for d in ([math.pi], [-math.pi], [-math.pi, 0.5], [math.pi, -0.0]):
        got = shortest_arcs(np.array(d))
        assert _same_bits(got, _remainder_wrap(np.array(d)))
        assert got[0] == math.pi


def test_shortest_arcs_works_in_place_on_a_strided_view():
    d = np.random.default_rng(3).uniform(-10.0, 10.0, (5, 4, 7))
    d[1, 2, :2] = [-0.0, math.pi]
    want = _remainder_wrap(d[:, 2])
    view = d[:, 2]
    assert shortest_arcs(view) is view
    assert _same_bits(d[:, 2], want)
    d[:, 2] = np.random.default_rng(4).uniform(-math.pi, math.pi, (5, 7))
    want = _remainder_wrap(d[:, 2])
    assert _same_bits(shortest_arcs(d[:, 2]), want)


@given(st.lists(st.sampled_from(_ARC_EDGES + [0.5, -3.0, 7.0]),
                min_size=4, max_size=4))
def test_component_distances_wrap_bit_for_bit(values):
    a = np.array(values, dtype=float).reshape(2, 2)
    b = np.array([0.25, -0.0])
    with np.errstate(invalid="ignore"):
        want = np.subtract(a, b)
        want[..., 1] = _remainder_wrap(want[..., 1])
        got = component_distances(CYL, a, b)
    assert _same_bits(got, np.abs(want))


def test_modular_domain_membership_real_and_angular():
    dom = ModularDomain(intervals=((-1.0, 1.0), (-0.5, 0.5)))
    assert in_modular_domain(MixedPoint.of(CYL, [0.0, 0.2]), dom)
    assert not in_modular_domain(MixedPoint.of(CYL, [1.5, 0.0]), dom)
    assert not in_modular_domain(MixedPoint.of(CYL, [0.0, 0.7]), dom)
    # open at the boundary
    assert not in_modular_domain(MixedPoint.of(CYL, [1.0, 0.0]), dom)


def test_modular_domain_angular_slots_mod_2pi():
    dom = ModularDomain(intervals=(None, (-0.5, 0.5)))
    for k in range(-3, 4):
        p = MixedPoint.of(CYL, [123.0, 0.3 + 2 * math.pi * k])
        assert in_modular_domain(p, dom)
        q = MixedPoint.of(CYL, [123.0, 0.6 + 2 * math.pi * k])
        assert not in_modular_domain(q, dom)


def test_modular_domain_interval_straddling_pi():
    # (pi - 0.2, pi + 0.2) wraps across the seam
    dom = ModularDomain(intervals=(None, (math.pi - 0.2, math.pi + 0.2)))
    assert in_modular_domain(MixedPoint.of(CYL, [0, math.pi - 0.1]), dom)
    assert in_modular_domain(MixedPoint.of(CYL, [0, -math.pi + 0.1]), dom)
    assert not in_modular_domain(MixedPoint.of(CYL, [0, 0.0]), dom)


def test_modular_domain_validation():
    with pytest.raises(InvalidValue):
        ModularDomain(intervals=((2.0, 1.0),))
    wide = ModularDomain(intervals=(None, (0.0, 7.0)))
    with pytest.raises(InvalidValue):
        in_modular_domain(MixedPoint.of(CYL, [0, 0]), wide)
    short = ModularDomain(intervals=((0.0, 1.0),))
    with pytest.raises(LayoutMismatch):
        in_modular_domain(MixedPoint.of(CYL, [0, 0]), short)


def test_subdomain_of():
    outer = ModularDomain(intervals=((-2.0, 2.0), (-1.0, 1.0)))
    inner = ModularDomain(intervals=((-1.0, 1.0), (-0.5, 0.5)))
    assert subdomain_of(inner, outer, CYL)
    assert not subdomain_of(outer, inner, CYL)
    # unconstrained angular slot is the full circle
    free = ModularDomain(intervals=((-1.0, 1.0), None))
    assert not subdomain_of(free, outer, CYL)
    circle = ModularDomain(intervals=((-3.0, 3.0), None))
    assert subdomain_of(free, circle, CYL)
