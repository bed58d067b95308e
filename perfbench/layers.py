"""Fixed-size timings of single toruslab layers through the public API.

Each figure is the median over ``repeats`` timed batches. The sizes do not
depend on the workload or the seed, so these numbers compare one layer
across commits; which end-to-end metric each should move is listed in
``perfbench/README.md``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np


def _median_s(fn, repeats: int, inner: int = 1) -> float:
    """Median wall seconds of one ``fn()`` over ``repeats`` batches."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - t0) / inner)
    return statistics.median(samples)


class _Counting:
    """A callable that counts its calls, such as a field or return map."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.f(*args)


def measure(repeats: int, data_dir) -> dict[str, tuple[float, str]]:
    """Every layer metric by name, as ``(value, unit)``."""
    import toruslab.analysis as analysis
    from toruslab import (IntegratorConfig, MixedPoint, ModularDomain,
                          Section, SystemParams, build_system,
                          canonical_torus, find_fixed_point, integrate,
                          integrate_batch, integrate_variational,
                          isolation_domain, monodromy, poincare_map,
                          survey_uniqueness, torus_point, verify_kronecker)
    from toruslab.dsl import hamiltonian_vector_field, parse_hamiltonian_file
    from toruslab.phase import torus_distance_batch, wrap_angles
    from toruslab.svgplot import plot_svg

    out: dict[str, tuple[float, str]] = {}
    rng = np.random.default_rng(0)
    hc = build_system(SystemParams("ham-compact", n=1, m=1, omega=(1.0,)))
    hu = build_system(SystemParams("ham-unique", n=1, m=1, omega=(1.0,)))
    hu0 = build_system(SystemParams("ham-unique", n=1, m=0, omega=(1.0,)))
    dim = hc.dim
    state = np.array([0.1, 0.3, 0.05, 0.05, 0.05, 0.05])
    p0 = MixedPoint.of(hc.layout, state)
    # the survey evaluates the field on the state columns of a (B, dim+1)
    # array, so the batch here is a strided view of the same shape
    wide = rng.uniform(-0.5, 0.5, (4096, dim + 1))

    out["systems.field_b1_us"] = (
        1e6 * _median_s(lambda: hc.field(state), repeats, 500), "us")
    out["systems.jacobian_b1_us"] = (
        1e6 * _median_s(lambda: hc.jacobian(state), repeats, 500), "us")
    out["systems.field_row_ns_b4096"] = (
        1e9 / 4096 * _median_s(lambda: hc.field(wide[:, :dim]), repeats,
                               20), "ns")

    for method, t_end in (("rk4", 5.0), ("midpoint", 5.0),
                          ("adaptive", 50.0)):
        cfg = IntegratorConfig(method=method, h=1e-2)
        traj = integrate(hc, p0, t_end, cfg)
        secs = _median_s(lambda: integrate(hc, p0, t_end, cfg), repeats)
        out[f"integrators.{method}_step_us"] = (
            1e6 * secs / traj.n_steps, "us")
        counting = _Counting(hc.field)
        traj = integrate(counting, p0, t_end, cfg)
        out[f"integrators.field_evals_per_step.{method}"] = (
            counting.calls / traj.n_steps, "count")
        if method == "adaptive":
            out["integrators.adaptive_reject_ratio"] = (
                traj.n_rejected / (traj.n_steps + traj.n_rejected), "ratio")
    hu0_p = torus_point(canonical_torus(hu0), (0.0,))
    var_cfg = IntegratorConfig(h=1e-2)
    var = integrate_variational(hu0, hu0_p, 1.0, var_cfg)
    out["integrators.variational_step_us"] = (
        1e6 / var.n_steps * _median_s(
            lambda: integrate_variational(hu0, hu0_p, 1.0, var_cfg),
            repeats), "us")

    for rows, steps in ((3, 200), (100, 100), (4096, 10)):
        batch = 1e-3 * rng.uniform(-1.0, 1.0, (rows, dim))
        for method in ("rk4", "midpoint"):
            cfg = IntegratorConfig(method=method, h=1e-2)
            secs = _median_s(
                lambda: integrate_batch(hc, batch, steps * 1e-2, cfg,
                                        layout=hc.layout), repeats)
            out[f"integrators.batch_row_step_ns.b{rows}.{method}"] = (
                1e9 * secs / (rows * steps), "ns")
    # survey-box starts on ham-unique: rows escape and leave the batch
    box = rng.uniform(-1.0, 1.0, (4096, hu.dim))
    esc_steps = 100
    esc_cfg = IntegratorConfig(h=1e-2)
    esc = integrate_batch(hu, box, esc_steps * 1e-2, esc_cfg)
    if not esc.escaped.any():
        raise RuntimeError("escape-path batch lost no rows")
    out["integrators.batch_escape_row_step_ns"] = (
        1e9 / (4096 * esc_steps) * _median_s(
            lambda: integrate_batch(hu, box, esc_steps * 1e-2, esc_cfg),
            repeats), "ns")

    section = Section(slot=hu0.slots.phi.start, value=0.0)
    out["analysis.poincare_map_ms"] = (
        1e3 * _median_s(lambda: poincare_map(hu0, section, hu0_p), repeats),
        "ms")
    calls = _Counting(analysis.poincare_map)
    analysis.poincare_map = calls
    try:
        res = find_fixed_point(hu0, section, MixedPoint.of(
            hu0.layout, np.zeros(hu0.dim)), energy=0.0)
    finally:
        analysis.poincare_map = calls.f
    if res.status != "found":
        raise RuntimeError(f"fixed-point probe ended {res.status!r}")
    out["analysis.poincare_calls"] = (float(calls.calls), "count")
    torus = canonical_torus(hc)
    kron_cfg = IntegratorConfig(h=0.05)
    out["analysis.verify_kronecker_ms"] = (
        1e3 * _median_s(lambda: verify_kronecker(
            hc, torus, horizon=10.0, config=kron_cfg), repeats), "ms")
    phi = hu.slots.phi
    hu_box = ModularDomain(intervals=tuple(
        None if phi.start <= s < phi.stop else (-1.0, 1.0)
        for s in range(hu.dim)))
    for kind, system, domain, samples, horizon in (
            ("compact", hc, isolation_domain(hc), 256, 1.0),
            ("escape", hu, hu_box, 1024, 5.0)):
        secs = _median_s(lambda: survey_uniqueness(
            system, domain, samples=samples, seed=0, horizon=horizon),
            repeats)
        out[f"analysis.survey_sample_step_ns.{kind}"] = (
            1e9 * secs / (samples * round(horizon / 1e-2)), "ns")
    mono_cfg = IntegratorConfig(h=1e-2)
    out["analysis.monodromy_ms"] = (
        1e3 * _median_s(lambda: monodromy(hu0, config=mono_cfg), repeats),
        "ms")

    a = rng.uniform(-4.0, 4.0, (2500, dim))
    b = rng.uniform(-4.0, 4.0, (2500, dim))
    mask = hc.layout.angle_mask
    out["phase.torus_distance_row_ns"] = (
        1e9 / 2500 * _median_s(
            lambda: torus_distance_batch(hc.layout, a, b), repeats, 20),
        "ns")
    out["phase.wrap_angles_row_ns"] = (
        1e9 / 2500 * _median_s(lambda: wrap_angles(a, mask), repeats, 20),
        "ns")

    text = (data_dir / "ham_compact_n1_m1.ham").read_text()

    def parse_derive():
        return hamiltonian_vector_field(*parse_hamiltonian_file(text))

    out["dsl.parse_derive_ms"] = (
        1e3 * _median_s(parse_derive, repeats, 5), "ms")
    derived = parse_derive().evaluator(hc.layout)
    out["dsl.derived_field_b1_us"] = (
        1e6 * _median_s(lambda: derived(state), repeats, 200), "us")
    out["dsl.derived_field_row_ns_b4096"] = (
        1e9 / 4096 * _median_s(lambda: derived(wide[:, :dim]), repeats, 5),
        "ns")

    t = np.linspace(0.0, 800.0, 8001)
    series = [("y", np.stack([t, np.sin(t)], axis=1))]
    out["svgplot.plot_svg_ms"] = (
        1e3 * _median_s(lambda: plot_svg(series), repeats), "ms")
    return out
