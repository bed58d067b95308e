"""End-to-end acceptance checks for the package's headline claims.

One test per claim, in a fixed order; each prints a single verdict line
through the capture so the run log always shows the tally, and each
enforces its own wall-clock budget.
"""

import json
import math
import time

import numpy as np
from catalog_oracle import (
    fd_bracket_matrix,
    field_deviation,
    in_modular_domain,
    oracle_field,
    shipped_hamiltonians,
)

from toruslab.analysis import (
    Section,
    bracket_matrix,
    circulation_period,
    find_fixed_point,
    integral_jacobian_rank,
    measure_frequencies,
    monodromy,
    reversibility_deviations,
    survey_uniqueness,
)
from toruslab.cli import main
from toruslab.dsl import (
    Add,
    Const,
    Cos,
    Div,
    Mul,
    Neg,
    PowInt,
    Sin,
    Sub,
    Var,
    differentiate,
    eval_expr,
    hamiltonian_vector_field,
    parse_hamiltonian_file,
    prove_reversibility,
)
from toruslab.integrators import IntegratorConfig, integrate, integrate_batch
from toruslab.phase import MixedPoint, ModularDomain
from toruslab.systems import (
    HAM_COMPACT,
    HAM_UNIQUE,
    REV_COMPACT,
    REV_UNIQUE,
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
ALL_FAMILIES = (HAM_UNIQUE, HAM_COMPACT, REV_UNIQUE, REV_COMPACT)


def _verdict(capsys, index, name, ok, detail):
    line = f"ACCEPTANCE {index} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _sys(family, n=1, m=0, l=None, omega=None):
    if omega is None:
        omega = (1.0,) * n
    if family in (REV_UNIQUE, REV_COMPACT) and l is None:
        l = 1
    return build_system(SystemParams(family, n=n, m=m, l=l, omega=omega))


def test_acceptance_01_torus_invariance(tmp_path, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    failures = []
    for family in ALL_FAMILIES:
        for n, m in ((1, 0), (1, 1), (2, 1)):
            omega = "sqrt2" if n == 1 else "1,sqrt2"
            out = tmp_path / f"{family}-{n}-{m}"
            argv = ["verify", "torus", "--system", family,
                    "--n", str(n), "--m", str(m), "--omega", omega,
                    "--t", "100", "--out", str(out)]
            if family in (REV_UNIQUE, REV_COMPACT):
                argv += ["--l", "1"]
            if main(argv) != 0:
                failures.append((family, n, m))
            docs = json.loads((out / "report.json").read_text())
            for doc in docs:
                worst = max(worst, doc["metrics"]["max_pinned_dev"],
                            doc["metrics"]["max_angle_dev"])
    elapsed = time.perf_counter() - t0
    ok = not failures and worst <= 1e-8 and elapsed < 10.0
    _verdict(capsys, 1, "torus-invariance", ok,
             f"12 runs, max dev {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_02_conservation(capsys):
    t0 = time.perf_counter()
    sys_ = _sys(HAM_UNIQUE, n=1, m=1)
    rng = np.random.default_rng(7)
    # escape time grows like 1/amplitude, so this scale keeps every
    # orbit bounded far beyond the horizon
    pts = 1e-4 * rng.uniform(-1.0, 1.0, (25, sys_.dim))
    res = integrate_batch(sys_, pts, 1000.0,
                          IntegratorConfig(method="midpoint", h=1e-2),
                          layout=sys_.layout, store_every=100)
    vals = sys_.integrals(res.stored_states)
    drift = np.max(np.abs(vals - vals[0]), axis=0)
    i_h = sys_.integral_names.index("H")
    others = [i for i in range(len(sys_.integral_names)) if i != i_h]
    h_drift = float(drift[:, i_h].max())
    o_drift = float(drift[:, others].max())
    elapsed = time.perf_counter() - t0
    ok = (not res.escaped.any() and h_drift <= 1e-8
          and o_drift <= 1e-6 and elapsed < 30.0)
    _verdict(capsys, 2, "conservation", ok,
             f"t=1e3 midpoint, energy drift {h_drift:.2e}, "
             f"others {o_drift:.2e}, {elapsed:.1f}s")


def test_acceptance_03_involution(capsys):
    t0 = time.perf_counter()
    worst_exact = 0.0
    worst_fd = 0.0
    for sys_ in (_sys(HAM_UNIQUE, n=1, m=1),
                 _sys(HAM_COMPACT, n=2, m=1, omega=(1.0, SQRT2))):
        rng = np.random.default_rng(3)
        states = rng.uniform(-1.5, 1.5, (1000, sys_.dim))
        B = bracket_matrix(sys_, states)
        worst_exact = max(worst_exact, float(np.max(np.abs(B))))
        B_fd = fd_bracket_matrix(sys_, states[:300])
        worst_fd = max(worst_fd, float(np.max(np.abs(B_fd))))
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-8 and worst_fd <= 1e-8 and elapsed < 5.0
    _verdict(capsys, 3, "involution", ok,
             f"max bracket exact {worst_exact:.2e}, "
             f"fd {worst_fd:.2e}, {elapsed:.1f}s")


def test_acceptance_04_rank_degeneracy(capsys):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for sys_ in (_sys(HAM_UNIQUE, n=1, m=1),
                 _sys(HAM_COMPACT, n=2, m=1, omega=(1.0, SQRT2))):
        expected = sys_.params.n + sys_.params.m + 1
        rng = np.random.default_rng(5)
        generic = [integral_jacobian_rank(
            sys_, MixedPoint.of(sys_.layout,
                                0.5 * rng.uniform(-1, 1, sys_.dim)))
            for _ in range(100)]
        spec = canonical_torus(sys_)
        on_torus = max(integral_jacobian_rank(
            sys_, torus_point(spec, angles))
            for angles in ((0.0,) * sys_.params.n,
                           (0.9,) * sys_.params.n))
        ok = ok and all(r == expected for r in generic) \
            and on_torus <= sys_.params.n
        detail.append(f"{sys_.family}: {min(generic)}/{expected} "
                      f"generic, {on_torus} on-torus")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(capsys, 4, "rank-degeneracy", ok,
             "; ".join(detail) + f", {elapsed:.1f}s")


def test_acceptance_05_monodromy_identity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for m in (0, 1):
        res = monodromy(_sys(HAM_UNIQUE, n=1, m=m))
        worst = max(worst, float(np.max(np.abs(res.multipliers - 1.0))))
    control = build_control_system(omega=1.0)
    res_c = monodromy(control)
    off = float(np.max(np.abs(res_c.multipliers - 1.0)))
    fp = find_fixed_point(control,
                          Section(slot=control.layout.slot_of("phi_1"),
                                  value=0.0),
                          MixedPoint.of(control.layout,
                                        [0.0, 0.0, 0.3, -0.2]),
                          energy=0.7)
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-6 and off > 0.5 and fp.status == "found"
          and not fp.singular and elapsed < 10.0)
    _verdict(capsys, 5, "monodromy-identity", ok,
             f"max |multiplier-1| {worst:.2e}, control off by {off:.2f} "
             f"non-singular, {elapsed:.1f}s")


def test_acceptance_06_no_orbits_off_level(capsys):
    t0 = time.perf_counter()
    sys_ = _sys(HAM_UNIQUE, n=1, m=0)
    section = Section(slot=sys_.layout.slot_of("phi_1"), value=0.0)
    guess = torus_point(canonical_torus(sys_), [0.0])
    statuses = {}
    for energy in (0.0, 0.01, -0.01, 0.1, -0.1):
        res = find_fixed_point(sys_, section, guess, energy=energy)
        statuses[energy] = (res.status, res.singular)
    elapsed = time.perf_counter() - t0
    ok = (statuses[0.0] == ("found", True)
          and all(statuses[e][0] == "not-found"
                  for e in (0.01, -0.01, 0.1, -0.1))
          and elapsed < 20.0)
    _verdict(capsys, 6, "no-orbits-off-level", ok,
             f"origin found singular, off-level all not-found, "
             f"{elapsed:.1f}s")


def test_acceptance_07_frequency_formula(capsys):
    t0 = time.perf_counter()
    gaps = []

    def measure(sys_, offset, t):
        spec = nearby_torus(sys_, offset)
        p0 = torus_point(spec, (0.0,) * len(spec.free_slots))
        traj = integrate(sys_, p0, t,
                         IntegratorConfig(h=1e-2), store_every=10)
        meas = measure_frequencies(traj, slots=spec.circulating)
        predicted = np.array(spec.predicted_frequency)
        gaps.append(float(np.max(np.abs(meas.values - predicted))))

    measure(_sys(HAM_COMPACT, n=1, m=0), (math.pi / 2,), 800.0)
    measure(_sys(HAM_COMPACT, n=2, m=0, omega=(1.0, SQRT2)),
            (math.pi / 6, 0.0), 600.0)
    measure(_sys(REV_COMPACT, n=1, m=0, l=1), (math.pi / 2,), 800.0)

    oracle_gap = 0.0
    for zeta in (0.1, 0.25, 1.0, 4.0, 100.0):
        closed = 2.0 * math.pi / math.sqrt(zeta * (zeta + 1.0))
        oracle_gap = max(oracle_gap,
                         abs(circulation_period(zeta) - closed))
    elapsed = time.perf_counter() - t0
    ok = max(gaps) <= 1e-4 and oracle_gap <= 1e-8 and elapsed < 30.0
    _verdict(capsys, 7, "frequency-formula", ok,
             f"max frequency gap {max(gaps):.2e}, "
             f"oracle gap {oracle_gap:.2e}, {elapsed:.1f}s")


def test_acceptance_08_uniqueness_surveys(capsys):
    t0 = time.perf_counter()
    candidates = {}
    for family in ALL_FAMILIES:
        sys_ = _sys(family, n=1, m=1)
        if sys_.is_compact:
            domain = isolation_domain(sys_)
        else:
            phi = sys_.slots.phi
            domain = ModularDomain(intervals=tuple(
                None if phi.start <= s < phi.stop else (-1.0, 1.0)
                for s in range(sys_.dim)))
        rep = survey_uniqueness(sys_, domain, samples=10000, seed=42,
                                jobs=4)
        candidates[family] = rep.n_candidates

    # every sign-flipped torus sits outside the certified neighborhood
    outside_ok = True
    for family in (HAM_COMPACT, REV_COMPACT):
        sys_ = _sys(family, n=1, m=1)
        domain = isolation_domain(sys_)
        specs = delta_tori(sys_)
        for k, spec in enumerate(specs):
            p = torus_point(spec, (0.25,) * len(spec.free_slots))
            inside = in_modular_domain(p, domain)
            flipped = any(v != 0.0 for _, v in spec.pinned)
            outside_ok = outside_ok and (inside != flipped)
    elapsed = time.perf_counter() - t0
    ok = (all(c == 0 for c in candidates.values()) and outside_ok
          and elapsed < 120.0)
    _verdict(capsys, 8, "uniqueness-surveys", ok,
             f"4x10^4 samples, {sum(candidates.values())} candidates, "
             f"flipped tori outside, {elapsed:.0f}s")


def test_acceptance_09_reversibility_conjugacy(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    broken = {}
    for family in ALL_FAMILIES:
        sys_ = _sys(family, n=1, m=1)
        rng = np.random.default_rng(11)
        pts = 0.05 * rng.uniform(-1.0, 1.0, (100, sys_.dim))
        devs = reversibility_deviations(sys_, pts, 5.0)
        worst = max(worst, float(devs.max()))
        # the parity of the rate texts proves what the march samples
        broken[family] = prove_reversibility(sys_)
    elapsed = time.perf_counter() - t0
    proved = all(b is None for b in broken.values())
    ok = worst <= 1e-6 and proved and elapsed < 20.0
    _verdict(capsys, 9, "reversibility-conjugacy", ok,
             f"max deviation {worst:.2e} over 100x4 points, parity "
             f"{'proved' if proved else f'breaks: {broken}'}, "
             f"{elapsed:.1f}s")


def _random_expr(rng, names, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if roll < 0.12:
            return Const(round(float(rng.uniform(-2.0, 2.0)), 3))
        return Var(names[int(rng.integers(len(names)))])
    a = _random_expr(rng, names, depth - 1)
    b = _random_expr(rng, names, depth - 1)
    kind = int(rng.integers(7))
    if kind == 0:
        return Add(a, b)
    if kind == 1:
        return Sub(a, b)
    if kind == 2:
        return Mul(a, b)
    if kind == 3:
        # keep denominators away from zero so the probe points stay
        # well inside the domain
        return Div(a, Add(Mul(b, b), Const(1.0)))
    if kind == 4:
        return PowInt(a, int(rng.integers(2, 4)))
    if kind == 5:
        return Sin(a) if rng.random() < 0.5 else Cos(a)
    return Neg(a)


def test_acceptance_10_dsl_fidelity(capsys):
    t0 = time.perf_counter()
    built = {
        "ham_unique_n1_m0": _sys(HAM_UNIQUE, n=1, m=0),
        "ham_unique_n1_m1": _sys(HAM_UNIQUE, n=1, m=1),
        "ham_compact_n1_m0": _sys(HAM_COMPACT, n=1, m=0),
        "ham_compact_n1_m1": _sys(HAM_COMPACT, n=1, m=1),
    }
    shipped = shipped_hamiltonians()
    worst_field = 0.0
    for stem, sys_ in built.items():
        energy, pairing = parse_hamiltonian_file(shipped[stem])
        derived = hamiltonian_vector_field(energy, pairing)
        evaluator = derived.evaluator(sys_.layout)
        worst_field = max(worst_field, field_deviation(
            oracle_field(sys_), evaluator, sys_.layout, samples=1000,
            seed=2))

    rng = np.random.default_rng(17)
    names = ("a", "b")
    probes = [{"a": 0.37, "b": -0.61}, {"a": -0.82, "b": 0.19},
              {"a": 0.05, "b": 0.93}]
    step = 1e-5
    worst_grad = 0.0
    for _ in range(1000):
        expr = _random_expr(rng, names, 3)
        d_expr = differentiate(expr, "a")
        for bind in probes:
            sym = eval_expr(d_expr, bind)
            up = eval_expr(expr, dict(bind, a=bind["a"] + step))
            dn = eval_expr(expr, dict(bind, a=bind["a"] - step))
            fd = (up - dn) / (2.0 * step)
            worst_grad = max(worst_grad,
                             abs(sym - fd) / max(1.0, abs(sym)))
    elapsed = time.perf_counter() - t0
    ok = worst_field <= 1e-12 and worst_grad <= 1e-6 and elapsed < 10.0
    _verdict(capsys, 10, "dsl-fidelity", ok,
             f"4 texts max field dev {worst_field:.2e}, 1000 exprs "
             f"max grad dev {worst_grad:.2e}, {elapsed:.1f}s")
