"""Command-line front end.

Builds systems from flags or a JSON config, runs simulations and
verification checks, and writes CSV/JSON/SVG artifacts plus a run
manifest into the output directory. Every check prints one verdict line;
the exit code is 0 when all verdicts are PASS, 1 on any FAIL, and 2 on
usage errors or a closed standard output. One table, `_COMMANDS`, gives
each subcommand its handler and flags; the parser is built from it once
per process. Every report comes from `_report_doc` and all JSON from
`_json_text`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    _GAIN_TOL,
    _GAP_TOL,
    Section,
    bracket_matrix,
    circulation_period,
    find_fixed_point,
    integral_jacobian_rank,
    measure_frequencies,
    monodromy,
    reversibility_deviations,
    survey_uniqueness,
    verify_kronecker,
)
from .dsl import (
    eval_expr,
    format_hamiltonian_file,
    free_variables,
    hamiltonian_vector_field,
    parse_hamiltonian_file,
    prove_reversibility,
)
from .errors import (
    DslError,
    InvalidValue,
    NotHamiltonian,
    NumericalBlowup,
    ToruslabError,
)
from .integrators import (IntegratorConfig, _MAX_STEPS, integrate,
                          integrate_batch)
from .phase import MixedPoint, ModularDomain
from .svgplot import PlotStyle, plot_svg, trajectory_series
from .systems import (
    CONTROL,
    FAMILIES,
    SystemParams,
    build_control_system,
    build_system,
    canonical_torus,
    delta_tori,
    isolation_domain,
    nearby_torus,
    torus_point,
)

_OMEGA_TOKENS = {
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "golden": (1.0 + math.sqrt(5.0)) / 2.0,
}

_PI_RE = re.compile(r"^([+-]?)pi(?:/(\d+))?$")


def _parse_angle(tok: str) -> float:
    m = _PI_RE.match(tok)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        den = int(m.group(2)) if m.group(2) else 1
        return sign * math.pi / den
    return float(tok)


def _list_of(parse_token):
    """Converter for a comma-separated flag value or a JSON list."""
    def parse(value):
        if not isinstance(value, str):
            return tuple(float(v) for v in value)
        return tuple(parse_token(tok.strip()) for tok in value.split(","))
    return parse


_parse_omega = _list_of(lambda tok: _OMEGA_TOKENS.get(tok) or float(tok))
_parse_angles = _list_of(_parse_angle)
_parse_floats = _list_of(float)


def _parse_int(value):
    # int() would turn 1.5 into 1 and true into 1 without a word
    if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()):
        raise ValueError("must be a whole number")
    return int(value)


def _parse_switch(value):
    # int() would read 0.5 as 0 and quietly drop what the switch adds
    word = str(value).lower()
    if type(value) not in (bool, int, str) \
            or word not in ("true", "false", "1", "0"):
        raise ValueError("must be true, false, 1 or 0")
    return word in ("true", "1")


def _parse_count(value):
    count = _parse_int(value)
    if count < 1:
        raise ValueError("must be at least 1")
    return count


def _json_text(doc) -> str:
    """The one JSON writer: sorted, indented, with a trailing newline, and
    strict, so a number that is not finite is written as null."""
    return json.dumps(_finite_or_null(doc), sort_keys=True, default=float,
                      indent=2) + "\n"


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    return obj


def _report_doc(claim, parameters, verdict, metrics, seed) -> dict:
    """The one report document: the claim checked, the parameters it was
    checked at, its verdict, the metrics behind it and the seed."""
    return {"claim": claim, "parameters": parameters, "verdict": verdict,
            "metrics": metrics, "seed": seed}


class _Run:
    """Output directory plus a hash ledger of everything written."""

    def __init__(self, out: Path):
        self.out = out
        self.outputs: dict[str, str] = {}

    def write(self, name: str, text: str) -> None:
        (self.out / name).write_text(text)
        self.outputs[name] = hashlib.sha256(text.encode()).hexdigest()

    def report(self, checks, claim, parameters, metrics, seed=None,
               verdict=None):
        """Write report.json for one claim and return each check's PASS or
        FAIL. The verdict is the command's own text if it gives one, else
        "pass" when every check passes and "fail" otherwise."""
        if verdict is None:
            verdict = "pass" if all(checks.values()) else "fail"
        self.write("report.json", _json_text(
            _report_doc(claim, parameters, verdict, metrics, seed)))
        return {name: "PASS" if passed else "FAIL"
                for name, passed in checks.items()}


def _need(cfg, key):
    if cfg.get(key) is None:
        raise InvalidValue(f"--{key.replace('_', '-')} is required here")
    return cfg[key]


def _system_from(cfg):
    fam = _need(cfg, "system")
    omega = cfg.get("omega")
    if fam == CONTROL:
        w = omega[0] if omega else 1.0
        return build_control_system(omega=w, nu=cfg.get("nu", 0.3))
    n = cfg.get("n", 1)
    if omega is None:
        omega = (1.0,) * n
    params = SystemParams(fam, n=n, m=cfg.get("m", 0),
                          l=cfg.get("l"), omega=tuple(omega))
    return build_system(params)


def _initial_point(sys, cfg):
    if cfg.get("point") is not None:
        return MixedPoint.of(sys.layout, np.array(cfg["point"], dtype=float))
    spec = canonical_torus(sys)
    angles = cfg.get("angles") or (0.0,) * len(spec.free_slots)
    return torus_point(spec, angles)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_systems(cfg, run):
    rows = [
        ("ham-unique", "Hamiltonian with a unique bounded torus; "
                       "slots u_i phi_i x y p_j q_j"),
        ("ham-compact", "sine-compactified Hamiltonian; same slots, "
                        "all angular"),
        ("rev-unique", "reversible with a unique bounded torus; "
                       "slots phi_i v_k y q_j"),
        ("rev-compact", "sine-compactified reversible; same slots, "
                        "all angular"),
        ("control", "integrable comparison fixture (flags --omega, --nu)"),
    ]
    for name, text in rows:
        print(f"{name:<12} {text}")
    return {}


def _cmd_simulate(cfg, run):
    sys_ = _system_from(cfg)
    t = cfg["t"]
    ic = IntegratorConfig(method=cfg["method"], h=cfg["h"])
    # about 2000 rows; the cap keeps int() off inf
    ic = replace(ic, store_every=max(
        1, int(min(abs(t) / ic.h, _MAX_STEPS)) // 2000))
    p0 = _initial_point(sys_, cfg)
    escaped = False
    escape_time = None
    try:
        traj = integrate(sys_, p0, t, ic)
    except NumericalBlowup as e:
        traj = e.trajectory
        escaped = True
        escape_time = e.time
    run.write("trajectory.csv", traj.to_csv())
    run.write("trajectory.svg",
              plot_svg(trajectory_series(traj),
                       PlotStyle(title=f"{sys_.family} trajectory")))
    metrics = {"t_final": float(traj.times[-1]), "n_steps": traj.n_steps,
               "escaped": escaped, "escape_time": escape_time}
    tail = (f"escaped at t={escape_time:.6g}" if escaped
            else f"reached t={traj.times[-1]:g}")
    print(f"simulate: {tail}, {traj.n_steps} steps")
    return run.report({"simulate": True}, "trajectory computed",
                      _params(cfg), metrics, verdict="completed")


def _delta_label(sys_, spec):
    bits = []
    for slot, value in spec.pinned:
        lab = sys_.layout.labels[slot]
        bits.append(f"{lab}={'pi' if value != 0.0 else '0'}")
    return "delta[" + ",".join(bits) + "]"


def _cmd_verify_torus(cfg, run):
    sys_ = _system_from(cfg)
    specs = [("canonical", canonical_torus(sys_))]
    # the full delta sweep costs 2^pinned runs, so it is opt-in
    if sys_.is_compact and cfg.get("deltas"):
        for spec in delta_tori(sys_):
            if all(v == 0.0 for _, v in spec.pinned):
                continue  # same torus as the canonical one
            specs.append((_delta_label(sys_, spec), spec))
    reports = verify_kronecker(sys_, [spec for _, spec in specs],
                               horizon=cfg["t"], seed=cfg["seed"],
                               config=IntegratorConfig(h=cfg["h"]))
    docs = [_report_doc("torus is invariant and carries linear angle flow",
                        {"horizon": cfg["t"], "tol": rep.tol,
                         "n_starts": rep.n_starts},
                        "pass" if rep.passed else "fail",
                        {"max_pinned_dev": rep.max_pinned_dev,
                         "max_angle_dev": rep.max_angle_dev}, cfg["seed"])
            for rep in reports]
    run.write("report.json", _json_text(docs))
    return {f"torus[{label}]": "PASS" if rep.passed else "FAIL"
            for (label, _), rep in zip(specs, reports)}


def _cmd_verify_invariants(cfg, run):
    sys_ = _system_from(cfg)
    if not sys_.is_hamiltonian:
        raise NotHamiltonian(f"--system {sys_.family} is reversible; verify "
                             f"invariants needs a Hamiltonian family")
    rng = np.random.default_rng(cfg["seed"])
    pts = cfg["scale"] * rng.uniform(-1.0, 1.0, (cfg["points"], sys_.dim))
    ic = IntegratorConfig(method=cfg["method"], h=cfg["h"])
    res = integrate_batch(sys_, pts, cfg["t"], ic, layout=sys_.layout,
                          store_every=100)
    vals = sys_.integrals(res.stored_states)
    drift = np.max(np.abs(vals - vals[0]), axis=0)
    names = sys_.integral_names
    i_h = names.index("H")
    h_drift = float(drift[:, i_h].max())
    others = [i for i in range(len(names)) if i != i_h]
    o_drift = float(drift[:, others].max()) if others else 0.0
    ok = (not res.escaped.any() and h_drift <= cfg["tol_h"]
          and o_drift <= cfg["tol_i"])
    print(f"invariants: energy drift {h_drift:.3e}, "
          f"others {o_drift:.3e}")
    return run.report({"invariants": ok}, "first integrals are conserved",
                      _params(cfg),
                      {"energy_drift": h_drift, "other_drift": o_drift,
                       "escaped": int(res.escaped.sum())}, cfg["seed"])


def _cmd_verify_brackets(cfg, run):
    sys_ = _system_from(cfg)
    rng = np.random.default_rng(cfg["seed"])
    states = rng.uniform(-1.5, 1.5, (cfg["points"], sys_.dim))
    B = bracket_matrix(sys_, states, scheme=cfg["scheme"])
    worst = float(np.max(np.abs(B)))
    print(f"brackets: max |{{I_i, I_j}}| = {worst:.3e} "
          f"over {cfg['points']} points")
    return run.report({"brackets": worst <= cfg["tol"]},
                      "integrals are pairwise in involution", _params(cfg),
                      {"max_abs_bracket": worst}, cfg["seed"])


def _cmd_verify_reversibility(cfg, run):
    sys_ = _system_from(cfg)
    rng = np.random.default_rng(cfg["seed"])
    pts = cfg["scale"] * rng.uniform(-1.0, 1.0, (cfg["points"], sys_.dim))
    devs = reversibility_deviations(sys_, pts, cfg["t"])
    worst = float(devs.max())
    broken = prove_reversibility(sys_)
    print(f"reversibility: max deviation {worst:.3e} "
          f"over {cfg['points']} points, t={cfg['t']:g}")
    return run.report({"reversibility": worst <= cfg["tol"]},
                      "involution conjugates the flow to its reverse",
                      _params(cfg), {"max_deviation": worst,
                                     "parity_proved": broken is None,
                                     "parity_breaks_at": broken},
                      cfg["seed"])


def _cmd_verify_rank(cfg, run):
    sys_ = _system_from(cfg)
    rng = np.random.default_rng(cfg["seed"])
    expected = sys_.params.n + sys_.params.m + 1
    ranks = []
    for _ in range(cfg["points"]):
        p = MixedPoint.of(sys_.layout,
                          0.5 * rng.uniform(-1.0, 1.0, sys_.dim))
        ranks.append(integral_jacobian_rank(sys_, p))
    torus_rank = integral_jacobian_rank(
        sys_, torus_point(canonical_torus(sys_),
                          (0.3,) * sys_.params.n))
    ok = all(r == expected for r in ranks) and torus_rank <= sys_.params.n
    print(f"rank: generic {max(ranks)}/{expected}, "
          f"on-torus {torus_rank} (<= {sys_.params.n})")
    return run.report({"rank": ok}, "integrals are independent off the "
                      "torus and degenerate on it", _params(cfg),
                      {"generic_rank": max(ranks), "expected": expected,
                       "torus_rank": torus_rank}, cfg["seed"])


def _cmd_monodromy(cfg, run):
    sys_ = _system_from(cfg)
    res = monodromy(sys_)
    mults = res.multipliers
    if sys_.family == CONTROL:
        w = sys_.params.omega[0]
        angle = 2.0 * math.pi * cfg.get("nu", 0.3) / w
        predicted = np.array([1.0, 1.0, np.exp(1j * angle),
                              np.exp(-1j * angle)])
        claim = "control multipliers rotate by the secondary frequency"
    else:
        predicted = np.ones(sys_.dim, dtype=complex)
        claim = "monodromy is the identity"
    # greedy match each multiplier to the closest predicted value
    remaining = list(predicted)
    worst = 0.0
    for lam in mults:
        gaps = [abs(lam - p) for p in remaining]
        k = int(np.argmin(gaps))
        worst = max(worst, gaps[k])
        remaining.pop(k)
    ok = worst <= cfg["tol"] and float(res.residuals.max()) <= 1e-8
    metrics = {"multipliers": [[z.real, z.imag] for z in mults],
               "max_match_gap": worst,
               "max_residual": float(res.residuals.max()),
               "period": res.period}
    shown = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in mults)
    print(f"monodromy: multipliers [{shown}]")
    return run.report({"monodromy": ok}, claim, _params(cfg), metrics)


def _cmd_fixedpoint(cfg, run):
    sys_ = _system_from(cfg)
    phi_slot = sys_.slots.phi.start
    section = Section(slot=phi_slot, value=0.0)
    if cfg.get("guess") is not None:
        guess = MixedPoint.of(sys_.layout,
                              np.array(cfg["guess"], dtype=float))
    else:
        guess = MixedPoint.of(sys_.layout, np.zeros(sys_.dim))
    res = find_fixed_point(sys_, section, guess, energy=cfg["energy"])
    where = ""
    if res.point is not None:
        coords = ", ".join(f"{lab}={res.point[lab]:.6g}"
                           for lab in sys_.layout.labels)
        where = f" at ({coords})"
    print(f"fixedpoint: {res.status}{where}, "
          f"residual {res.residual:.3e}"
          + (", singular linearization" if res.singular else ""))
    return run.report({"fixedpoint": res.status == "found"},
                      "periodic-orbit search on one energy level",
                      {"iterations": res.iterations},
                      {"residual": res.residual, "singular": res.singular,
                       "message": res.message}, verdict=res.status)


def _cmd_freq(cfg, run):
    sys_ = _system_from(cfg)
    spec = nearby_torus(sys_, _need(cfg, "offset"))
    p0 = torus_point(spec, (0.0,) * len(spec.free_slots))
    ic = IntegratorConfig(h=cfg["h"], store_every=cfg["store_every"])
    traj = integrate(sys_, p0, cfg["t"], ic)
    meas = measure_frequencies(traj, slots=spec.circulating)
    predicted = np.array(spec.predicted_frequency)
    gaps = np.abs(meas.values - predicted)
    ok = bool(np.max(gaps) <= cfg["tol"])
    labels = [sys_.layout.labels[s] for s in spec.circulating]
    series = []
    for (lab, curve), rate in zip(trajectory_series(traj, labels),
                                  predicted):
        series += [(lab, curve), (f"{lab} predicted", np.stack(
            [traj.times, curve[0, 1] + rate * traj.times], axis=1))]
    run.write("frequencies.svg",
              plot_svg(series, PlotStyle(title="circulation frequencies",
                                         y_label="unwrapped angle")))
    metrics = {"measured": dict(zip(labels, map(float, meas.values))),
               "predicted": dict(zip(labels, map(float, predicted))),
               "zeta": spec.zeta, "max_gap": float(np.max(gaps))}
    pairs = ", ".join(f"{lab}: {v:.6f} (predicted {p:.6f})"
                      for lab, v, p in zip(labels, meas.values, predicted))
    print(f"freq: {pairs}")
    return run.report({"frequencies": ok},
                      "nearby-torus frequencies match the closed form",
                      _params(cfg), metrics)


def _cmd_survey(cfg, run):
    sys_ = _system_from(cfg)
    phi = sys_.slots.phi
    half = cfg.get("box")
    if half is None and sys_.is_compact:
        domain = isolation_domain(sys_)
    else:  # the angles whole, every other slot within +-box (default 1)
        half = 1.0 if half is None else half
        domain = ModularDomain(intervals=tuple(
            None if phi.start <= s < phi.stop else (-half, half)
            for s in range(sys_.dim)))
    jobs = cfg.get("jobs") or len(os.sched_getaffinity(0))
    rep = survey_uniqueness(sys_, domain, samples=cfg["samples"],
                            seed=cfg["seed"], horizon=cfg["horizon"],
                            jobs=jobs)
    run.write("survey.csv", rep.to_csv())
    found = rep.n_candidates
    escaped, retired, skipped = (int(rows.sum()) for rows in (
        rep.escaped, rep.retired, rep.skipped))
    print(f"survey: {found} candidates from {cfg['samples']} samples "
          f"({escaped} escaped, {retired} retired, {skipped} skipped)")
    gains = rep.gains[np.isfinite(rep.gains) & ~rep.skipped]
    return run.report(
        {"survey": found == 0},
        "no recurrent orbit off the canonical torus in the box",
        {"family": sys_.family, "samples": cfg["samples"],
         "horizon": cfg["horizon"], "gain_tol": _GAIN_TOL,
         "gap_tol": _GAP_TOL},
        {"candidates": found, "escaped": escaped, "retired": retired,
         "skipped": skipped,
         "min_offtorus_gain": float(gains.min()) if len(gains) else None},
        cfg["seed"], verdict="corroborated" if found == 0
        else f"{found} candidates need review")


def _cmd_dsl(cfg, run):
    path = Path(_need(cfg, "file"))
    text = path.read_text()
    try:
        energy, pairing = parse_hamiltonian_file(text)
    except DslError as e:
        print(f"dsl: parse failed at position {e.position}: {e}")
        return run.report({"dsl-parse": False},
                          "hamiltonian text is well formed",
                          {"file": str(path)},
                          {"error": str(e), "position": e.position})

    printed = format_hamiltonian_file(energy, pairing)
    reparsed, _ = parse_hamiltonian_file(printed)
    twice = format_hamiltonian_file(reparsed, pairing)
    # cyclic angles appear in the pairing but not in the energy text
    names = sorted(set(free_variables(energy)) | set(pairing.names))
    rng = np.random.default_rng(0)
    samples = dict(zip(names, rng.uniform(-1.0, 1.0, (256, len(names))).T))
    # numpy's max keeps a NaN, so a text that overflows fails both checks
    with np.errstate(all="ignore"):
        dev = float(np.max(np.abs(eval_expr(energy, samples)
                                  - eval_expr(reparsed, samples))))
        round_ok = twice == printed and dev <= 1e-12

        derived = hamiltonian_vector_field(energy, pairing)
        step = 1e-6
        b = {name: col[:64] for name, col in samples.items()}
        devs = []
        for pos, mom in pairing.pairs:
            for rate_name, wrt, sign in ((pos, mom, 1.0), (mom, pos, -1.0)):
                up = dict(b, **{wrt: b[wrt] + step})
                dn = dict(b, **{wrt: b[wrt] - step})
                fd = sign * (eval_expr(energy, up)
                             - eval_expr(energy, dn)) / (2.0 * step)
                got = eval_expr(derived.rate_exprs[rate_name], b)
                devs.append(np.max(np.abs(got - fd)))
        grad_dev = float(np.max(devs))
    print(f"dsl: roundtrip dev {dev:.3e}, gradient dev {grad_dev:.3e}")
    return run.report({"dsl-parse": True, "dsl-roundtrip": round_ok,
                       "dsl-gradients": grad_dev <= 1e-6},
                      "hamiltonian text parses, round-trips, and "
                      "differentiates correctly", {"file": str(path)},
                      {"roundtrip_dev": dev, "gradient_dev": grad_dev,
                       "variables": names}, 0)


def _cmd_oracle(cfg, run):
    zeta = _need(cfg, "zeta")
    period = circulation_period(zeta)
    closed = 2.0 * math.pi / math.sqrt(zeta * (zeta + 1.0))
    gap = abs(period - closed)
    print(f"oracle period: quadrature {period:.12f}, "
          f"closed form {closed:.12f}")
    return run.report({"period-oracle": gap <= cfg["tol"]},
                      "quadrature period matches the closed form",
                      {"zeta": zeta}, {"quadrature": period,
                                       "closed_form": closed, "gap": gap})


# ---------------------------------------------------------------------------
# argument plumbing

_COMMON_SYSTEM = {
    "system": (None, str),
    "n": (1, _parse_int),
    "m": (0, _parse_int),
    "l": (None, _parse_int),
    "omega": (None, _parse_omega),
    "nu": (0.3, float),
    "seed": (0, _parse_int),
}

# every subcommand: (command, action) or (command,) -> (handler, flags),
# where each flag maps to (default, converter) or, fixed, to a bare value;
# the parser, its action choices and its flag order all come from here
_COMMANDS = {
    ("systems", "list"): (_cmd_systems, {}),
    ("simulate",): (_cmd_simulate, {
        **_COMMON_SYSTEM,
        "t": (10.0, float), "method": ("rk4", str), "h": (1e-2, float),
        "point": (None, _parse_floats), "angles": (None, _parse_angles),
    }),
    ("verify", "torus"): (_cmd_verify_torus, {
        **_COMMON_SYSTEM, "t": (100.0, float),
        # on the torus every stage derivative is exact, so the step only
        # paces the sampling grid; 0.05 keeps the sweep cheap
        "h": (0.05, float), "deltas": (None, _parse_switch),
    }),
    ("verify", "invariants"): (_cmd_verify_invariants, {
        **_COMMON_SYSTEM, "t": (1000.0, float), "h": (1e-2, float),
        "method": ("midpoint", str), "points": (3, _parse_count),
        "scale": (1e-3, float), "tol_h": 1e-8, "tol_i": 1e-6,
    }),
    ("verify", "brackets"): (_cmd_verify_brackets, {
        **_COMMON_SYSTEM, "points": (1000, _parse_count),
        "tol": 1e-8, "scheme": "exact",
    }),
    ("verify", "reversibility"): (_cmd_verify_reversibility, {
        **_COMMON_SYSTEM, "points": (100, _parse_count), "t": (5.0, float),
        "scale": (0.05, float), "tol": 1e-6,
    }),
    ("verify", "rank"): (_cmd_verify_rank, {
        **_COMMON_SYSTEM, "points": (100, _parse_count),
    }),
    ("monodromy",): (_cmd_monodromy, {**_COMMON_SYSTEM, "tol": 1e-6}),
    ("fixedpoint",): (_cmd_fixedpoint, {
        **_COMMON_SYSTEM, "energy": (0.0, float),
        "guess": (None, _parse_floats),
    }),
    ("freq",): (_cmd_freq, {
        **_COMMON_SYSTEM, "offset": (None, _parse_angles),
        "t": (800.0, float), "h": (1e-2, float),
        "store_every": 10, "tol": 1e-4,
    }),
    ("survey",): (_cmd_survey, {
        **_COMMON_SYSTEM, "samples": (10000, _parse_int),
        "box": (None, float), "horizon": (20.0, float),
        "jobs": (None, _parse_count),
    }),
    ("dsl", "check"): (_cmd_dsl, {"file": (None, str)}),
    ("oracle", "period"): (_cmd_oracle, {"zeta": (None, float), "tol": 1e-8}),
}

_FLAG_HELP = {
    "system": dict(choices=tuple(FAMILIES) + (CONTROL,),
                   help="family to build"),
    "omega": dict(metavar="W1,W2,...",
                  help="frequencies; tokens sqrt2, sqrt3, golden allowed"),
    "offset": dict(metavar="A1,A2,...",
                   help="action offsets; pi fractions like pi/2 allowed"),
    "angles": dict(metavar="A1,A2,...",
                   help="initial torus angles (pi fractions allowed)"),
    "point": dict(metavar="X1,X2,...", help="full initial state"),
    "guess": dict(metavar="X1,X2,...", help="full starting guess"),
    "file": dict(metavar="PATH", help="hamiltonian text file"),
    "deltas": dict(action="store_const", const=True,
                   help="also verify every sign-flipped torus"),
    "out": dict(metavar="DIR", help="output directory (default: current)"),
    "config": dict(metavar="JSON", help="JSON file of flag defaults"),
}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toruslab",
        description="simulate and verify systems with a unique or "
                    "isolated invariant torus")
    parser.add_argument("--version", action="version",
                        version=f"toruslab {__version__}")
    parser.add_argument("--replay", metavar="MANIFEST",
                        help="re-run a recorded manifest and compare")
    sub = parser.add_subparsers(dest="cmd")
    # one parser per command line, holding only that line's own flags
    nested = {}
    for key, (_, flags) in _COMMANDS.items():
        parent = sub
        if key[1:]:
            if key[0] not in nested:
                nested[key[0]] = sub.add_parser(key[0]).add_subparsers(
                    dest="action", required=True)
            parent = nested[key[0]]
        leaf = parent.add_parser(key[-1])
        leaf.set_defaults(key=key)
        for flag in [*_settable(flags), "out", "config"]:
            leaf.add_argument(f"--{flag.replace('_', '-')}", default=None,
                              **_FLAG_HELP.get(flag, {}))
    return parser


def _settable(spec):  # the flags of spec, less its fixed values
    return {k: v for k, v in spec.items() if isinstance(v, tuple)}


def _resolve(args, key):
    _, spec = _COMMANDS[key]
    file_cfg = {}
    if args.config:
        file_cfg = json.loads(Path(args.config).read_text())
    if not isinstance(file_cfg, dict):
        raise InvalidValue(f"{args.config} does not hold a JSON object")
    settable = _settable(spec)
    for name in file_cfg:
        if name.replace("-", "_") not in settable:
            raise InvalidValue(f"{args.config}: no flag sets {name!r}")
    cfg = dict(spec)  # a fixed value, set by no flag or file, as it is
    for name, (default, conv) in settable.items():
        flag = "--" + name.replace("_", "-")
        value = getattr(args, name, None)
        if value is None:
            value = file_cfg.get(name, file_cfg.get(flag[2:], default))
        if value is not None and conv is not None:
            try:
                value = conv(value)
            except (TypeError, ValueError) as exc:
                raise InvalidValue(f"{flag} {value!r}: {exc}") from None
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidValue(f"{flag} must be finite, got {value}")
        cfg[name] = value
    return cfg


def _params(cfg):
    return {k: v for k, v in cfg.items() if v is not None}


def _argv_from(key, cfg):
    argv = list(key)
    for name in sorted(_settable(_COMMANDS[key][1])):
        value = cfg[name]
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if isinstance(value, bool):  # a switch takes no value
            argv += [flag] if value else []
        elif isinstance(value, (tuple, list)):
            argv += [flag, ",".join(repr(float(v)) for v in value)]
        else:
            argv += [flag, str(value)]
    return argv


def _write_manifest(run, key, cfg, verdicts, t0):
    doc = {
        "tool": "toruslab",
        "version": __version__,
        "argv": _argv_from(key, cfg),
        "cwd": os.getcwd(),  # where a relative path in argv is read from
        "config": _params(cfg),
        "seed": cfg.get("seed"),
        "duration_s": round(time.perf_counter() - t0, 6),
        "verdicts": verdicts,
        "outputs": run.outputs,
    }
    (run.out / "manifest.json").write_text(_json_text(doc))


def _replay(path: str) -> int:
    doc = json.loads(Path(path).read_text())
    if not (isinstance(doc, dict)
            and {"argv", "verdicts", "outputs"} <= doc.keys()
            and isinstance(doc.get("cwd", "."), str)):
        raise InvalidValue(f"{path} is not a toruslab manifest")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as td:
        # from the run's own directory, so that a relative --file names
        # the same file and report.json records it as it did
        os.chdir(doc.get("cwd", "."))
        try:
            code = main(list(doc["argv"]) + ["--out", td])
        finally:
            os.chdir(here)
        if code not in (0, 1):  # bad input, already reported; no manifest
            return code
        fresh = json.loads((Path(td) / "manifest.json").read_text())
    same_verdicts = fresh["verdicts"] == doc["verdicts"]
    same_outputs = fresh["outputs"] == doc["outputs"]
    if same_verdicts and same_outputs:
        print(f"replay: reproduced {len(doc['outputs'])} outputs and "
              f"{len(doc['verdicts'])} verdicts")
        return 0
    for name, verdict in doc["verdicts"].items():
        got = fresh["verdicts"].get(name, "missing")
        if got != verdict:
            print(f"replay: verdict {name} was {verdict}, got {got}",
                  file=sys.stderr)
    for name, digest in doc["outputs"].items():
        got = fresh["outputs"].get(name, "missing")
        if got != digest:
            print(f"replay: output {name} differs", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    """Run one command line and return its exit code: 0 when every
    verdict is PASS, 1 on any FAIL, 2 on bad input. A closed standard
    output ends the run with 2 as well."""
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull, so that the flush
        # at the interpreter's exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output is closed", file=sys.stderr)
        return 2
    return code


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    if not (args.replay or args.cmd):
        parser.print_usage(sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        if args.replay:
            return _replay(args.replay)
        key = args.key
        cfg = _resolve(args, key)
        out = Path(args.out) if args.out else Path(".")
        out.mkdir(parents=True, exist_ok=True)
        run = _Run(out)
        handler, _ = _COMMANDS[key]
        verdicts = handler(cfg, run)
    except BrokenPipeError:
        raise  # for main, which owns standard output
    except (ToruslabError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply to read", file=sys.stderr)
        return 2
    _write_manifest(run, key, cfg, verdicts, t0)
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    return 0 if all(v == "PASS" for v in verdicts.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
