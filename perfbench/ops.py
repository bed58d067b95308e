"""The benchmark's workloads: toruslab CLI operations and their gates.

Each operation is one ``toruslab`` command line plus what a correct run
must show: the exit code, the ``report.json`` verdict and limits on its
metrics. The limits are the paper's tolerances (``TOL``), held here rather
than read from the command's own ``--tol`` flags, so a change in the
program cannot relax them.

Workloads, and why each was chosen:

``orbit``
    Single-state paths (``integrate``, ``poincare_map``,
    ``integrate_variational``, the adaptive pair) on 4-6 slot states,
    bound by numpy dispatch per field call.
``batch-small``
    ``integrate_batch`` at 3-100 rows, bound by per-step bookkeeping.
``survey``
    Large survey batches, bound by trigonometric ufuncs; one survey keeps
    every row active, one loses every row to escape.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from pathlib import Path

TOL = {
    "freq.max_gap": 1e-4,
    "invariants.energy_drift": 1e-8,
    "invariants.other_drift": 1e-6,
    "torus.deviation": 1e-8,
    "reversibility.max_deviation": 1e-6,
    "monodromy.max_match_gap": 1e-6,
    "monodromy.max_residual": 1e-8,
    "brackets.max_abs_bracket": 1e-8,
    "oracle.gap": 1e-8,
    "dsl.roundtrip_dev": 1e-12,
    "dsl.gradient_dev": 1e-6,
}

_RELATIONS = {"<=": operator.le, "==": operator.eq}


@dataclass(frozen=True)
class Size:
    """Command sizes; ``full`` is the benchmark, ``tiny`` its smoke test."""

    freq_t: float
    simulate_adaptive_t: float
    simulate_midpoint_t: float
    invariants_t: float
    torus_t: float
    reversibility_points: int
    survey_samples: int
    survey_escape_samples: int
    setup_repeats: int
    layer_repeats: int


# freq's max_gap falls roughly as 1/t^2 and passes 1e-4 from t ~ 105 on,
# so even the tiny size keeps t above that
SIZES = {
    "full": Size(freq_t=120.0, simulate_adaptive_t=500.0,
                 simulate_midpoint_t=50.0, invariants_t=100.0, torus_t=10.0,
                 reversibility_points=100, survey_samples=500,
                 survey_escape_samples=10000, setup_repeats=5,
                 layer_repeats=5),
    "tiny": Size(freq_t=110.0, simulate_adaptive_t=20.0,
                 simulate_midpoint_t=2.0, invariants_t=2.0, torus_t=1.0,
                 reversibility_points=4, survey_samples=8,
                 survey_escape_samples=64, setup_repeats=1,
                 layer_repeats=1),
}


@dataclass(frozen=True)
class Op:
    """One CLI call and the gate its outputs must pass."""

    argv: tuple[str, ...]
    group: str | None = None  # end-to-end metric the op's time adds to
    code: int = 0
    verdict: str = "pass"
    limits: tuple[tuple[str, str, object], ...] = ()
    n_docs: int = 1  # report.json entries (verify torus writes a list)

    def problems(self, code: int, report) -> list[str]:
        """Every way the outputs miss the gate; empty when they pass."""
        if code != self.code:
            return [f"exit code {code}, expected {self.code}"]
        docs = report if isinstance(report, list) else [report]
        if len(docs) != self.n_docs:
            return [f"{len(docs)} reports, expected {self.n_docs}"]
        out = []
        for doc in docs:
            if doc.get("verdict") != self.verdict:
                out.append(f"verdict {doc.get('verdict')!r}, "
                           f"expected {self.verdict!r}")
            metrics = doc.get("metrics") or {}
            for key, rel, bound in self.limits:
                value = metrics.get(key)
                ok = (value is not None
                      and not (isinstance(value, float)
                               and math.isnan(value))
                      and _RELATIONS[rel](value, bound))
                if not ok:
                    out.append(f"{key} = {value!r}, expected {rel} {bound!r}")
        return out


def _seeds(rng: random.Random):
    while True:
        yield str(rng.randrange(2 ** 31))


def _orbit(rng: random.Random, size: Size, data: Path) -> list[Op]:
    seed = _seeds(rng)
    hc = ("--system", "ham-compact", "--n", "1")
    hu = ("--system", "ham-unique", "--n", "1")
    freq_gate = dict(group="freq_s",
                     limits=(("max_gap", "<=", TOL["freq.max_gap"]),))
    ops = [
        Op(("freq", *hc, "--offset", "pi/2", "--t", f"{size.freq_t:g}",
            "--seed", next(seed)), **freq_gate),
        Op(("freq", "--system", "rev-compact", "--n", "1", "--l", "1",
            "--offset", "pi/2", "--t", f"{size.freq_t:g}",
            "--seed", next(seed)), **freq_gate),
        Op(("fixedpoint", *hu, "--energy", "0"), group="fixedpoint_s",
           verdict="found", limits=(("singular", "==", True),)),
    ]
    # off-level searches must fail cleanly; +-0.1 repeat the +-0.01 path
    # (the trust region gives up) at five times the cost, so they are left
    # out to keep a pass within the run length
    for energy in ("0.01", "-0.01"):
        ops.append(Op(("fixedpoint", *hu, "--energy", energy),
                      group="fixedpoint_s", code=1, verdict="not-found"))
    ops.append(Op(("fixedpoint", "--system", "control", "--energy", "0.7"),
                  group="fixedpoint_s", verdict="found",
                  limits=(("singular", "==", False),)))
    mono = (("max_match_gap", "<=", TOL["monodromy.max_match_gap"]),
            ("max_residual", "<=", TOL["monodromy.max_residual"]))
    for argv in (("monodromy", *hu, "--m", "0"),
                 ("monodromy", *hu, "--m", "1"),
                 ("monodromy", "--system", "control")):
        ops.append(Op(argv, limits=mono))
    # phi is cyclic in ham-compact, so a seeded phi changes the input but
    # not the adaptive step count
    phi = rng.uniform(-math.pi, math.pi)
    point = f"0.1,{phi!r},0.05,0.05,0.05,0.05"
    for method, t in (("adaptive", size.simulate_adaptive_t),
                      ("midpoint", size.simulate_midpoint_t)):
        ops.append(Op(("simulate", *hc, "--m", "1", "--method", method,
                       "--t", f"{t:g}", "--point", point),
                      verdict="completed",
                      limits=(("escaped", "==", False),
                              ("t_final", "==", t))))
    for ham in sorted(data.glob("*.ham")):
        ops.append(Op(("dsl", "check", "--file", str(ham)), limits=(
            ("roundtrip_dev", "<=", TOL["dsl.roundtrip_dev"]),
            ("gradient_dev", "<=", TOL["dsl.gradient_dev"]))))
    for zeta in ("0.1", "0.25", "1", "4", "100"):
        ops.append(Op(("oracle", "period", "--zeta", zeta),
                      limits=(("gap", "<=", TOL["oracle.gap"]),)))
    return ops


def _batch_small(rng: random.Random, size: Size, data: Path) -> list[Op]:
    seed = _seeds(rng)
    hc2 = ("--system", "ham-compact", "--n", "2", "--m", "1",
           "--omega", "1,sqrt2")
    torus_tol = TOL["torus.deviation"]
    return [
        Op(("verify", "invariants", "--system", "ham-unique", "--n", "1",
            "--m", "1", "--method", "midpoint", "--points", "3",
            "--t", f"{size.invariants_t:g}", "--seed", next(seed)),
           group="invariants_s", limits=(
               ("energy_drift", "<=", TOL["invariants.energy_drift"]),
               ("other_drift", "<=", TOL["invariants.other_drift"]),
               ("escaped", "==", 0))),
        # 2^(n+2m+2) = 32 tori: the canonical one plus 31 sign flips
        Op(("verify", "torus", "--deltas", "--system", "ham-compact",
            "--n", "1", "--m", "1", "--t", f"{size.torus_t:g}",
            "--seed", next(seed)),
           group="torus_deltas_s", n_docs=32,
           limits=(("max_pinned_dev", "<=", torus_tol),
                   ("max_angle_dev", "<=", torus_tol))),
        Op(("verify", "reversibility", "--system", "rev-compact", "--n", "1",
            "--l", "1", "--m", "1",
            "--points", str(size.reversibility_points),
            "--seed", next(seed)),
           limits=(("max_deviation", "<=",
                    TOL["reversibility.max_deviation"]),)),
        Op(("verify", "brackets", *hc2, "--seed", next(seed)),
           limits=(("max_abs_bracket", "<=",
                    TOL["brackets.max_abs_bracket"]),)),
        Op(("verify", "rank", *hc2, "--seed", next(seed)),
           limits=(("generic_rank", "==", 4), ("torus_rank", "<=", 2))),
    ]


def _survey(rng: random.Random, size: Size, data: Path) -> list[Op]:
    seed = _seeds(rng)

    def survey(system, samples, survey_seed, escaped, group=None):
        return Op(("survey", *system, "--samples", str(samples),
                   "--jobs", "1", "--seed", survey_seed),
                  group=group, verdict="corroborated",
                  limits=(("candidates", "==", 0),
                          ("escaped", "==", escaped)))

    # Compact families stay bounded inside the isolation domain, so no row
    # escapes whatever the seed. On ham-unique every orbit off the torus
    # escapes, but a row that starts close to the torus can outlast the
    # horizon (one in 10^4 does for some seeds), so the escape survey keeps
    # seed 42, whose rows all escape: its escaped count is then known.
    return [
        survey(("--system", "ham-compact", "--n", "1", "--m", "1"),
               size.survey_samples, next(seed), 0, "survey_compact_s"),
        survey(("--system", "rev-compact", "--n", "1", "--l", "1",
                "--m", "1"), size.survey_samples, next(seed), 0),
        survey(("--system", "ham-unique", "--n", "1", "--m", "1"),
               size.survey_escape_samples, "42",
               size.survey_escape_samples, "survey_escape_s"),
    ]


WORKLOADS = {"orbit": _orbit, "batch-small": _batch_small,
             "survey": _survey}

# the two commands each workload times on its own, reported as key_a_s
# and key_b_s so that every workload carries the same metric names
KEYS = {"orbit": ("freq_s", "fixedpoint_s"),
          "batch-small": ("invariants_s", "torus_deltas_s"),
          "survey": ("survey_compact_s", "survey_escape_s")}


def build(workload: str, seed: int, size: Size, data: Path) -> list[Op]:
    """The operations of one pass; the same seed gives the same argv."""
    return WORKLOADS[workload](random.Random(seed), size, data)
