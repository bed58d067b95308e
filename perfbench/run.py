"""toruslab benchmark: lab-session workloads timed through the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 20 --trace 0

One process is one client in a closed loop: it imports toruslab once and
then calls ``toruslab.cli.main(argv)`` in-process for each operation of a
pass, one after another, repeating passes for ``--seconds``. Every
operation's exit code, verdict and ``report.json`` go through the gate in
``ops.py``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run environment and the metrics under the names used in
``perfbench/README.md``. The exit code is 0 only when every operation
passed its gate, and 2 when the program cannot be imported. Every time
is rescaled to a nominal host speed measured during the run
(``speed.py``), because other tenants of a shared host swing raw times by
tens of percent.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs untraced
passes for half the time, then two traced passes (see ``tracer.py``) and
the fixed-size layer timings (``layers.py``), and reports those instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "toruslab" / "data"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH))

import ops  # noqa: E402
import shim  # noqa: E402
import speed  # noqa: E402

_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, {bench!r})\n"
    "import shim\n"
    "from pathlib import Path\n"
    "shim.load(Path({src!r}))\n"
    "print(time.monotonic())\n")


@dataclass
class Pass:
    seconds: list[float] = field(default_factory=list)  # per op, in cli.main
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0


def pass_seconds(passes: list[Pass], workload: list[ops.Op],
                 group: str | None = None) -> float:
    """Mean time of a pass, or of one group of its ops, over ``passes``.

    A mean, not a median: divided by the reference's mean over the same
    stretch of time (``speed.py``), it cancels the host's slow and fast
    swings best; in trial runs the spread of medians or minima was
    1.5-2 times larger.
    """
    return sum(sum(p.seconds[i] for p in passes) / len(passes)
               for i, op in enumerate(workload)
               if group is None or op.group == group)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=sorted(ops.SIZES),
                   help="command sizes; 'tiny' is for the smoke test")
    return p.parse_args(argv)


class Runner:
    """Runs one workload's operations and samples host speed between them."""

    def __init__(self, cli, workload: list[ops.Op]):
        self.cli = cli
        self.workload = workload
        self.speed = speed.Speed()

    def run_op(self, op: ops.Op, p: Pass) -> None:
        """Run one operation, time it and put it through its gate."""
        with tempfile.TemporaryDirectory(dir=WORK) as td:
            out = Path(td)
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    code = self.cli.main(list(op.argv) + ["--out", td])
            except Exception as e:  # a crash is a failure, not a verdict
                code = None
                problems = [f"raised {type(e).__name__}: {e}"]
            dt = time.perf_counter() - t0
            if code is not None:
                try:
                    report = json.loads((out / "report.json").read_text())
                    problems = op.problems(code, report)
                except (OSError, ValueError) as e:
                    problems = [f"no readable report.json ({e}), "
                                f"exit {code}"]
            p.bytes_written += sum(f.stat().st_size for f in out.iterdir()
                                   if f.name != "manifest.json")
        self.speed.sample(dt)
        p.seconds.append(dt)
        p.attempted += 1
        if problems:
            p.failed += 1
            print(f"FAIL {' '.join(op.argv)}: {'; '.join(problems)}\n"
                  f"{sink.getvalue()}", file=sys.stderr)

    def run_pass(self) -> Pass:
        p = Pass()
        for op in self.workload:
            self.run_op(op, p)
        return p

    def run_passes(self, seconds: float) -> list[Pass]:
        """Passes for about ``seconds``, at least one.

        A pass starts only while at least half a pass of time is left, so a
        run overshoots ``seconds`` by half a pass at most.
        """
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(self.run_pass())
            spent = time.perf_counter() - t0
            if spent + 0.5 * spent / len(passes) >= seconds:
                return passes

    def setup_seconds(self, repeats: int) -> list[float]:
        """Fresh interpreter until ``toruslab.cli`` is imported, per repeat."""
        code = _SETUP_CODE.format(bench=str(BENCH), src=str(SRC))
        out = []
        for _ in range(repeats):
            t0 = time.monotonic()
            done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                  capture_output=True, text=True,
                                  check=True, timeout=120)
            out.append(float(done.stdout.split()[-1]) - t0)
            self.speed.sample(out[-1])
        return out


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _env(args, fired: bool) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__
        if "scipy" in sys.modules else None,
        "cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "import_shim": fired,
        "jobs": 1,
        "untimed": "the parallel survey path (--jobs > 1): wall-clock "
                   "scaling on a few shared cores is not steady",
    }


_TIME_UNITS = ("s", "ms", "us", "ns")


def _metric(value, unit, factor=1.0):
    """One reported metric; times are rescaled to the nominal host speed."""
    return {"value": value * factor if unit in _TIME_UNITS else value,
            "unit": unit}


def end_to_end(runner: Runner, args, size) -> tuple[dict, dict, list]:
    setup = runner.setup_seconds(size.setup_repeats)
    passes = runner.run_passes(args.seconds)
    f = runner.speed.factor()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    key_a, key_b = ops.KEYS[args.workload]
    workload = runner.workload
    common = {
        "setup_s": _metric(statistics.median(setup), "s", f),
        "wall_s": _metric(pass_seconds(passes, workload), "s", f),
        "peak_rss_mb": _metric(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    a = _metric(pass_seconds(passes, workload, key_a), "s", f)
    b = _metric(pass_seconds(passes, workload, key_b), "s", f)
    metrics = {**common,
               "ok_ratio": _metric((attempted - failed) / attempted,
                                   "ratio"),
               "key_a_s": a, "key_b_s": b}
    named = {**common, "fail_ratio": _metric(failed / attempted, "ratio"),
             key_a: a, key_b: b, "passes": len(passes),
             "speed_factor": f,
             "wall_s_unscaled": pass_seconds(passes, workload)}
    return metrics, named, passes


def traced(runner: Runner, args, size) -> tuple[dict, dict, list]:
    import layers
    import tracer

    plain = runner.run_passes(args.seconds / 2)
    runs = []
    for _ in range(2):
        t = tracer.Tracer()
        with tracer.installed(t):
            p = runner.run_pass()
        runs.append((p, t))
    (p1, t1), (p2, t2) = runs
    if t1.counts != t2.counts:
        diff = {k: (t1.counts[k], t2.counts[k])
                for k in set(t1.counts) | set(t2.counts)
                if t1.counts[k] != t2.counts[k]}
        raise RuntimeError(f"work counts differ between passes: {diff}")
    passes = plain + [p1, p2]
    if len({p.bytes_written for p in passes}) != 1:
        raise RuntimeError("bytes written differ between passes")
    layer = layers.measure(size.layer_repeats, DATA)

    f = runner.speed.factor()
    workload = runner.workload
    metrics = {}
    selfs = [t.self_seconds() for t in (t1, t2)]
    self_s = {m: _metric(statistics.mean(s[m] for s in selfs), "s", f)
              for m in tracer.MODULES}
    # dsl and svgplot run only in orbit; elsewhere their self time is
    # exactly 0, so they are reported on the info line, not as metrics
    for module in tracer.EVERY_WORKLOAD:
        metrics[f"{module}.self_s"] = self_s[module]
    metrics["trace.overhead_s"] = _metric(
        pass_seconds([p1, p2], workload) - pass_seconds(plain, workload),
        "s", f)
    metrics["cli.bytes_written"] = _metric(p1.bytes_written, "bytes")
    c = t1.counts
    for name, value in (
            ("work.steps", c["work.steps"]),
            ("work.rejected_steps", c["work.rejected_steps"]),
            ("work.batch_row_steps", c["work.batch_row_steps"]),
            ("work.escaped_rows", c["work.escaped_rows"]),
            ("work.field_calls", c["systems.field.calls"]),
            ("work.field_rows", c["systems.field.rows"]),
            ("work.jacobian_calls", c["systems.jacobian.calls"]),
            ("work.poincare_calls", c["analysis.poincare_map.calls"])):
        metrics[name] = _metric(value, "count")
    for name, (value, unit) in layer.items():
        metrics[name] = _metric(value, unit, f)
    named = {"passes_untraced": len(plain), "passes_traced": 2,
             "speed_factor": f, "self_s": self_s}
    return metrics, named, passes


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        fired = shim.load(SRC)
    except ImportError as e:
        print(f"error: cannot import toruslab: {e}", file=sys.stderr)
        return 2
    from toruslab import cli

    size = ops.SIZES[args.size]
    workload = ops.build(args.workload, args.seed, size, DATA)
    WORK.mkdir(exist_ok=True)
    try:
        measure = traced if args.trace else end_to_end
        metrics, named, passes = measure(Runner(cli, workload), args, size)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"env": _env(args, fired), "named": named}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
