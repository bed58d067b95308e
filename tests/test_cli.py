import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from catalog_oracle import shipped_hamiltonians

import toruslab
from toruslab import analysis, cli, integrators
from toruslab.cli import _build_parser, _parse_angles, _parse_omega, main
from toruslab.dsl import Add, Const, DerivedField

SQRT2 = math.sqrt(2.0)


class TestFlagParsing:
    def test_omega_tokens_expand_to_full_precision(self):
        assert _parse_omega("1,sqrt2") == (1.0, SQRT2)
        assert _parse_omega("sqrt3") == (math.sqrt(3.0),)
        assert _parse_omega("golden") == ((1.0 + math.sqrt(5.0)) / 2.0,)
        assert _parse_omega([1, 2.5]) == (1.0, 2.5)

    def test_pi_fractions(self):
        assert _parse_angles("pi/2,0") == (math.pi / 2, 0.0)
        assert _parse_angles("-pi/6") == (-math.pi / 6,)
        assert _parse_angles("pi") == (math.pi,)
        assert _parse_angles("0.25") == (0.25,)

    def test_bogus_family_is_a_usage_error(self, capsys):
        assert main(["simulate", "--system", "bogus"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["verify", "torus"]) == 2
        assert "--system is required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--system", "ham-unique", "--h", "0",
          "--out", "{tmp}"], "h must be positive"),
        (["simulate", "--system", "ham-unique", "--t", "nan",
          "--out", "{tmp}"], "--t"),
        (["--replay", "{tmp}/missing.json"], "missing.json"),
        (["verify", "torus", "--config", "{tmp}/array.json",
          "--out", "{tmp}"], "array.json"),
        (["verify", "torus", "--system", "ham-unique", "--config",
          "{tmp}/omega.json", "--out", "{tmp}"], "--omega"),
        (["verify", "torus", "--system", "ham-unique", "--config",
          "{tmp}/n.json", "--out", "{tmp}"], "--n"),
        (["verify", "rank", "--system", "ham-unique", "--points", "0",
          "--out", "{tmp}"], "--points"),
        (["verify", "invariants", "--system", "rev-unique", "--l", "1",
          "--out", "{tmp}"], "--system"),
        (["verify", "rank", "--system", "ham-unique", "--config",
          "{tmp}/fraction.json", "--out", "{tmp}"], "--n"),
        (["verify", "rank", "--system", "ham-unique", "--config",
          "{tmp}/bool.json", "--out", "{tmp}"], "--n"),
        (["survey", "--system", "ham-unique", "--samples", "50",
          "--horizon", "0.5", "--jobs", "1", "--out", "{tmp}"], "t_min"),
        (["verify", "torus", "--system", "ham-compact", "--config",
          "{tmp}/deltas.json", "--out", "{tmp}"], "--deltas"),
        (["--replay", "{tmp}/no-argv.json"], "no-argv.json"),
        (["--replay", "{tmp}/bad-argv.json"], "--system"),
        (["survey", "--system", "ham-unique", "--samples", "50",
          "--jobs", "0", "--out", "{tmp}"], "--jobs"),
        (["survey", "--system", "ham-unique", "--samples", "50",
          "--jobs", "-1", "--out", "{tmp}"], "--jobs"),
        (["simulate", "--system", "ham-unique", "--t", "1e300", "--h",
          "1e-300", "--out", "{tmp}"], "inf steps needed"),
        (["verify", "invariants", "--system", "ham-unique", "--method",
          "rk4", "--t", "1e300", "--h", "1e-300", "--out", "{tmp}"],
         "inf steps needed"),
        (["survey", "--system", "ham-unique", "--samples", "2",
          "--horizon", "1e300", "--out", "{tmp}"], "1e+302 steps needed"),
        (["survey", "--system", "ham-unique", "--n", "1", "--m", "1",
          "--samples", "3000000000", "--jobs", "1", "--out", "{tmp}"],
         "cap of 10,000,000 slots"),
        (["survey", "--system", "ham-unique", "--samples", "100000000000",
          "--out", "{tmp}"], "cap of 10,000,000 slots"),
        (["dsl", "check", "--file", "{tmp}/deep-parens.ham",
          "--out", "{tmp}"], "nests too deeply"),
        (["oracle", "period", "--config", "{tmp}/deep.json",
          "--out", "{tmp}"], "nests too deeply"),
        (["verify", "torus", "--system", "ham-unique", "--config",
          "{tmp}/tol.json", "--out", "{tmp}"], "'tol'"),
        (["verify", "invariants", "--system", "ham-unique", "--config",
          "{tmp}/tol-h.json", "--out", "{tmp}"], "'tol-h'"),
        (["survey", "--system", "ham-unique", "--config",
          "{tmp}/typo.json", "--out", "{tmp}"], "'sampels'"),
        (["verify", "torus", "--system", "ham-unique", "--deltas",
          "--out", "{tmp}"], "has no delta-torus lattice"),
        (["verify", "torus", "--system", "rev-unique", "--l", "1",
          "--deltas", "--out", "{tmp}"], "has no delta-torus lattice"),
        (["simulate", "--system", "control", "--n", "3", "--out", "{tmp}"],
         "fixed at n=1, m=0"),
        (["simulate", "--system", "control", "--l", "1", "--out", "{tmp}"],
         "l is only meaningful"),
        (["simulate", "--system", "control", "--omega", "1,2",
          "--out", "{tmp}"], "omega must have length n=1"),
        (["--replay", "{tmp}/argv-number.json"], "argv-number.json"),
        (["--replay", "{tmp}/argv-numbers.json"], "argv-numbers.json"),
        (["--replay", "{tmp}/verdicts-list.json"], "verdicts-list.json"),
        (["survey", "--system", "ham-unique", "--box", "1e308",
          "--samples", "5", "--jobs", "1", "--out", "{tmp}"], "too wide"),
        (["verify", "torus", "--system", "ham-unique", "--t", "1e-13",
          "--out", "{tmp}"], "too short to take a step"),
        (["verify", "invariants", "--system", "ham-unique", "--t", "1e-13",
          "--out", "{tmp}"], "too short to take a step"),
        (["verify", "reversibility", "--system", "rev-unique", "--l", "1",
          "--t", "1e-13", "--out", "{tmp}"], "too short to take a step"),
        (["simulate", "--system", "ham-unique", "--method", "adaptive",
          "--t", "1e-13", "--out", "{tmp}"], "too short to take a step"),
    ], ids=["h-zero", "t-nan", "replay-missing-file", "config-array",
            "config-omega-number", "config-n-list", "points-zero",
            "invariants-reversible", "config-n-fraction", "config-n-bool",
            "survey-horizon-below-t-min", "config-deltas-fraction",
            "replay-no-argv", "replay-bad-argv", "survey-jobs-zero",
            "survey-jobs-negative", "simulate-step-count-overflows",
            "invariants-step-count-overflows", "survey-step-count-huge",
            "survey-samples-past-cap", "survey-pool-samples-past-cap",
            "dsl-deep-parens", "config-deep-json",
            "config-fixed-key", "config-fixed-key-dashed",
            "config-unknown-key", "deltas-ham-unique", "deltas-rev-unique",
            "control-n", "control-l", "control-omega-entries",
            "replay-argv-number", "replay-argv-numbers",
            "replay-verdicts-list", "survey-box-too-wide",
            "torus-no-step", "invariants-no-step", "reversibility-no-step",
            "adaptive-no-step"])
    def test_bad_input_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                   argv, named):
        (tmp_path / "array.json").write_text("[1, 2]")
        (tmp_path / "omega.json").write_text('{"omega": 5}')
        (tmp_path / "n.json").write_text('{"n": [1]}')
        (tmp_path / "fraction.json").write_text('{"n": 1.5, "points": 2.9}')
        (tmp_path / "bool.json").write_text('{"n": true}')
        (tmp_path / "deltas.json").write_text('{"deltas": 0.5}')
        (tmp_path / "tol.json").write_text('{"tol": 1e-3}')
        (tmp_path / "tol-h.json").write_text('{"tol-h": 1}')
        (tmp_path / "typo.json").write_text('{"sampels": 5}')
        (tmp_path / "no-argv.json").write_text(
            '{"verdicts": {}, "outputs": {}}')
        (tmp_path / "bad-argv.json").write_text(
            '{"argv": ["verify", "torus"], "verdicts": {}, "outputs": {}}')
        (tmp_path / "argv-number.json").write_text(
            '{"argv": 5, "verdicts": {}, "outputs": {}}')
        (tmp_path / "argv-numbers.json").write_text(
            '{"argv": [1, 2], "verdicts": {}, "outputs": {}}')
        (tmp_path / "verdicts-list.json").write_text(
            '{"argv": ["systems"], "verdicts": [], "outputs": {}}')
        # each nests deeper than Python's recursion limit
        (tmp_path / "deep-parens.ham").write_text(
            "pairs: (q,p)\n" + "(" * 3000 + "p" + ")" * 3000 + "\n")
        (tmp_path / "deep.json").write_text("[" * 10**5 + "]" * 10**5)
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert named in lines[0]
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "manifest.json").exists()

    def test_out_of_memory_exits_2_with_one_error_line(self, tmp_path,
                                                       capsys, monkeypatch):
        # a --points too large for the machine; raised, not allocated
        def too_large(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "bracket_matrix", too_large)
        assert main(["verify", "brackets", "--system", "ham-unique",
                     "--points", "5", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: input needs more memory than this machine has"]
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "torus", "--system", "ham-unique", "--tol", "1e-3"],
        ["verify", "invariants", "--system", "ham-unique", "--tol-h", "1"],
        ["verify", "brackets", "--system", "ham-unique", "--scheme", "fd"],
        ["freq", "--system", "ham-compact", "--offset", "pi/2",
         "--store-every", "5"],
        ["simulate", "--system", "ham-unique", "--store-every", "5"],
        ["oracle", "period", "--zeta", "1", "--tol", "1"],
    ], ids=["verify-torus-tol", "verify-invariants-tol-h",
            "verify-brackets-scheme", "freq-store-every",
            "simulate-store-every", "oracle-period-tol"])
    def test_fixed_setting_has_no_flag(self, tmp_path, capsys, argv):
        # a verdict's tolerance is the paper's, not the run's to relax
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert (f"unrecognized arguments: {argv[-2]} {argv[-1]}"
                in capsys.readouterr().err)
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["monodromy", "--system", "control", "--nu", "0.3"],
        ["simulate", "--system", "ham-unique", "--angles", "pi/2"],
        ["simulate", "--system", "ham-unique", "--seed", "1"],
        ["monodromy", "--system", "control", "--seed", "1"],
        ["fixedpoint", "--system", "control", "--seed", "1"],
    ], ids=["monodromy-nu", "simulate-angles", "simulate-seed",
            "monodromy-seed", "fixedpoint-seed"])
    def test_retired_flag_is_refused(self, tmp_path, capsys, argv):
        # no caller set these, and the commands read no seed
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert (f"unrecognized arguments: {argv[-2]} {argv[-1]}"
                in capsys.readouterr().err)
        assert not (tmp_path / "manifest.json").exists()

    def test_replay_of_a_retired_flag_is_refused(self, tmp_path, capsys):
        # a manifest written while --nu was a flag carries it in its argv
        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            "argv": ["monodromy", "--n", "1", "--m", "0", "--nu", "0.3",
                     "--system", "control"],
            "verdicts": {"monodromy": "PASS"}, "outputs": {}}))
        assert main(["--replay", str(old)]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --nu 0.3" in captured.err
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == [old]


class TestParser:
    @pytest.mark.parametrize("argv", [
        [], ["systems"], ["simulate"], ["verify"], ["monodromy"],
        ["fixedpoint"], ["freq"], ["survey"], ["dsl"], ["oracle"]])
    def test_every_help_exits_0(self, capsys, argv):
        assert main(argv + ["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: toruslab")

    @pytest.mark.parametrize("argv, foreign", [
        (["verify", "rank", "--system", "ham-unique", "--points", "5",
          "--t", "99"], "--t 99"),
        (["verify", "torus", "--system", "ham-unique", "--t", "5",
          "--points", "5"], "--points 5"),
        (["verify", "brackets", "--system", "ham-unique", "--deltas"],
         "--deltas"),
    ], ids=["rank-t", "torus-points", "brackets-deltas"])
    def test_flag_of_another_action_is_refused(self, tmp_path, capsys,
                                               argv, foreign):
        # a flag the run would ignore must not pass for one it obeyed
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert (f"unrecognized arguments: {foreign}"
                in capsys.readouterr().err)
        assert not (tmp_path / "manifest.json").exists()

    def test_each_command_line_takes_only_its_own_flags(self):
        parser = _build_parser()
        for key, (_, flags) in cli._COMMANDS.items():
            leaf = parser
            for word in key:
                sub, = (a for a in leaf._actions
                        if isinstance(a, argparse._SubParsersAction))
                leaf = sub.choices[word]
            options = {s for a in leaf._actions for s in a.option_strings}
            assert options == {"-h", "--help", "--out", "--config", *(
                "--" + name.replace("_", "-")
                for name in cli._settable(flags))}, key
            assert parser.parse_args(list(key)).key == key

    def test_built_once_per_process(self, tmp_path, capsys):
        parser = _build_parser()
        assert main(["systems", "list", "--out", str(tmp_path)]) == 0
        assert main(["oracle", "period", "--zeta", "1",
                     "--out", str(tmp_path)]) == 0
        assert _build_parser() is parser
        assert _build_parser.cache_info().misses == 1


class TestSystemsList:
    def test_lists_all_families(self, tmp_path, capsys):
        assert main(["systems", "list", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for name in ("ham-unique", "ham-compact", "rev-unique",
                     "rev-compact", "control"):
            assert name in out
        assert (tmp_path / "manifest.json").exists()


class TestSimulate:
    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_escaping_run_still_writes_artifacts(self, tmp_path, capsys,
                                                 method):
        rc = main(["simulate", "--system", "ham-unique", "--n", "1",
                   "--point", "0.4,0,0.1,0.1", "--t", "5",
                   "--method", method, "--out", str(tmp_path)])
        assert rc == 0
        assert "escaped" in capsys.readouterr().out
        csv = (tmp_path / "trajectory.csv").read_text()
        assert csv.splitlines()[0] == "t,u_1,phi_1,x,y"
        assert (tmp_path / "trajectory.svg").read_text().startswith("<svg")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["metrics"]["escaped"] is True

    def test_torus_run_reaches_the_end(self, tmp_path, capsys):
        rc = main(["simulate", "--system", "rev-compact", "--n", "1",
                   "--l", "1", "--t", "20", "--out", str(tmp_path)])
        assert rc == 0
        assert "reached t=20" in capsys.readouterr().out

    @pytest.mark.parametrize("method, steps, rejected", [
        ("rk4", 328, 0), ("adaptive", 279, 1)])
    def test_manifest_counts_the_steps(self, tmp_path, capsys, method,
                                       steps, rejected):
        # an escaping run; its trajectory counts the steps up to the
        # escape, and the adaptive one the steps it rejected
        argv = ["simulate", "--system", "ham-unique", "--n", "1",
                "--point", "0.4,0,0.1,0.1", "--t", "5", "--method", method]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        work = json.loads((tmp_path / "manifest.json").read_text())[
            "telemetry"]
        assert work == {"steps": steps, "rejected_steps": rejected}
        sys_ = toruslab.build_system(toruslab.SystemParams(
            "ham-unique", n=1, omega=(1.0,)))
        with pytest.raises(toruslab.errors.NumericalBlowup) as blowup:
            integrators.integrate(sys_, toruslab.MixedPoint.of(
                sys_.layout, [0.4, 0.0, 0.1, 0.1]), 5.0,
                integrators.IntegratorConfig(method=method, h=1e-2))
        traj = blowup.value.trajectory
        assert (traj.n_steps, traj.n_rejected) == (steps, rejected)


class TestVerify:
    def test_torus_passes_with_sqrt2(self, tmp_path):
        rc = main(["verify", "torus", "--system", "ham-unique",
                   "--n", "2", "--m", "1", "--omega", "1,sqrt2",
                   "--t", "20", "--out", str(tmp_path)])
        assert rc == 0
        docs = json.loads((tmp_path / "report.json").read_text())
        assert docs[0]["verdict"] == "pass"

    def test_torus_delta_sweep_is_opt_in(self, tmp_path, capsys):
        rc = main(["verify", "torus", "--system", "ham-compact",
                   "--n", "1", "--m", "0", "--t", "10",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "delta[" not in capsys.readouterr().out
        rc = main(["verify", "torus", "--system", "ham-compact",
                   "--n", "1", "--m", "0", "--t", "10", "--deltas",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "torus[canonical]: PASS" in out
        assert out.count("delta[") == 7

    def test_torus_delta_sweep_from_a_config_switch(self, tmp_path,
                                                    capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"deltas": True}))
        rc = main(["verify", "torus", "--system", "ham-compact",
                   "--n", "1", "--m", "0", "--t", "10",
                   "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.count(": PASS") == 8
        docs = json.loads((tmp_path / "report.json").read_text())
        assert len(docs) == 8

    def test_invariants(self, tmp_path):
        rc = main(["verify", "invariants", "--system", "ham-unique",
                   "--n", "1", "--m", "1", "--t", "20",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_invariants_at_twelve_slots(self, tmp_path):
        # n = 3, m = 2: each of the 3 points marches alone through the
        # compiled runner of 12 slots
        rc = main(["verify", "invariants", "--system", "ham-compact",
                   "--n", "3", "--m", "2", "--method", "midpoint",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["parameters"]["tol_h"] == 1e-8
        assert report["metrics"]["escaped"] == 0

    def test_brackets_and_rank(self, tmp_path):
        assert main(["verify", "brackets", "--system", "ham-unique",
                     "--n", "1", "--m", "1", "--points", "100",
                     "--out", str(tmp_path)]) == 0
        assert main(["verify", "rank", "--system", "ham-unique",
                     "--n", "1", "--m", "1", "--points", "10",
                     "--out", str(tmp_path)]) == 0

    def test_rank_fail_reports_the_degenerate_point(self, tmp_path, capsys,
                                                    monkeypatch):
        # the third of five generic points drops a rank; the report names
        # that rank, not the full rank of the other four
        real, calls = cli.integral_jacobian_rank, []

        def one_degenerate(sys_, p):
            calls.append(p)
            return real(sys_, p) - (len(calls) == 3)

        monkeypatch.setattr(cli, "integral_jacobian_rank", one_degenerate)
        assert main(["verify", "rank", "--system", "ham-unique",
                     "--n", "1", "--m", "1", "--points", "5",
                     "--out", str(tmp_path)]) == 1
        assert "rank: generic 2/3," in capsys.readouterr().out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["verdict"] == "fail"
        assert doc["metrics"]["generic_rank"] == 2
        assert doc["metrics"]["expected"] == 3

    def test_reversibility_pass_and_fail(self, tmp_path):
        assert main(["verify", "reversibility", "--system", "rev-unique",
                     "--n", "1", "--l", "1", "--points", "20",
                     "--t", "2", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["metrics"]["parity_proved"] is True
        assert doc["metrics"]["parity_breaks_at"] is None
        # large amplitudes escape before t and the deviation is infinite
        rc = main(["verify", "reversibility", "--system", "ham-unique",
                   "--n", "1", "--scale", "0.8", "--points", "20",
                   "--t", "5", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("family, scale, points, rc, steps, row_steps", [
        ("rev-compact", "0.05", 2, 0, 5000, 20000),
        ("rev-unique", "0.5", 2, 1, 4705, 14788),
        ("rev-unique", "0.5", 20, 1, 5000, 142790)],
        ids=["every-row-lives", "rows-escape", "rows-escape-in-a-batch"])
    def test_reversibility_manifest_counts_the_marchs_work(
            self, tmp_path, capsys, family, scale, points, rc, steps,
            row_steps):
        # the points and their images, 5,000 steps of 1e-3 each way, row
        # by row on floats at 2 points and as one batch at 20; a row that
        # escapes takes the steps up to its escape, counted here by
        # marching each row alone
        assert main(["verify", "reversibility", "--system", family,
                     "--n", "1", "--l", "1", "--m", "1",
                     "--points", str(points), "--scale", scale,
                     "--seed", "3", "--out", str(tmp_path)]) == rc
        work = json.loads((tmp_path / "manifest.json").read_text())[
            "telemetry"]
        assert work == {"steps": steps, "row_steps": row_steps}
        sys_ = toruslab.build_system(toruslab.SystemParams(
            family, n=1, l=1, m=1, omega=(1.0,)))
        pts = float(scale) * np.random.default_rng(3).uniform(
            -1.0, 1.0, (points, sys_.dim))
        cfg = integrators.IntegratorConfig(h=1e-3)
        taken = [integrators._march(*integrators._fixed_step(
            sys_, cfg, row), t_end, cfg)[3]
            for row, t_end in zip([*pts, *sys_.involution(pts)],
                                  [5.0] * points + [-5.0] * points)]
        assert (max(taken), sum(taken)) == (steps, row_steps)

    @pytest.mark.parametrize("flags, steps, row_steps", [
        ((), 20, 60), (("--deltas",), 20, 1920)],
        ids=["canonical", "deltas"])
    def test_torus_manifest_counts_the_marchs_work(self, tmp_path, capsys,
                                                   flags, steps, row_steps):
        # 3 starts on each torus, the canonical one or the 32 of the delta
        # lattice (row by row on floats, or as one 96-row batch), 20 steps
        # of 0.05 each; a start on an invariant torus never escapes. The
        # report does not carry the counts
        argv = ["verify", "torus", "--system", "ham-compact", "--n", "1",
                "--m", "1", "--t", "1", *flags]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        work = json.loads((tmp_path / "manifest.json").read_text())[
            "telemetry"]
        assert work == {"steps": steps, "row_steps": row_steps}
        report = (tmp_path / "report.json").read_text()
        assert "telemetry" not in report and "row_steps" not in report

    @pytest.mark.parametrize("scale, t, rc, steps, row_steps", [
        ("1e-3", "1", 0, 100, 300), ("2", "2", 1, 150, 361)],
        ids=["every-row-lives", "every-row-escapes"])
    def test_invariants_manifest_counts_the_marchs_work(
            self, tmp_path, capsys, scale, t, rc, steps, row_steps):
        # 3 points, midpoint steps of 1e-2, row by row on floats; a row
        # that escapes takes the steps up to its escape, counted here by
        # marching each row alone
        assert main(["verify", "invariants", "--system", "ham-unique",
                     "--points", "3", "--t", t, "--scale", scale,
                     "--seed", "3", "--out", str(tmp_path)]) == rc
        work = json.loads((tmp_path / "manifest.json").read_text())[
            "telemetry"]
        assert work == {"steps": steps, "row_steps": row_steps}
        sys_ = toruslab.build_system(toruslab.SystemParams(
            "ham-unique", n=1, omega=(1.0,)))
        pts = float(scale) * np.random.default_rng(3).uniform(
            -1.0, 1.0, (3, sys_.dim))
        cfg = integrators.IntegratorConfig(method="midpoint", h=1e-2)
        taken = [integrators._march(*integrators._fixed_step(
            sys_, cfg, row), float(t), cfg)[3] for row in pts]
        assert (max(taken), sum(taken)) == (steps, row_steps)


class TestMonodromy:
    def test_torus_family_is_identity(self, tmp_path):
        rc = main(["monodromy", "--system", "ham-unique", "--n", "1",
                   "--m", "0", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for re_im in report["metrics"]["multipliers"]:
            assert abs(complex(*re_im) - 1.0) < 1e-6

    def test_control_rotates(self, tmp_path, capsys):
        rc = main(["monodromy", "--system", "control",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "0.951057" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, slots", [
        (["ham-unique", "--n", "1", "--m", "0"], 4 + 9),
        (["ham-unique", "--n", "1", "--m", "1"], 6 + 13),
        (["control"], 4 + 4)], ids=["ham-unique-m0", "ham-unique-m1",
                                    "control"])
    def test_manifest_counts_the_tangent_work(self, tmp_path, capsys,
                                              flags, slots):
        # one period 2 pi in rk4 steps of 1e-3, 6,283 whole steps and a
        # short last one, on the state and the entries of M that move
        assert main(["monodromy", "--system", *flags,
                     "--out", str(tmp_path)]) == 0
        work = json.loads((tmp_path / "manifest.json").read_text())[
            "telemetry"]
        assert work == {"steps": 6284, "tangent_slots": slots}


class TestFixedpoint:
    def test_zero_energy_origin(self, tmp_path, capsys):
        rc = main(["fixedpoint", "--system", "ham-unique", "--n", "1",
                   "--energy", "0", "--out", str(tmp_path)])
        assert rc == 0
        assert "singular linearization" in capsys.readouterr().out

    def test_guess_is_the_start(self, tmp_path, capsys):
        # from the default start, the origin, the linearization is
        # singular; from this guess Newton ends next to it instead
        rc = main(["fixedpoint", "--system", "ham-unique", "--n", "1",
                   "--energy", "0", "--guess", "0,0,0.01,0.01",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "found" in out and "singular" not in out

    def test_off_level_fails(self, tmp_path):
        rc = main(["fixedpoint", "--system", "ham-unique", "--n", "1",
                   "--energy", "0.1", "--out", str(tmp_path)])
        assert rc == 1


class TestFreq:
    def test_compact_offset_torus(self, tmp_path, capsys):
        rc = main(["freq", "--system", "ham-compact", "--n", "1",
                   "--offset", "pi/2", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["metrics"]["measured"]["y"] - SQRT2) < 1e-4
        assert report["metrics"]["zeta"] == pytest.approx(1.0)
        assert (tmp_path / "frequencies.svg").exists()

    def test_compact_torus_of_ten_slots(self, tmp_path):
        # n = 3, m = 1: one state of 10 slots through the compiled runner
        rc = main(["freq", "--system", "ham-compact", "--n", "3", "--m",
                   "1", "--omega", "1,sqrt2,sqrt3", "--offset",
                   "pi/2,pi/3,pi/6", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["parameters"]["tol"] == 1e-4
        assert report["metrics"]["max_gap"] <= 1e-4

    def test_manifest_counts_the_steps(self, tmp_path, capsys):
        # 1,400 whole rk4 steps of 0.05 and a remainder step of 0.02
        assert main(["freq", "--system", "rev-compact", "--n", "1",
                     "--l", "1", "--offset", "pi/2", "--t", "70.02",
                     "--h", "0.05", "--out", str(tmp_path)]) == 0
        work = json.loads((tmp_path / "manifest.json").read_text())[
            "telemetry"]
        assert work == {"steps": 1401, "rejected_steps": 0}
        report = json.loads((tmp_path / "report.json").read_text())
        assert "telemetry" not in report and "steps" not in report

    def test_unique_family_rejected(self, tmp_path, capsys):
        rc = main(["freq", "--system", "ham-unique", "--n", "1",
                   "--offset", "pi/2", "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestSurvey:
    def test_small_survey_passes(self, tmp_path, capsys):
        rc = main(["survey", "--system", "rev-unique", "--n", "1",
                   "--l", "1", "--samples", "200", "--seed", "5",
                   "--jobs", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert "0 candidates" in capsys.readouterr().out
        lines = (tmp_path / "survey.csv").read_text().strip().splitlines()
        assert len(lines) == 201

    def test_compact_family_defaults_to_its_isolation_domain(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        real = cli.isolation_domain

        def spy(sys_):
            calls.append(sys_.family)
            return real(sys_)

        monkeypatch.setattr(cli, "isolation_domain", spy)
        rc = main(["survey", "--system", "ham-compact", "--n", "1",
                   "--samples", "20", "--jobs", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert calls == ["ham-compact"]
        assert "0 candidates" in capsys.readouterr().out

    def test_job_count_changes_no_byte_of_a_retiring_survey(self, tmp_path,
                                                             capsys):
        # ham-compact rows leave the isolation domain and are retired; the
        # blocks of the process pool must retire the same rows at the
        # same steps as one block
        docs = []
        for jobs in ("1", "4"):
            out = tmp_path / jobs
            assert main(["survey", "--system", "ham-compact", "--n", "1",
                         "--m", "1", "--samples", "40", "--seed", "3",
                         "--jobs", jobs, "--out", str(out)]) == 0
            docs.append(((out / "survey.csv").read_bytes(),
                         json.loads((out / "report.json").read_text())))
        (csv1, rep1), (csv4, rep4) = docs
        assert csv1 == csv4
        assert rep1["metrics"] == rep4["metrics"]
        assert rep1["metrics"]["retired"] > 0
        assert rep1["metrics"]["escaped"] == 0
        out = capsys.readouterr().out
        assert (f"from 40 samples (0 escaped, {rep1['metrics']['retired']}"
                " retired, 0 skipped)") in out

    @pytest.mark.parametrize("flags", [
        ["--system", "rev-compact", "--l", "1", "--m", "1"],
        ["--system", "ham-unique", "--m", "1"]],
        ids=["rev-compact", "ham-unique"])
    def test_two_worker_pool_writes_the_bytes_of_one_block(self, tmp_path,
                                                           capsys, flags):
        # the pool's workers receive the System pickled, the in-process
        # block the System itself
        csvs = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main(["survey", *flags, "--samples", "40", "--seed", "3",
                         "--jobs", jobs, "--out", str(out)]) == 0
            csvs.append((out / "survey.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_manifest_counts_the_marchs_work(self, tmp_path, capsys, jobs):
        # each marched row takes the steps up to the one it leaves at (its
        # exit_t over h), or all 2,000; the block march takes a few more
        # past a row's drop, which row_steps counts and the last key names
        assert main(["survey", "--system", "ham-compact", "--n", "1",
                     "--m", "1", "--samples", "40", "--seed", "3",
                     "--jobs", jobs, "--out", str(tmp_path)]) == 0
        work = json.loads((tmp_path / "manifest.json").read_text())[
            "telemetry"]
        metrics = json.loads((tmp_path / "report.json").read_text())[
            "metrics"]
        rows = np.loadtxt(tmp_path / "survey.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        exit_t = rows[:, 6]
        lived = np.where(np.isnan(exit_t), 2000, np.round(exit_t / 1e-2))
        assert work["escaped"] == metrics["escaped"] == 0
        assert work["retired"] == metrics["retired"] > 0
        workers = min(int(jobs), len(os.sched_getaffinity(0)))
        assert work["steps"] == 2000 * workers
        # at 40 rows or fewer, every block is of 16 steps
        assert work["blocks"] == 125 * workers
        assert work["row_steps"] - work["row_steps_past_drop"] \
            == lived.sum()
        assert 0 <= work["row_steps_past_drop"] \
            <= (integrators._BLOCK_STEPS - 1) * work["retired"]

    def test_uncertified_box_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["survey", "--system", "ham-compact", "--n", "1",
                   "--samples", "10", "--box", "2.0",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestDsl:
    def test_shipped_text_passes(self, tmp_path):
        path = tmp_path / "h.ham"
        path.write_text(shipped_hamiltonians()["ham_unique_n1_m1"])
        rc = main(["dsl", "check", "--file", str(path),
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_malformed_text_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.ham"
        path.write_text("pairs: (y,x)\nsin(x\n")
        rc = main(["dsl", "check", "--file", str(path),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "parse failed" in capsys.readouterr().out

    def test_literal_out_of_range_fails(self, tmp_path, capsys):
        path = tmp_path / "big.ham"
        path.write_text("pairs: (y,x)\n1e400*x^2 + y\n")
        rc = main(["dsl", "check", "--file", str(path),
                   "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "dsl-parse: FAIL" in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("energy", ["1e300*1e300*x^2 + y",
                                        "2^2000*x^2 + y"],
                             ids=["product", "power"])
    def test_energy_that_overflows_fails(self, tmp_path, capsys, energy):
        # every literal is finite, the product or the power is not
        path = tmp_path / "inf.ham"
        path.write_text(f"pairs: (y,x)\n{energy}\n")
        rc = main(["dsl", "check", "--file", str(path),
                   "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "dsl-roundtrip: FAIL" in captured.out
        assert "dsl-gradients: FAIL" in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("terms", [
        ["0.0001*p*p"] * 5000,
        [f"0.001*p^{a}*q^{b}" for a in range(1, 51) for b in range(100)]],
        ids=["p-squared", "monomials"])
    def test_a_text_of_5000_terms_passes(self, tmp_path, capsys, terms):
        # far past Python's recursion limit: no walker of an expression
        # tree takes a frame per node
        path = tmp_path / "long.ham"
        path.write_text("pairs: (q,p)\n" + "+".join(terms) + "\n")
        rc = main(["dsl", "check", "--file", str(path),
                   "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 0, captured.out
        assert "Traceback" not in captured.out + captured.err

    @staticmethod
    def _passes_every_check(tmp_path, capsys, text):
        path = tmp_path / "long-sum.ham"
        path.write_text(f"pairs: (q,p)\n{text}\n")
        rc = main(["dsl", "check", "--file", str(path),
                   "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 0, captured.out
        assert "dsl-gradients: PASS" in captured.out
        assert captured.err == ""
        doc = json.loads((tmp_path / "report.json").read_text())
        return doc["metrics"]["gradient_dev"]

    def test_a_long_sum_of_p_parses_and_round_trips(self, tmp_path, capsys):
        # and differentiates: the gradient check's reference is the
        # complex step, which takes no difference of two values of H, so
        # its error does not grow with |H| = 900|p|. A central difference
        # of step 1e-6 missed the absolute 1e-6 here
        text = "+".join(["p"] * 900)
        assert self._passes_every_check(tmp_path, capsys, text) <= 1e-10

    def test_a_long_sum_of_p_squared_differentiates(self, tmp_path, capsys):
        # |H| = 5000 p^2, where a central difference erred by 4e-4
        text = "+".join(["p*p"] * 5000)
        assert self._passes_every_check(tmp_path, capsys, text) <= 1e-7

    def test_a_wrong_rate_fails_the_gradient_check(self, tmp_path, capsys,
                                                   monkeypatch):
        # the rate of q, dH/dp, off by 1e-5 at every point
        right = cli.hamiltonian_vector_field

        def wrong(energy, pairing):
            rates = dict(right(energy, pairing).rate_exprs)
            rates["q"] = Add(rates["q"], Const(1e-5))
            return DerivedField(rate_exprs=rates)

        monkeypatch.setattr(cli, "hamiltonian_vector_field", wrong)
        path = tmp_path / "h.ham"
        path.write_text("pairs: (q,p)\np*p + sin(q)\n")
        rc = main(["dsl", "check", "--file", str(path),
                   "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "dsl-roundtrip: PASS" in captured.out
        assert "dsl-gradients: FAIL" in captured.out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["metrics"]["gradient_dev"] == pytest.approx(1e-5)

    def test_overflow_report_is_strict_json(self, tmp_path, capsys):
        path = tmp_path / "inf.ham"
        path.write_text("pairs: (y,x)\n1e300*1e300*x^2 + y\n")
        rc = main(["dsl", "check", "--file", str(path),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "dsl-roundtrip: FAIL" in capsys.readouterr().out

        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        doc = json.loads((tmp_path / "report.json").read_text(),
                         parse_constant=refuse)
        assert doc["metrics"]["roundtrip_dev"] is None
        assert doc["metrics"]["gradient_dev"] is None

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["dsl", "check", "--file", str(tmp_path / "no.ham"),
                   "--out", str(tmp_path)])
        assert rc == 2


class TestOracle:
    def test_period_matches(self, tmp_path, capsys):
        rc = main(["oracle", "period", "--zeta", "1.0",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "4.442882938158" in capsys.readouterr().out

    def test_zero_offset_rejected(self, tmp_path):
        assert main(["oracle", "period", "--zeta", "0",
                     "--out", str(tmp_path)]) == 2


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "system": "ham-unique", "n": 1, "m": 0,
            "omega": "1", "t": 50.0,
        }))
        rc = main(["verify", "torus", "--config", str(cfg),
                   "--t", "10", "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["t"] == 10.0
        assert manifest["config"]["system"] == "ham-unique"


class TestManifestAndReplay:
    def test_manifest_hashes_match_files(self, tmp_path):
        assert main(["verify", "rank", "--system", "ham-unique",
                     "--n", "1", "--m", "0", "--points", "5",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["tool"] == "toruslab"
        for name, digest in manifest["outputs"].items():
            body = (tmp_path / name).read_text().encode()
            assert hashlib.sha256(body).hexdigest() == digest

    def test_replay_reproduces(self, tmp_path, capsys):
        assert main(["verify", "brackets", "--system", "ham-unique",
                     "--n", "1", "--m", "0", "--points", "50",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        rc = main(["--replay", str(tmp_path / "manifest.json")])
        assert rc == 0
        assert "replay: reproduced" in capsys.readouterr().out

    def test_replay_reproduces_a_switch(self, tmp_path, capsys):
        assert main(["verify", "torus", "--system", "ham-compact",
                     "--n", "1", "--m", "0", "--t", "1", "--deltas",
                     "--out", str(tmp_path)]) == 0
        rc = main(["--replay", str(tmp_path / "manifest.json")])
        assert rc == 0
        assert "replay: reproduced" in capsys.readouterr().out

    def test_replay_runs_where_the_run_was_made(self, tmp_path, capsys,
                                                monkeypatch):
        # dsl check records its --file as given, a path relative to the
        # run's directory; the replay re-runs there from anywhere
        monkeypatch.chdir(Path(toruslab.__file__).parent)
        out = tmp_path / "run"
        assert main(["dsl", "check", "--file", "data/ham_compact_n1_m0.ham",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["parameters"]["file"] == "data/ham_compact_n1_m0.ham"
        monkeypatch.chdir(tmp_path)
        assert main(["--replay", str(out / "manifest.json")]) == 0
        assert "replay: reproduced" in capsys.readouterr().out
        assert Path.cwd() == tmp_path

    def test_replay_detects_drift(self, tmp_path, capsys):
        assert main(["verify", "rank", "--system", "ham-unique",
                     "--n", "1", "--m", "0", "--points", "5",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["verdicts"]["rank"] = "FAIL"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert main(["--replay", str(tampered)]) == 1

    def test_replay_detects_a_changed_output(self, tmp_path, capsys):
        assert main(["verify", "rank", "--system", "ham-unique",
                     "--n", "1", "--m", "0", "--points", "5",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["outputs"]["report.json"] = "0" * 64
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["--replay", str(tampered)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["replay: output report.json differs"]


class TestReports:
    """Every report.json comes from one builder and one JSON writer; these
    are the commands whose verdict is their own text, not pass/fail."""

    @pytest.mark.parametrize("argv, code, verdict, parameters, metrics", [
        (["simulate", "--system", "rev-compact", "--n", "1", "--l", "1",
          "--t", "1"], 0, "completed",
         {"system", "n", "m", "l", "t", "method", "h"},
         {"t_final", "n_steps", "escaped", "escape_time"}),
        (["fixedpoint", "--system", "ham-unique", "--n", "1",
          "--energy", "0"], 0, "found", {"iterations"},
         {"residual", "singular", "message"}),
        (["fixedpoint", "--system", "ham-unique", "--n", "1",
          "--energy", "0.01"], 1, "not-found", {"iterations"},
         {"residual", "singular", "message"}),
        (["survey", "--system", "rev-unique", "--n", "1", "--l", "1",
          "--samples", "20", "--seed", "7", "--jobs", "1"], 0,
         "corroborated",
         {"family", "samples", "horizon", "gain_tol", "gap_tol"},
         {"candidates", "escaped", "retired", "skipped",
          "min_offtorus_gain"}),
    ], ids=["simulate", "fixedpoint-found", "fixedpoint-not-found",
            "survey"])
    def test_verdict_parameters_and_metrics(self, tmp_path, capsys, argv,
                                            code, verdict, parameters,
                                            metrics):
        assert main(argv + ["--out", str(tmp_path)]) == code
        out = capsys.readouterr().out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc) == {"claim", "parameters", "verdict", "metrics",
                            "seed"}
        assert doc["verdict"] == verdict
        assert set(doc["parameters"]) == parameters
        assert set(doc["metrics"]) == metrics
        if argv[0] == "fixedpoint":  # the verdict is the search's status
            assert f"fixedpoint: {verdict}" in out
            assert doc["seed"] is None
        if argv[0] == "survey":
            assert doc["parameters"]["gain_tol"] == 1e-8
            assert doc["parameters"]["gap_tol"] == 1e-3
            assert doc["parameters"]["samples"] == 20
            assert doc["seed"] == 7

    @pytest.mark.parametrize("argv, fixed", [
        (["verify", "torus", "--system", "ham-unique", "--t", "1"],
         {"tol": 1e-8}),
        (["verify", "invariants", "--system", "ham-unique", "--t", "1"],
         {"tol_h": 1e-8, "tol_i": 1e-6}),
        (["verify", "brackets", "--system", "ham-unique", "--points", "10"],
         {"tol": 1e-8}),
        (["verify", "reversibility", "--system", "rev-unique", "--l", "1",
          "--points", "5", "--t", "1"], {"tol": 1e-6}),
        (["monodromy", "--system", "control"], {"tol": 1e-6}),
        (["freq", "--system", "ham-compact", "--offset", "pi/2"],
         {"tol": 1e-4, "store_every": 10}),
    ], ids=["verify-torus", "verify-invariants", "verify-brackets",
            "verify-reversibility", "monodromy", "freq"])
    def test_fixed_tolerances_are_recorded(self, tmp_path, argv, fixed):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        if argv[:2] == ["verify", "torus"]:
            doc, defined = doc[0], {"tol": analysis._KRONECKER_TOL}
        else:  # the command's one definition is its _COMMANDS entry
            key = tuple(a for a in argv[:2] if not a.startswith("--"))
            defined = cli._COMMANDS[key][1]
        for name, value in fixed.items():
            assert doc["parameters"][name] == value == defined[name]

    def test_survey_with_candidates_needs_review(self, tmp_path, capsys,
                                                 monkeypatch):
        real = cli.survey_uniqueness

        def with_candidates(*args, **kwargs):
            rep = real(*args, **kwargs)
            rep.candidate[:2] = True
            return rep

        monkeypatch.setattr(cli, "survey_uniqueness", with_candidates)
        assert main(["survey", "--system", "rev-unique", "--n", "1",
                     "--l", "1", "--samples", "10", "--jobs", "1",
                     "--out", str(tmp_path)]) == 1
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["verdict"] == "2 candidates need review"
        assert doc["metrics"]["candidates"] == 2
        assert "survey: FAIL" in capsys.readouterr().out


def test_readme_examples_parse():
    # so that the docs cannot keep a flag the command line no longer has
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    lines = [line for line in "".join(blocks).replace("\\\n", " ")
             .splitlines() if line.startswith("toruslab ")]
    assert len(lines) >= 13
    for line in lines:
        try:
            args = _build_parser().parse_args(
                shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
        cli._resolve(args, args.key)


def test_readme_quick_start_runs(capsys):
    # the first python block, as a reader would paste it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert capsys.readouterr().out.strip()
    # the printed rates match the closed form it quotes
    assert np.allclose(scope["meas"].values,
                       scope["spec"].predicted_frequency, atol=1e-4)


def test_report_writes_a_number_that_is_not_finite_as_null():
    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    text = cli._json_text(cli._report_doc(
        "c", {"t": math.inf}, "fail",
        {"devs": [1.0, np.float64(np.nan), (-math.inf,)]}, None))
    doc = json.loads(text, parse_constant=refuse)
    assert doc["parameters"] == {"t": None}
    assert doc["metrics"] == {"devs": [1.0, None, [None]]}


def _cli_env(**extra):
    """The environment of a subprocess that imports this toruslab."""
    src = str(Path(toruslab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return {**env, **extra}


@pytest.mark.parametrize("argv, unbuffered", [
    (["systems", "list"], False),
    (["oracle", "period", "--zeta", "1"], False),
    (["verify", "torus", "--system", "ham-unique", "--t", "1"], False),
    # it prints only the verdict lines, each a write of its own here
    (["verify", "torus", "--system", "ham-unique", "--t", "1"], True),
], ids=["systems-list", "oracle-period", "verify-torus",
        "verify-torus-unbuffered"])
def test_closed_stdout_exits_2_without_a_traceback(tmp_path, argv,
                                                   unbuffered):
    # standard output is a pipe whose reader has already gone
    read, write = os.pipe()
    os.close(read)
    extra = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "toruslab.cli", *argv,
             "--out", str(tmp_path)], stdout=write, stderr=subprocess.PIPE,
            text=True, timeout=120, env=_cli_env(**extra))
    finally:
        os.close(write)
    assert done.returncode == 2, done.stderr
    assert done.stderr == "error: standard output is closed\n"


def test_import_loads_no_network_or_process_modules():
    # each start of the CLI would pay for these, and no command needs them
    # until a survey starts a process pool
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, toruslab.cli; print(sorted({'urllib.request', "
         "'http.client', 'multiprocessing'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120, env=_cli_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
