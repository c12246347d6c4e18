"""Command-line surface: commands, formats, determinism, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import ring_state

import stellar_zeros
from stellar_zeros import cli, dynamics, oracle, states, wavefunction
from stellar_zeros import (
    StellarState,
    matching_distance,
    random_stellar_state,
    state_to_json,
    stellar_state_from_zeros,
)
from stellar_zeros.cli import main


@pytest.fixture()
def tmp_state(tmp_path):
    def write(name, st):
        path = tmp_path / name
        path.write_text(json.dumps(state_to_json(st)))
        return str(path)

    return write


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def fock2():
    return StellarState(rank=2, core=np.array([0, 0, 1.0 + 0j]), alpha=0.0, chi=0.0)


# B = 0 (C != 0, so the zeros move) and omega^2 = 4AB - C^2 = 0.
EDGE_HAMILTONIANS = pytest.mark.parametrize(
    "hamiltonian", ["0.3,0,0.2,0.1,0.1,0", "0.5,0.5,1.0,0.1,-0.1,0"], ids=["B0", "omega2_0"]
)


def read_trajectories(path):
    by_method = {}
    for line in path.read_text().strip().splitlines()[1:]:
        t, _, re, im, method = line.split(",")
        by_method.setdefault(method, {}).setdefault(t, []).append(complex(float(re), float(im)))
    return by_method


class TestZerosCommand:
    def test_fock_two(self, capsys, tmp_state):
        path = tmp_state("fock2.json", fock2())
        rc, out, _ = run_cli(capsys, ["zeros", "--state", path])
        assert rc == 0
        vals = sorted(float(line.split()[0]) for line in out.strip().splitlines())
        assert abs(vals[0] + 1 / math.sqrt(2)) < 1e-12
        assert abs(vals[1] - 1 / math.sqrt(2)) < 1e-12

    def test_random_deterministic(self, capsys):
        rc1, out1, _ = run_cli(capsys, ["zeros", "--random", "2,5"])
        rc2, out2, _ = run_cli(capsys, ["zeros", "--random", "2,5"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_random_rank_fifteen(self, capsys):
        rc, out, _ = run_cli(capsys, ["zeros", "--random", "15,2"])
        assert rc == 0
        assert len(out.strip().splitlines()) == 15


class TestBuildCommand:
    def test_roundtrip_and_determinism(self, capsys, tmp_state, tmp_path):
        path = tmp_state("fock2.json", fock2())
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["build", "--state", path, "--out", str(out1)]) == 0
        assert main(["build", "--state", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        rc, out, _ = run_cli(capsys, ["zeros", "--state", str(out1)])
        assert rc == 0
        vals = sorted(float(line.split()[0]) for line in out.strip().splitlines())
        assert abs(vals[1] - 1 / math.sqrt(2)) < 1e-12

        data = json.loads(out1.read_text())
        assert set(data) == {"g2", "g1", "g0", "zeros", "leading"}


class TestEvolveCommand:
    def test_rank0_header_only(self, capsys, tmp_state, tmp_path):
        st = StellarState(rank=0, core=np.array([1.0 + 0j]), alpha=0.3, chi=0.1)
        path = tmp_state("r0.json", st)
        out = tmp_path / "traj.csv"
        rc = main(["evolve", "--state", path, "--time", "0,6.28,17", "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip() == "t,k,re,im,method"

    def test_both_methods_flagged(self, capsys, tmp_state, tmp_path):
        st = stellar_state_from_zeros([0.8j, -0.5 + 0.2j])
        path = tmp_state("r2.json", st)
        out = tmp_path / "traj.csv"
        rc = main(["evolve", "--state", path, "--time", "0,3.0,9", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,k,re,im,method"
        methods = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert methods == {"ode", "closed"}
        # 2 methods x 9 times x 2 zeros
        assert len(lines) - 1 == 2 * 9 * 2

    def test_ode_and_closed_agree_in_file(self, capsys, tmp_state, tmp_path):
        st = stellar_state_from_zeros([0.8j, -0.5 + 0.2j])
        path = tmp_state("r2.json", st)
        out = tmp_path / "traj.csv"
        main(["evolve", "--state", path, "--time", "0,3.0,9", "--out", str(out)])
        by_method = read_trajectories(out)
        for t, ode_zs in by_method["ode"].items():
            assert matching_distance(ode_zs, by_method["closed"][t]) < 1e-6

    @EDGE_HAMILTONIANS
    def test_both_methods_at_b_zero_and_omega2_zero(self, tmp_state, tmp_path, hamiltonian):
        path = tmp_state("r2.json", stellar_state_from_zeros([0.8j, -0.5 + 0.2j]))
        out = tmp_path / "traj.csv"
        rc = main(["evolve", "--state", path, "--hamiltonian", hamiltonian,
                   "--time", "0,2.0,9", "--method", "both", "--out", str(out)])
        assert rc == 0
        by_method = read_trajectories(out)
        assert set(by_method) == {"ode", "closed"}
        assert set(by_method["ode"]) == set(by_method["closed"])
        for t, ode_zs in by_method["ode"].items():
            assert matching_distance(ode_zs, by_method["closed"][t]) < 1e-6
        moved = matching_distance(by_method["closed"]["0"], by_method["closed"]["2"])
        assert moved > 1e-2

    def test_both_methods_on_a_grid_after_zero(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["evolve", "--random", "2,0", "--time", "1,2,3", "--out", str(out)])
        assert rc == 0
        by_method = read_trajectories(out)
        assert set(by_method["ode"]) == set(by_method["closed"]) == {"1", "1.5", "2"}
        for t, ode_zs in by_method["ode"].items():
            assert matching_distance(ode_zs, by_method["closed"][t]) < 1e-6

    def test_closed_form_above_rank_twenty(self, capsys):
        # The tracker's rank x rank eigen-solves come from LAPACK, which has
        # no order limit.
        rc, out, err = run_cli(
            capsys, ["evolve", "--random", "21,0", "--time", "0,3.0,9", "--method", "closed"]
        )
        assert rc == 0 and err == ""
        assert len(out.strip().splitlines()) - 1 == 9 * 21


class TestCrossingsCommand:
    def test_json_lines(self, capsys, tmp_state, tmp_path):
        st = stellar_state_from_zeros([1j])
        path = tmp_state("r1.json", st)
        out = tmp_path / "events.jsonl"
        rc = main(["crossings", "--state", path, "--out", str(out)])
        assert rc == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(events) == 2
        assert {e["flag"] for e in events} == {"crossing"}
        ts = sorted(e["t"] for e in events)
        assert abs(ts[0] - math.pi / 2) < 1e-8
        assert abs(ts[1] - 3 * math.pi / 2) < 1e-8


class TestAuditCommand:
    def test_rank1_verdict_line(self, capsys, tmp_state):
        path = tmp_state("r1.json", stellar_state_from_zeros([1j]))
        rc, out, _ = run_cli(capsys, ["audit", "--state", path])
        assert rc == 0
        assert "events=2" in out
        assert "outcome=GuaranteedAndObserved" in out


class TestVerifyCommand:
    def test_rank1_passes(self, capsys, tmp_state):
        path = tmp_state("r1.json", stellar_state_from_zeros([1j]))
        rc, out, _ = run_cli(capsys, ["verify", "--state", path])
        assert rc == 0
        assert "status=PASS" in out

    @EDGE_HAMILTONIANS
    def test_b_zero_and_omega2_zero_pass(self, capsys, tmp_state, hamiltonian):
        path = tmp_state("r2.json", stellar_state_from_zeros([0.8j, -0.5 + 0.2j]))
        rc, out, _ = run_cli(
            capsys, ["verify", "--state", path, "--hamiltonian", hamiltonian, "--time", "0,0.3,2"]
        )
        assert rc == 0
        assert "status=PASS" in out

    def test_explicit_time_grid_is_checked(self, capsys, tmp_state, monkeypatch):
        # The explicit grid equals the evolve default; verify must still run
        # its 64 times after T0.
        grids = []
        integrate = dynamics.integrate

        def spy(wf, H, ts):
            grids.append(len(ts))
            return integrate(wf, H, ts)

        monkeypatch.setattr(dynamics, "integrate", spy)
        path = tmp_state("r1.json", stellar_state_from_zeros([1j]))
        rc, out, _ = run_cli(capsys, ["verify", "--state", path, "--time", "0,6.283185307179586,65"])
        assert rc == 0
        assert "status=PASS" in out
        assert grids == [64]

    def test_time_grid_may_start_before_zero(self, capsys):
        # The times after T0 = -1 are 0, 1 and 2: t = 0 enters once, as a sample.
        rc, out, err = run_cli(capsys, ["verify", "--random", "1,0", "--time=-1,2,4"])
        assert (rc, err) == (0, "")
        assert "status=PASS" in out

    def test_builds_its_series_once(self, capsys, tmp_state, monkeypatch):
        # The dual path reads the one vector that sized the series, and the oracle
        # propagates the state at that vector's rows, all three times in one build.
        st = ring_state(3, 2)
        cutoff = states._series(st, 3.0).cutoff
        builds, rows = [], states._stellar_rows

        def recording(st, n, outer):
            builds.append((n, len(outer[0]) if np.ndim(outer[0]) else None))  # None: V = 1
            return rows(st, n, outer)

        monkeypatch.setattr(states, "_stellar_rows", recording)
        monkeypatch.setattr(oracle, "_stellar_rows", recording)
        path = tmp_state("ring.json", st)
        rc, out, _ = run_cli(capsys, ["verify", "--state", path])
        assert rc == 0
        assert "status=PASS" in out
        assert len(builds) == 2
        assert builds[0][1] is None and builds[0][0] > cutoff
        assert builds[1] == (cutoff, 3)

    @pytest.mark.parametrize("rank", [4, 5, 6])
    def test_high_rank_ring_passes(self, capsys, tmp_state, rank):
        # By t = 1.1 the zeros spread far enough that a box around them
        # reaches the truncation ring of the cutoff-80 Hermite series.
        path = tmp_state("ring.json", ring_state(rank, 0, radius=0.85, chi=0.12, alpha=0.08))
        rc, out, _ = run_cli(
            capsys, ["verify", "--state", path, "--hamiltonian", "0.45,0.52,-0.10,-0.10,0.08,0"]
        )
        assert rc == 0
        assert "status=PASS" in out

    @pytest.mark.parametrize("spec", ["6,1", "0,2"])
    def test_squeezed_random_state_passes(self, capsys, spec):
        # Squeezed enough that a series cleared only to 1e-9 leaves its
        # truncation tail above the 1e-7 dual-path bound.  The oracle's
        # frame series must still give the zeros to 1e-9.
        rc, out, _ = run_cli(capsys, ["verify", "--random", spec])
        assert rc == 0
        assert "status=PASS" in out
        assert float(re.search(r"oracle=(\S+)", out).group(1)) <= 1e-9

    @pytest.mark.parametrize(
        "spec, hamiltonian",
        [
            ("1,0", "0.50,0.45,0.08,0.12,-0.10,0"),
            ("6,1", "0.50,0.45,0.08,0.12,-0.10,0"),
            ("1,0", "0.45,0.52,-0.10,-0.10,0.08,0"),
            ("6,1", "0.45,0.52,-0.10,-0.10,0.08,0"),
            ("4,0", "0.45,0.52,-0.10,-0.10,0.08,0"),
            ("1,0", "0.5,0.5,0,0,0,0"),
        ],
    )
    def test_exact_propagation_passes(self, capsys, spec, hamiltonian):
        # The evolved amplitudes must carry no rounding floor, which would
        # leave the rank system without a null vector at the state's rank.
        rc, out, _ = run_cli(capsys, ["verify", "--random", spec, "--hamiltonian=" + hamiltonian])
        assert rc == 0
        assert "status=PASS" in out

    @pytest.mark.parametrize(
        "hamiltonian",
        ["0.5,0.5,0,0,0,0", "0.50,0.45,0.08,0.12,-0.10,0", "0.45,0.52,-0.10,-0.10,0.08,0"],
        ids=["hp", "h1", "h2"],
    )
    @pytest.mark.parametrize("spec", "1,0 2,1 5,0 6,2 3,4 5,1 1,1 3,1 4,0".split())
    def test_oracle_finds_every_random_zero(self, capsys, spec, hamiltonian):
        # In the lab-frame Hermite series some of these zeros cancel below any
        # double-precision floor (2,1 at t = 1.1 under the phase shift: |psi| =
        # 264 under a termwise envelope of 2e22).  The stellar frame resolves
        # all of them; a FAIL (exit 2) may remain on the dual path only.
        rc, out, err = run_cli(capsys, ["verify", "--random", spec, "--hamiltonian=" + hamiltonian])
        assert rc != 1, err
        assert float(re.search(r"oracle=(\S+)", out).group(1)) <= 1e-4

    def test_series_past_the_cap_is_refused_before_propagating(self, capsys, tmp_state, monkeypatch):
        # This state's series has N = 15,961, past the cap, so verify names the cap
        # before anything is propagated or solved.
        monkeypatch.setattr(dynamics, "integrate", lambda *a: pytest.fail("integrated"))
        monkeypatch.setattr(oracle, "_evolve_stellar", lambda *a: pytest.fail("propagated"))
        monkeypatch.setattr(oracle, "evolve_fock", lambda *a: pytest.fail("propagated"))
        path = tmp_state("big.json", random_stellar_state(6, 0, scale=2.0))
        rc, out, err = run_cli(capsys, ["verify", "--state", path])
        assert_one_error_line(rc, err)
        assert "N = 15961, past verify's cap N = 2048" in err
        assert out == ""

    def test_series_past_the_cap_is_refused_before_the_dual_path(self, capsys, tmp_state,
                                                                 monkeypatch):
        # N = 3,050: the cap is checked before eval_entire builds its 169 x (N + 1) table,
        # which is what the cap bounds.
        monkeypatch.setattr(wavefunction, "eval_entire", lambda *a, **k: pytest.fail("tabled"))
        path = tmp_state("big.json", random_stellar_state(3, 0, scale=1.5))
        rc, out, err = run_cli(capsys, ["verify", "--state", path])
        assert_one_error_line(rc, err)
        assert err == "error: oracle series needs N = 3050, past verify's cap N = 2048\n"
        assert out == ""

    def test_series_past_the_row_budget_is_one_error_line(self, capsys, tmp_state):
        # The series of this state at Im 3 never gets cut: its doubling ran past
        # 2.3 million rows, and verify never reached its cap.
        path = tmp_state("plateau.json", random_stellar_state(15, 0, scale=3.0))
        rc, out, err = run_cli(capsys, ["verify", "--state", path])
        assert_one_error_line(rc, err)
        assert "not cut within" in err
        assert out == ""

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        rc, out, err = run_cli(capsys, ["verify", "--random", "3,1", "--tol", tol])
        assert_one_error_line(rc, err)
        assert out == ""


class TestErrors:
    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, ["zeros", "--state", "/nonexistent.json"])
        assert rc == 1
        assert err.startswith("error: ")
        assert "\n" not in err.strip()

    def test_both_inputs_rejected(self, capsys, tmp_state):
        path = tmp_state("x.json", fock2())
        rc, _, err = run_cli(capsys, ["zeros", "--state", path, "--random", "1,1"])
        assert rc == 1
        assert err.startswith("error: ")

    def test_bad_hamiltonian(self, capsys):
        rc, _, err = run_cli(capsys, ["evolve", "--random", "1,1", "--hamiltonian", "1,2"])
        assert rc == 1


    @pytest.mark.parametrize("spec", ["1.5,0", "1,x", "2", "1,2,3"])
    def test_random_spec_is_named_in_the_error(self, capsys, spec):
        rc, _, err = run_cli(capsys, ["zeros", "--random", spec])
        assert_one_error_line(rc, err)
        assert f"--random expects RANK,SEED, not {spec!r}" in err

    def test_unwritable_out_is_named_and_leaves_no_temporary_file(self, capsys, tmp_path):
        out = tmp_path / "taken"
        out.mkdir()
        rc, _, err = run_cli(capsys, ["build", "--random", "2,0", "--out", str(out)])
        assert_one_error_line(rc, err)
        assert f"--out {str(out)!r}: Is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    @pytest.mark.parametrize("rank", [171, 200])
    def test_very_high_rank_ends_in_a_result_or_one_error_line(self, capsys, rank):
        # sqrt(171!) once overflowed a float, and rank 200 overflows Horner's rule.
        rc, out, err = run_cli(capsys, ["zeros", "--random", f"{rank},0"])
        if rc == 1:
            assert_one_error_line(rc, err)
        else:
            assert rc == 0 and len(out.strip().splitlines()) == rank

    def test_rank_300_gives_its_zeros_and_rank_600_one_error_line(self, capsys):
        # The leading coefficient c_r a1^r / sqrt(r!) underflows a double at rank 300,
        # which g0 carries as a logarithm; at rank 600 the Hermite roots fail.
        rc, out, _ = run_cli(capsys, ["zeros", "--random", "300,0"])
        assert rc == 0 and len(out.strip().splitlines()) == 300
        rc, _, err = run_cli(capsys, ["zeros", "--random", "600,0"])
        assert_one_error_line(rc, err)

    @pytest.mark.parametrize("method", ["closed", "ode"])
    @pytest.mark.parametrize("t_end", [705, 710, 800, 900])
    def test_hyperbolic_blow_up_ends_in_a_result_or_one_error_line(self, capsys, t_end, method):
        # omega^2 = -1: the flow grows like e^t and overflows a float near t = 710.
        rc, _, err = run_cli(capsys, [
            "evolve", "--random", "2,0", "--hamiltonian", "0,0.5,1,0,0,0",
            "--time", f"0,{t_end},3", "--method", method,
        ])
        if rc != 0:
            assert_one_error_line(rc, err)

    @pytest.mark.parametrize("text", ["5", "null", "true"])
    def test_zeros_of_a_json_file_that_is_no_object(self, capsys, tmp_path, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        rc, _, err = run_cli(capsys, ["zeros", "--state", str(path)])
        assert_one_error_line(rc, err)


# The flags each command reads, besides --help, --state, --random, --out and --config.
COMMAND_FLAGS = {
    "build": set(),
    "zeros": set(),
    "evolve": {"--hamiltonian", "--time", "--method"},
    "crossings": set(),
    "audit": set(),
    "verify": {"--hamiltonian", "--time", "--tol"},
}
FLAG_VALUES = {
    "--hamiltonian": "0.5,0.5,0,0,0,0", "--time": "0,1,3", "--method": "both", "--tol": "1",
}


def assert_one_error_line(rc, err):
    assert rc == 1
    assert err.startswith("error: ")
    assert "\n" not in err.strip()


class TestFlagTable:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_exactly_the_flags_read(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        common = {"--help", "--state", "--random", "--out", "--config"}
        assert listed == common | COMMAND_FLAGS[command]

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_flags_not_read_are_rejected(self, capsys, command):
        for flag in sorted(set(FLAG_VALUES) - COMMAND_FLAGS[command]):
            rc, _, err = run_cli(capsys, [command, "--random", "1,1", flag, FLAG_VALUES[flag]])
            assert_one_error_line(rc, err)
            assert flag in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeros", "--random", "1,1", "--bogus"],
            ["evolve", "--random", "1,1", "--method", "sideways"],
            [],
        ],
        ids=["unknown_flag", "bad_choice", "no_command"],
    )
    def test_usage_errors_exit_1(self, capsys, argv):
        rc, _, err = run_cli(capsys, argv)
        assert_one_error_line(rc, err)


class TestTimeGrid:
    @pytest.mark.parametrize("command", ["evolve", "verify"])
    @pytest.mark.parametrize(
        "grid", ["0,1,1", "0,1,2.5", "0,nan,3"], ids=["one_sample", "non_integer", "nan_end"]
    )
    def test_bad_sample_count(self, capsys, command, grid):
        rc, out, err = run_cli(capsys, [command, "--random", "1,1", "--time", grid])
        assert_one_error_line(rc, err)
        assert out == ""


class TestConfigFile:
    def test_config_with_flag_precedence(self, capsys, tmp_state, tmp_path):
        path = tmp_state("r1.json", stellar_state_from_zeros([1j]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state_path": path, "time": "0,1.0,3"}))
        out = tmp_path / "t.csv"
        rc = main(["evolve", "--config", str(cfg), "--time", "0,2.0,5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        ts = sorted({float(line.split(",")[0]) for line in lines[1:]})
        assert abs(ts[-1] - 2.0) < 1e-12  # flag overrode the config grid
        assert len(ts) == 5


    @pytest.mark.parametrize(
        "data", [[1, 2], {"time": 5}, {"hamiltonian": 7}, {"hamiltonain": "0,0,0,0,0,0"}],
        ids=["not_object", "time_number", "hamiltonian_number", "unknown_key"],
    )
    def test_bad_config_one_line(self, capsys, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        rc, _, err = run_cli(capsys, ["evolve", "--random", "1,1", "--config", str(cfg)])
        assert_one_error_line(rc, err)

    def test_explicit_method_both_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"random_spec": "1,1", "method": "ode"}))
        out = tmp_path / "t.csv"
        rc = main(["evolve", "--config", str(cfg), "--method", "both", "--time", "0,1,3",
                   "--out", str(out)])
        assert rc == 0
        assert set(read_trajectories(out)) == {"ode", "closed"}

    def test_config_lists_and_other_commands_keys(self, capsys, tmp_path):
        # One file serves evolve and zeros; zeros skips the keys it does not read.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"random_spec": "1,1", "time": [0, 2.0, 5], "method": "closed",
                                   "hamiltonian": [0.5, 0.5, 0, 0, 0, 0]}))
        out = tmp_path / "t.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        closed = read_trajectories(out)["closed"]
        assert sorted(map(float, closed)) == [0.0, 0.5, 1.0, 1.5, 2.0]
        rc, zeros_out, _ = run_cli(capsys, ["zeros", "--config", str(cfg)])
        assert rc == 0
        assert zeros_out == run_cli(capsys, ["zeros", "--random", "1,1"])[1]

    def test_config_method_must_be_a_choice(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "sideways"}))
        rc, _, err = run_cli(capsys, ["evolve", "--random", "1,1", "--config", str(cfg)])
        assert_one_error_line(rc, err)
        assert "invalid choice: 'sideways'" in err

    def test_config_leaves_the_shared_parser_unchanged(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "closed"}))
        out = tmp_path / "t.csv"
        argv = ["evolve", "--random", "1,1", "--time", "0,1,3", "--out", str(out)]
        assert main([*argv, "--config", str(cfg)]) == 0
        assert set(read_trajectories(out)) == {"closed"}
        assert main(argv) == 0
        assert set(read_trajectories(out)) == {"ode", "closed"}

    def test_config_value_starting_with_a_dash(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hamiltonian": "-0.1,0.5,0,0,0,0", "time": [0, 1, 3]}))
        via_config = run_cli(capsys, ["evolve", "--random", "1,1", "--config", str(cfg)])
        via_flags = run_cli(capsys, ["evolve", "--random", "1,1",
                                     "--hamiltonian=-0.1,0.5,0,0,0,0", "--time", "0,1,3"])
        assert via_config[0] == 0
        assert via_config == via_flags

    def test_parser_built_once_per_process(self, capsys, monkeypatch, tmp_path):
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._parser.cache_clear()
        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"random_spec": "2,1"}))
        for argv in (["zeros", "--random", "1,1"], ["build", "--random", "1,1"],
                     ["zeros", "--config", str(cfg)], ["zeros", "--random", "1,1", "--bogus"]):
            run_cli(capsys, argv)
        # One tree: the top-level parser and one subparser per command.
        assert built.count("stellar-zeros") == 1
        assert len(built) == 1 + len(cli._COMMANDS)


def test_module_entrypoint_smoke():
    # The child imports the same package as this process, installed or not.
    package_root = str(Path(stellar_zeros.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stellar_zeros.cli", "zeros", "--random", "1,1"],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 1
