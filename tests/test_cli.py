"""Command-line surface: commands, formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stellar_zeros
from stellar_zeros import (
    StellarState,
    matching_distance,
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

    def test_thread_cap_respected(self, capsys, tmp_state, monkeypatch):
        monkeypatch.setenv("STELLAR_ZEROS_THREADS", "1")
        path = tmp_state("r1.json", stellar_state_from_zeros([0.7j]))
        rc, out, _ = run_cli(capsys, ["verify", "--state", path])
        assert rc == 0
        assert "status=PASS" in out


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
