"""Command-line interface: build states, compute zeros, run dynamics, audit.

Commands
--------
build      write the wavefunction-form JSON of a state
zeros      print the zero multiset of a state
evolve     write a trajectory CSV (``t,k,re,im,method``)
crossings  write crossing-event JSON lines over one phase-shift period
audit      run the crossing-guarantee audit and print the verdict
verify     cross-validate closed form, ODE and the Fock oracle for a state

Exit codes: 0 success, 1 input error (single machine-parsable line on
stderr), 2 contract violation (failed verification or a missed guarantee).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import dynamics, oracle, phase, states, wavefunction
from .errors import StellarZerosError

DEFAULT_TIME = (0.0, 2.0 * math.pi, 65)
# The oracle's second cutoff: its truncation ring differs, its true zeros do not.
_PARTNER_CUTOFF_STEP = 20


@dataclass
class RunConfig:
    command: str
    state_path: str | None = None
    random_spec: str | None = None
    hamiltonian: tuple = (0.5, 0.5, 0.0, 0.0, 0.0, 0.0)
    time: tuple = DEFAULT_TIME
    out: str | None = None
    tol: float | None = None
    method: str = "both"

    def validate(self):
        if self.state_path is not None and self.random_spec is not None:
            raise ValueError("provide exactly one of --state and --random")
        if self.command in ("evolve", "crossings") and self.time[2] < 2:
            raise ValueError("time grid needs at least 2 samples")
        if self.tol is not None and self.tol <= 0:
            raise ValueError("tolerance must be positive")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _to_json_text(obj, indent=0) -> str:
    """Serialize with floats at 17 significant digits (lossless round-trip)."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{k}": {_to_json_text(v, indent + 2).lstrip()}' for k, v in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return pad + "[" + ", ".join(_to_json_text(v).strip() for v in obj) + "]"
        items = ",\n".join(_to_json_text(v, indent + 2) for v in obj)
        return f"{pad}[\n{items}\n{pad}]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, int):
        return pad + str(obj)
    if isinstance(obj, float):
        return pad + _fmt(obj)
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    if obj is None:
        return pad + "null"
    raise TypeError(f"cannot serialize {type(obj)}")


def _write_output(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _load_state(cfg: RunConfig) -> states.StellarState:
    if (cfg.state_path is None) == (cfg.random_spec is None):
        raise ValueError("provide exactly one of --state and --random")
    if cfg.state_path is not None:
        with open(cfg.state_path, "r", encoding="utf-8") as fh:
            return states.state_from_json(json.load(fh))
    parts = cfg.random_spec.split(",")
    if len(parts) != 2:
        raise ValueError("--random expects RANK,SEED")
    return states.random_stellar_state(int(parts[0]), int(parts[1]))


def _hamiltonian(cfg: RunConfig) -> dynamics.QuadraticHamiltonian:
    return dynamics.QuadraticHamiltonian(*cfg.hamiltonian)


def _cmd_build(cfg: RunConfig) -> int:
    wf = wavefunction.build_wavefunction(_load_state(cfg))
    _write_output(cfg.out, _to_json_text(wavefunction.form_to_json(wf)) + "\n")
    return 0


def _cmd_zeros(cfg: RunConfig) -> int:
    if cfg.state_path is not None:
        # Accept either a state descriptor or a wavefunction-form descriptor.
        with open(cfg.state_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if "core" in data:
            wf = wavefunction.build_wavefunction(states.state_from_json(data))
        else:
            wf = wavefunction.form_from_json(data)
    else:
        wf = wavefunction.build_wavefunction(_load_state(cfg))
    lines = [f"{_fmt(z.real)} {_fmt(z.imag)}" for z in wavefunction._sorted_zeros(wf.zeros)]
    _write_output(cfg.out, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_evolve(cfg: RunConfig) -> int:
    wf = wavefunction.build_wavefunction(_load_state(cfg))
    H = _hamiltonian(cfg)
    t0, t1, n = cfg.time
    ts = np.linspace(t0, t1, int(n))
    rows = ["t,k,re,im,method"]
    methods = []
    if cfg.method in ("ode", "both"):
        methods.append(("ode", lambda: dynamics.integrate(wf, H, ts)))
    if cfg.method in ("closed", "both"):
        methods.append(("closed", lambda: dynamics.sample_closed_form(wf, H, ts)))
    for name, runner in methods:
        traj = runner()
        for i, t in enumerate(traj.times):
            for k in range(traj.rank):
                z = traj.paths[k, i]
                rows.append(f"{_fmt(t)},{k},{_fmt(z.real)},{_fmt(z.imag)},{name}")
    _write_output(cfg.out, "\n".join(rows) + "\n")
    return 0


def _cmd_crossings(cfg: RunConfig) -> int:
    wf = wavefunction.build_wavefunction(_load_state(cfg))
    samples = max(257, int(cfg.time[2]))
    traj = phase.phase_trajectory(wf.zeros, wf.g2, wf.g1, samples)
    events = phase.detect_crossings(traj)
    lines = [
        f'{{"k": {e.zero_index}, "t": {_fmt(e.t_star)}, "x": {_fmt(e.x_star)}, '
        f'"flag": "{e.flag}"}}'
        for e in events
    ]
    _write_output(cfg.out, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_audit(cfg: RunConfig) -> int:
    result = phase.crossing_guarantee_audit(_load_state(cfg))
    rep = result.gershgorin
    extras = ""
    if rep is not None:
        extras = (
            f" min_separation={_fmt(rep.min_separation)}"
            f" threshold={_fmt(rep.threshold)}"
            f" discs_disjoint={str(rep.discs_disjoint_all_t).lower()}"
        )
    line = (
        f"audit outcome={result.outcome} guaranteed={str(result.guaranteed).lower()}"
        f" events={result.count}{extras}\n"
    )
    _write_output(cfg.out, line)
    return 2 if result.outcome == "GuaranteedButMissed" else 0


def _cmd_verify(cfg: RunConfig) -> int:
    st = _load_state(cfg)
    H = _hamiltonian(cfg)
    wf = wavefunction.build_wavefunction(st)
    scale_tol = cfg.tol if cfg.tol is not None else 1.0

    # Dual representation on the standard grid.
    grid_1d = np.arange(-3.0, 3.01, 0.5)
    xs, ys = np.meshgrid(grid_1d, grid_1d)
    zs = (xs + 1j * ys).ravel()
    cutoff = max(
        states.default_cutoff(st.rank, st.alpha, st.chi),
        wavefunction.hermite_eval_cutoff(abs(st.chi), 3.0, 1e-9, st.rank, abs(st.alpha)),
    )
    v = states.stellar_to_fock(st, cutoff)
    a = wavefunction.eval_form(wf, zs)
    b = wavefunction.eval_entire(v, zs, check=False)
    grid_scale = float(np.max(np.abs(a)))
    dual_dev = float(np.max(np.abs(a - b))) / grid_scale

    # Zero propagation: ODE vs closed form vs Fock oracle.
    times = [0.3, 1.1, 2.9] if cfg.time == DEFAULT_TIME else list(
        np.linspace(cfg.time[0], cfg.time[1], int(cfg.time[2]))[1:]
    )
    ode_dev = 0.0
    oracle_dev = 0.0
    if wf.rank > 0:
        traj = dynamics.integrate(wf, H, [0.0] + times)
        refs = [dynamics.closed_form(wf, H, t) for t in times]
        for i, zc in enumerate(refs):
            ode_dev = max(ode_dev, dynamics.matching_distance(traj.paths[:, i + 1], zc))

        ocut = max(80, cutoff)
        vo = states.stellar_to_fock(st, ocut)
        for t, ref in zip(times, refs):
            vt = oracle.evolve_fock(vo, H, t, ocut)
            partner = oracle.evolve_fock(vo, H, t, ocut + _PARTNER_CUTOFF_STEP)
            hw = max(max(abs(z.real), abs(z.imag)) for z in ref) + 0.9
            zo = oracle.zeros_from_fock(vt, wf.rank, hw, partner=partner)
            oracle_dev = max(oracle_dev, dynamics.matching_distance(zo, ref))

    ok = (
        dual_dev <= 1e-7 * scale_tol
        and ode_dev <= 1e-6 * scale_tol
        and oracle_dev <= 1e-4 * scale_tol
    )
    line = (
        f"verify dual_path={dual_dev:.3e} ode_closed={ode_dev:.3e} "
        f"oracle={oracle_dev:.3e} status={'PASS' if ok else 'FAIL'}\n"
    )
    _write_output(cfg.out, line)
    return 0 if ok else 2


_COMMANDS = {
    "build": _cmd_build,
    "zeros": _cmd_zeros,
    "evolve": _cmd_evolve,
    "crossings": _cmd_crossings,
    "audit": _cmd_audit,
    "verify": _cmd_verify,
}


def run(cfg: RunConfig) -> int:
    cfg.validate()
    return _COMMANDS[cfg.command](cfg)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--state", dest="state_path", help="state-descriptor JSON path")
    p.add_argument("--random", dest="random_spec", help="RANK,SEED fixture spec")
    p.add_argument("--hamiltonian", help="A,B,C,D,E,F (default phase shift)")
    p.add_argument("--time", help="T0,T1,N sampling grid")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--tol", type=float, help="tolerance scale override")
    p.add_argument("--method", choices=("ode", "closed", "both"), default="both")
    p.add_argument("--config", help="JSON file with the same keys; flags win")


def _build_config(args: argparse.Namespace) -> RunConfig:
    merged = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            merged.update(json.load(fh))
    for key in ("state_path", "random_spec", "hamiltonian", "time", "out", "tol",
                "method"):
        val = getattr(args, key, None)
        if val is not None and not (key == "method" and val == "both" and key in merged):
            merged[key] = val
    cfg = RunConfig(command=args.command)
    if merged.get("state_path"):
        cfg.state_path = str(merged["state_path"])
    if merged.get("random_spec"):
        cfg.random_spec = str(merged["random_spec"])
    ham = merged.get("hamiltonian")
    if ham:
        vals = [float(x) for x in (ham.split(",") if isinstance(ham, str) else ham)]
        if len(vals) != 6:
            raise ValueError("--hamiltonian expects six comma-separated reals")
        cfg.hamiltonian = tuple(vals)
    tm = merged.get("time")
    if tm:
        vals = [float(x) for x in (tm.split(",") if isinstance(tm, str) else tm)]
        if len(vals) != 3:
            raise ValueError("--time expects T0,T1,N")
        cfg.time = (vals[0], vals[1], int(vals[2]))
    if merged.get("out"):
        cfg.out = str(merged["out"])
    if merged.get("tol") is not None:
        cfg.tol = float(merged["tol"])
    if merged.get("method"):
        cfg.method = str(merged["method"])
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stellar-zeros",
        description="Wavefunction zeros of finite-rank bosonic states: "
        "closed forms, Gaussian dynamics, crossing certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("build", "write the wavefunction form of a state as JSON"),
        ("zeros", "print the zero multiset of a state"),
        ("evolve", "write the zero trajectory CSV under a quadratic Hamiltonian"),
        ("crossings", "write crossing-event JSON lines over one phase period"),
        ("audit", "run the crossing-guarantee audit"),
        ("verify", "cross-validate closed form, ODE and the Fock oracle"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        return run(cfg)
    except (StellarZerosError, ValueError, OSError, json.JSONDecodeError) as exc:
        msg = str(exc).replace("\n", " ")
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
