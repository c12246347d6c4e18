"""Command-line interface: build states, compute zeros, run dynamics, audit.

Commands
--------
build      write the wavefunction-form JSON of a state
zeros      print the zero multiset of a state
evolve     write a trajectory CSV (``t,k,re,im,method``)
crossings  write crossing-event JSON lines over one phase-shift period
audit      run the crossing-guarantee audit and print the verdict
verify     cross-validate closed form, ODE and the Fock oracle for a state

Each command accepts only the flags it reads, declared once in ``_COMMANDS``.
``--config`` names a JSON object keyed by flag dest names; its values enter
as that command's flags ahead of the command line's own, so explicit flags win.

Exit codes: 0 success, 1 input or usage error (single machine-parsable line
on stderr), 2 contract violation (failed verification or a missed guarantee).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import dynamics, oracle, phase, states, wavefunction
from .errors import InvalidParameter, StellarZerosError

# verify refuses a longer oracle series.  The cap bounds the dual path's memory: eval_entire
# holds a 169 x (N + 1) complex Hermite table on the standard grid, 5.5 MB at N = 2,048 and
# 709 MB at the series' 2^18-row budget.  The propagation runs on the core's columns, O(N r)
# per time; a whole rank-3 verify takes 21 ms at N = 1,325 and 32 ms at N = 2,034 on one
# core.  Lifting the cap changes which states verify accepts.
_MAX_ORACLE_CUTOFF = 2048
_METHODS = ("ode", "closed", "both")


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
    if isinstance(obj, float):
        return pad + _fmt(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _write_output(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise OSError(f"cannot write --out {path!r}: {exc.strerror or exc}") from exc


def _load_state(args: argparse.Namespace) -> states.StellarState:
    if (args.state_path is None) == (args.random_spec is None):
        raise ValueError("provide exactly one of --state and --random")
    if args.state_path is not None:
        with open(args.state_path, "r", encoding="utf-8") as fh:
            return states.state_from_json(json.load(fh))
    try:
        rank, seed = map(int, args.random_spec.split(","))
    except ValueError:
        raise ValueError(f"--random expects RANK,SEED, not {args.random_spec!r}") from None
    return states.random_stellar_state(rank, seed)


def _reals(text: str, n: int, usage: str) -> list:
    """The n comma-separated reals of a flag value (a config list arrives joined)."""
    vals = [float(x) for x in text.split(",")]
    if len(vals) != n:
        raise ValueError(usage)
    return vals


def _hamiltonian(args: argparse.Namespace) -> dynamics.QuadraticHamiltonian:
    usage = "--hamiltonian expects six comma-separated reals"
    return dynamics.QuadraticHamiltonian(*_reals(args.hamiltonian, 6, usage))


def _grid(args: argparse.Namespace) -> np.ndarray:
    t0, t1, n = _reals(args.time, 3, "--time expects T0,T1,N")
    if not (math.isfinite(t0) and math.isfinite(t1) and n.is_integer() and n >= 2):
        raise ValueError("--time needs finite T0,T1 and an integer N of at least 2")
    return np.linspace(t0, t1, int(n))


def _cmd_build(args: argparse.Namespace) -> int:
    wf = wavefunction.build_wavefunction(_load_state(args))
    _write_output(args.out, _to_json_text(wavefunction.form_to_json(wf)) + "\n")
    return 0


def _cmd_zeros(args: argparse.Namespace) -> int:
    if args.state_path is not None and args.random_spec is None:
        # Accept either a state descriptor or a wavefunction-form descriptor.
        with open(args.state_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "core" in data:  # state_from_json rejects a non-object
            wf = wavefunction.build_wavefunction(states.state_from_json(data))
        else:
            wf = wavefunction.form_from_json(data)
    else:
        wf = wavefunction.build_wavefunction(_load_state(args))
    lines = [f"{_fmt(z.real)} {_fmt(z.imag)}" for z in wavefunction._sorted_zeros(wf.zeros)]
    _write_output(args.out, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    H = _hamiltonian(args)
    ts = np.linspace(0.0, 2.0 * math.pi, 65) if args.time is None else _grid(args)
    wf = wavefunction.build_wavefunction(_load_state(args))
    rows = ["t,k,re,im,method"]
    for name, solve in (("ode", dynamics.integrate), ("closed", dynamics.sample_closed_form)):
        if args.method not in (name, "both"):
            continue
        traj = solve(wf, H, ts)
        for i, t in enumerate(traj.times):
            for k in range(traj.rank):
                z = traj.paths[k, i]
                rows.append(f"{_fmt(t)},{k},{_fmt(z.real)},{_fmt(z.imag)},{name}")
    _write_output(args.out, "\n".join(rows) + "\n")
    return 0


def _cmd_crossings(args: argparse.Namespace) -> int:
    wf = wavefunction.build_wavefunction(_load_state(args))
    events = phase.detect_crossings(phase.phase_trajectory(wf.zeros, wf.g2, wf.g1))
    lines = [
        f'{{"k": {e.zero_index}, "t": {_fmt(e.t_star)}, "x": {_fmt(e.x_star)}, '
        f'"flag": "{e.flag}"}}'
        for e in events
    ]
    _write_output(args.out, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    result = phase.crossing_guarantee_audit(_load_state(args))
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
    _write_output(args.out, line)
    return 2 if result.outcome == "GuaranteedButMissed" else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    scale_tol = 1.0 if args.tol is None else args.tol
    if not (scale_tol > 0 and math.isfinite(scale_tol)):
        raise ValueError("tolerance must be positive and finite")
    H = _hamiltonian(args)
    times = [0.3, 1.1, 2.9] if args.time is None else list(_grid(args)[1:])
    st = _load_state(args)
    wf = wavefunction.build_wavefunction(st)

    # Dual representation on the standard grid.
    grid_1d = np.arange(-3.0, 3.01, 0.5)
    xs, ys = np.meshgrid(grid_1d, grid_1d)
    zs = (xs + 1j * ys).ravel()
    v = states._series(st, 3.0)
    a = wavefunction.eval_form(wf, zs)
    b = wavefunction.eval_entire(v, zs, check=False)
    grid_scale = float(np.max(np.abs(a)))
    dual_dev = float(np.max(np.abs(a - b))) / grid_scale

    # Zero propagation: ODE vs closed form vs Fock oracle.
    ode_dev = oracle_dev = 0.0
    if wf.rank > 0:
        if v.cutoff > _MAX_ORACLE_CUTOFF:
            raise InvalidParameter(f"oracle series needs N = {v.cutoff}, past verify's cap N = "
                                   f"{_MAX_ORACLE_CUTOFF}")
        traj = dynamics.integrate(wf, H, times)
        refs = dynamics.closed_form(wf, H, times)
        ode_dev = max(map(dynamics.matching_distance, traj.paths.T, refs))
        for vt, ref in zip(oracle._evolve_stellar(st, H, times, v.cutoff), refs):
            zo = oracle.zeros_from_fock(vt, wf.rank)
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
    _write_output(args.out, line)
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so ``main`` reports them like any input error (exit 1)."""

    def error(self, message):
        raise ValueError(message)


# Flags by dest name, which is also the --config key: (option, add_argument kwargs).
_FLAGS = {
    "state_path": ("--state", dict(help="state-descriptor JSON path")),
    "random_spec": ("--random", dict(help="RANK,SEED fixture spec")),
    "out": ("--out", dict(help="output path (default stdout)")),
    "hamiltonian": ("--hamiltonian", dict(default="0.5,0.5,0,0,0,0", help="A,B,C,D,E,F")),
    "time": ("--time", dict(help="T0,T1,N sampling grid")),
    "tol": ("--tol", dict(type=float, help="tolerance scale override")),
    "method": ("--method", dict(choices=_METHODS, default="both")),
}
_INPUT = ("state_path", "random_spec", "out")

# Each command: handler, help line, and the flags it reads beyond _INPUT and --config.
_COMMANDS = {
    "build": (_cmd_build, "write the wavefunction form of a state as JSON", ()),
    "zeros": (_cmd_zeros, "print the zero multiset of a state", ()),
    "evolve": (_cmd_evolve, "write the zero trajectory CSV under a quadratic Hamiltonian",
               ("hamiltonian", "time", "method")),
    "crossings": (_cmd_crossings, "write crossing-event JSON lines over one phase period", ()),
    "audit": (_cmd_audit, "run the crossing-guarantee audit", ()),
    "verify": (_cmd_verify, "cross-validate closed form, ODE and the Fock oracle",
               ("hamiltonian", "time", "tol")),
}


@functools.cache
def _parser() -> _Parser:
    """The command tree, built once per process and never mutated."""
    parser = _Parser(
        prog="stellar-zeros",
        description="Wavefunction zeros of finite-rank bosonic states: "
        "closed forms, Gaussian dynamics, crossing certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, extra) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in _INPUT + extra:
            option, kwargs = _FLAGS[dest]
            p.add_argument(option, dest=dest, **kwargs)
        p.add_argument("--config", help="JSON object keyed by flag dest names; flags win")
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse argv; a --config object's values enter as flags right after the command."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    if args.config is None:
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("--config expects a JSON object")
    unknown = sorted(set(data) - set(_FLAGS))
    if unknown:
        raise ValueError(f"--config key {unknown[0]!r} names no flag")
    # A value stands for its flag text (a list joined with commas), in the `=` form that
    # carries a leading '-'; the command line's own flags follow and win.  Keys of another
    # command's flags are skipped: one file may serve several commands.
    own = _INPUT + _COMMANDS[args.command][2]
    flags = [
        f"{_FLAGS[k][0]}={','.join(map(str, v)) if isinstance(v, list) else v}"
        for k, v in data.items() if k in own and v is not None
    ]
    return _parser().parse_args([argv[0], *flags, *argv[1:]])


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return _COMMANDS[args.command][0](args)
    except (StellarZerosError, ValueError, OSError) as exc:
        msg = str(exc).replace("\n", " ")
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
