"""Package structure: what importing costs and what the oracle may use."""

import ast
import dataclasses
import functools
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stellar_zeros
import stellar_zeros.oracle
import stellar_zeros.rootfind
import stellar_zeros.wavefunction
from stellar_zeros import errors

PACKAGE_ROOT = str(Path(stellar_zeros.__file__).resolve().parents[1])


IMPORT_THEN_RUN = """
import contextlib, io, sys
HEAVY = {"scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg", "numpy.ma"}
import stellar_zeros
from stellar_zeros import cli
loaded = [sys.modules.keys() & HEAVY]
wf = stellar_zeros.build_wavefunction(stellar_zeros.random_stellar_state(3, 0))
tr = stellar_zeros.integrate(wf, stellar_zeros.QuadraticHamiltonian.phase_shift(), [0.0, 0.5])
stellar_zeros.matching_distance(tr.paths[:, -1], wf.zeros)
stellar_zeros.form_norm_squared(wf)
codes = []
for argv in (["build", "--random", "2,1"], ["zeros", "--random", "2,1"],
             ["evolve", "--random", "2,1", "--time", "0,1,5"], ["crossings", "--random", "3,1"],
             ["audit", "--random", "3,1"], ["verify", "--random", "2,1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
loaded.append(sys.modules.keys() & HEAVY)
print(*codes, *map(sorted, loaded), sep="|")
"""


def test_import_does_not_load_the_ode_solver():
    # At run time the package needs NumPy and two of SciPy's compiled extensions,
    # loaded by path: `integrate` reads SciPy's DOP853 tableau from its file,
    # `matching_distance` solves its own assignment, the norm sums its own
    # log-sum-exp and the oracle takes its own 3x3 exponential.  A fresh
    # interpreter shows what the import, an ODE run, a matching, a norm and every
    # command pull in; `scipy.linalg`, the heavier SciPy subpackages and
    # `numpy.ma` stay out.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_THEN_RUN],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0|0|0|0|0|0|[]|[]"


def test_scipy_wrappers_are_loaded_by_path_once():
    # One loader knows SciPy's layout.  What it loads is registered under SciPy's
    # own names, so importing scipy.linalg afterwards finds the same wrappers.
    import scipy.linalg

    assert sorted(_scopes_of("_scipy_module")) == [("dynamics", "_dop853"),
                                                   ("phase", "<module>"),
                                                   ("wavefunction", "<module>")]
    assert stellar_zeros.wavefunction.ztbsv is scipy.linalg.blas.ztbsv
    assert stellar_zeros.phase.zggev is scipy.linalg.lapack.zggev


def test_missing_scipy_extension_names_its_directory():
    import scipy

    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    with pytest.raises(ImportError, match=re.escape(where)):
        stellar_zeros.rootfind._scipy_module("linalg._no_such_extension")
    assert "scipy.linalg._no_such_extension" not in sys.modules


def test_oracle_shares_no_code_with_the_closed_form():
    # The Fock oracle is the independent check of the closed-form dynamics,
    # so it may take the Hamiltonian's type from `dynamics` and nothing
    # else, and nothing from the root finder the closed form relies on.
    tree = ast.parse(Path(stellar_zeros.oracle.__file__).read_text(encoding="utf-8"))
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            used += [(alias.name.split(".")[-1], None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                used.append((module, alias.name) if module else (alias.name, None))
    assert used, "no imports parsed"
    for module, name in used:
        assert module != "rootfind", (module, name)
        if module == "dynamics":
            assert name == "QuadraticHamiltonian", (module, name)


@functools.lru_cache(maxsize=None)
def _package_trees():
    """``(module, tree, child -> parent map)`` of every module in the package, parsed once."""
    trees = []
    for path in sorted(Path(stellar_zeros.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        trees.append((path.stem, tree, parents))
    return trees


def _scopes_of(name, node_type=ast.Call):
    """(module, enclosing function) of every ``node_type`` node in the package naming ``name``.

    A call names the function it calls; a ``raise`` names the exception it
    constructs; an attribute read on a name is named ``"name.attr"``.
    """
    scopes = []
    for stem, tree, parents in _package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, node_type):
                continue
            if node_type is ast.Attribute:
                label = f"{getattr(node.value, 'id', None)}.{node.attr}"
            else:
                f = getattr(node.exc, "func", node.exc) if node_type is ast.Raise else node.func
                label = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if label != name:
                continue
            scope = node
            while scope in parents and not isinstance(scope, ast.FunctionDef):
                scope = parents[scope]
            scopes.append((stem, getattr(scope, "name", "<module>")))
    return scopes


def test_series_cutoff_rule_is_written_once():
    # Every Fock vector the package sizes itself comes from one rule: the
    # Hermite-function bound and the truncation floor each have exactly one
    # caller in the package, the private helper that returns the vector the
    # bound measured, and it takes its rows from the one row function that the
    # conversion at a given cutoff also uses.  The conversion without a
    # cutoff and the commands that count zeros get a series only through
    # that helper; verify's oracle propagates the state itself through the
    # same row function, at the rows the series was cut to.  The old cutoff
    # helpers are gone.
    for name in ("_log_hermite_bound", "default_cutoff"):
        assert _scopes_of(name) == [("states", "_series")], name
    assert sorted(_scopes_of("_stellar_rows")) == [("oracle", "_evolve_stellar"),
                                                    ("states", "_series"),
                                                    ("states", "stellar_to_fock")]
    assert _scopes_of("stellar_to_fock") == []
    callers = [("cli", "_cmd_verify"), ("oracle", "hudson_test"),
               ("states", "stellar_to_fock")]
    assert sorted(_scopes_of("_series")) == callers
    for path in Path(stellar_zeros.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        for name in ("hermite_eval_cutoff", "_series_cutoff"):
            assert name not in text, (path.name, name)


def test_hudson_counts_with_the_oracle_frame():
    # The zero count of the Hudson test is the least rank the oracle's frame
    # solve certifies on the real-line series: no closed form, and no contour.
    assert ("oracle", "hudson_test") in _scopes_of("zeros_from_fock")
    assert ("oracle", "hudson_test") not in _scopes_of("build_wavefunction")


def test_one_constant_in_the_closed_form():
    # g0 carries the whole constant of the closed form, the polynomial's
    # leading coefficient included: the form has no other field, the build
    # neither normalizes nor refuses an underflowed coefficient, and only the
    # JSON pair names a "leading" value, which it writes as 1 and folds into g0.
    fields = dataclasses.fields(stellar_zeros.wavefunction.WavefunctionForm)
    assert [field.name for field in fields] == ["g2", "g1", "g0", "zeros"]
    assert ("wavefunction", "build_wavefunction") not in _scopes_of("form_norm_squared")
    assert ("wavefunction", "build_wavefunction") not in _scopes_of("PrecisionLoss", ast.Raise)
    named = set()
    for stem, tree, parents in _package_trees():
        for node in ast.walk(tree):
            if "leading" in (getattr(node, "attr", None), getattr(node, "id", None),
                             getattr(node, "arg", None), getattr(node, "value", None)):
                while node in parents and not isinstance(node, ast.FunctionDef):
                    node = parents[node]
                named.add((stem, getattr(node, "name", "<module>")))
    assert named == {("wavefunction", "form_to_json"), ("wavefunction", "form_from_json")}


def test_one_gaussian_kernel_recurrence():
    # Every Fock vector of a Gaussian unitary acting on a finite vector, the
    # state conversion's and the oracle's propagation alike, comes from one
    # kernel recurrence in `states`: `evolve_fock` runs it on a vector's
    # columns, and verify's propagation of a state on its core's columns,
    # through the conversion's row function.  The closed-form side never
    # calls it, and the conversion's old packet recurrence and sqrt(n!)
    # table are gone.
    package = Path(stellar_zeros.__file__).parent
    defined = [(path.stem, node.name) for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name == "_kernel_rows"]
    assert defined == [("states", "_kernel_rows")]
    assert sorted(_scopes_of("_kernel_rows")) == [("oracle", "evolve_fock"),
                                                   ("states", "_stellar_rows")]
    for path in package.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        for name in ("_packet_amplitudes", "_sqrt_factorials", "_first_column"):
            assert name not in text, (path.name, name)


def test_no_multiprecision_reference_in_the_package_or_tests():
    # mpmath references are computed once and pinned as numbers; neither
    # the package nor its tests import it.
    imported = set()
    for path in [*Path(stellar_zeros.__file__).parent.glob("*.py"),
                 *Path(__file__).parent.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[0])
    assert "numpy" in imported and "mpmath" not in imported


def test_one_zero_tracker():
    # Sampling and crossing detection share one tracker, which orders zeros
    # by nearest successor; optimal assignment is left to `matching_distance`.
    assert _scopes_of("_assignment") == [("dynamics", "matching_distance")]
    assert _scopes_of("TrackingAmbiguity", ast.Raise) == [("dynamics", "_track")]


def test_closed_form_shares_no_code_with_the_ode():
    # The closed form takes the zero momenta from the state, never from the
    # ODE's right-hand side, so criterion 2 compares two independent paths.
    assert _scopes_of("_rhs") == [("dynamics", "integrate")]


def test_generated_code_stays_in_the_rhs_builder():
    # The ODE's right-hand side is the package's only generated code: one
    # template, filled in and compiled once per rank.  Nothing else in the
    # package compiles or runs source text.
    assert _scopes_of("compile") == [("dynamics", "_rhs_factory")]
    assert _scopes_of("exec") == [("dynamics", "_rhs_factory")]
    assert _scopes_of("eval") == []
    assert _scopes_of("_rhs_factory") == [("dynamics", "_rhs")]


def test_only_integrate_builds_step_interpolants():
    # `integrate` steps SciPy's DOP853 tableau in its own loop and keeps each
    # covering step's interpolant; one vectorized pass samples them all.
    # Nothing else in the package reads the tableau, from SciPy's coefficients
    # file, or takes the first step, or samples a step, and no SciPy
    # interpolant is built.
    assert _scopes_of("_dop853") == [("dynamics", "integrate")]
    assert _scopes_of("run_path") == []
    assert _scopes_of("_first_step") == [("dynamics", "integrate")]
    assert _scopes_of("_dense_samples") == [("dynamics", "integrate")]
    assert _scopes_of("dense_output") == []


def test_oracle_propagates_without_a_truncated_hamiltonian():
    # The propagation is the exact kernel recurrence: no eigendecomposition
    # of a truncated Hamiltonian, whose band builder is gone from the API.
    assert [s for s in _scopes_of("eigh") if s[0] == "oracle"] == []
    assert "eigh" not in Path(stellar_zeros.oracle.__file__).read_text(encoding="utf-8")
    assert not hasattr(stellar_zeros, "hamiltonian_matrix")
    assert not hasattr(stellar_zeros.oracle, "hamiltonian_matrix")


def test_oracle_has_one_colleague_solver():
    # The oracle's only eigenvalue solve is the degree-r colleague matrix of
    # the frame series, and its only factorization the SVD of the rank system.
    assert [s for s in _scopes_of("eigvals") if s[0] == "oracle"] == [("oracle", "_hermite_roots")]
    assert [s for s in _scopes_of("svd") if s[0] == "oracle"] == [("oracle", "_stellar_exponents")]


def test_small_eigen_solves_go_through_one_function():
    # Outside the oracle every small eigen-solve is one call of `eigenvalues_small`, from the
    # closed form, and that makes the package's only call of the LAPACK gufunc behind
    # `np.linalg.eigvals`.  The wrapper itself serves only the two colleague-matrix solves,
    # the oracle's and the series root finder's, and no other eigen-solver is called.
    assert sorted(_scopes_of("eigvals")) == [("oracle", "_hermite_roots"),
                                             ("rootfind", "roots_hermite")]
    assert _scopes_of("eigenvalues_small") == [("dynamics", "_zeros_at")]
    assert _scopes_of("_lapack_eigvals") == [("rootfind", "eigenvalues_small")]
    for name in ("eig", "eigh", "eigvalsh"):
        assert _scopes_of(name) == [], name
    holders = [path.stem for path in Path(stellar_zeros.__file__).parent.glob("*.py")
               if "_umath_linalg" in path.read_text(encoding="utf-8")]
    assert holders == ["rootfind"]


def test_oracle_makes_one_svd_and_one_degree_r_solve(monkeypatch):
    # Per call one SVD of the (N x (2r + 3)) scaled system and one colleague
    # solve of degree r, whatever the cutoff: no contour and no series-length
    # solve.
    shapes = {"svd": [], "eigvals": []}
    for name in shapes:
        original = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _original=original, **kwargs):
            shapes[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    st = stellar_zeros.random_stellar_state(4, 1)
    v = stellar_zeros.stellar_to_fock(st, 300)
    zeros = stellar_zeros.zeros_from_fock(v, 4)
    assert len(zeros) == 4
    assert shapes == {"svd": [(300, 11)], "eigvals": [(4, 4)]}


def test_one_hermite_evaluator():
    # Every Hermite-series value, the oracle's frame samples included, comes
    # from the one banded solve; the checked series adds its tail and
    # envelope tests without a loop.
    assert _scopes_of("ztbsv") == [("wavefunction", "_hermite_functions")]
    assert _scopes_of("_hermite_functions") == [("oracle", "_frame_projection"),
                                                 ("wavefunction", "eval_entire")]
    tree = ast.parse(Path(stellar_zeros.wavefunction.__file__).read_text(encoding="utf-8"))
    (series,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "eval_entire"
    ]
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [n for n in ast.walk(series) if isinstance(n, loops)]


def _dotted(node):
    """``np.linalg.solve`` for that expression; '' for anything but a dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def test_states_are_built_in_the_hermite_basis():
    # The closed form and its inverse go through one colleague matrix: no
    # monomial companion matrix and no triangular solve of a raising matrix.
    assert _scopes_of("polycompanion") == []
    names = []
    for path in Path(stellar_zeros.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                names.append(_dotted(node.func))
            elif isinstance(node, ast.ImportFrom):
                names += [f"{node.module}.{alias.name}" for alias in node.names]
    assert names and not [n for n in names if n.endswith("linalg.solve")]


def test_root_finder_shares_no_code_with_the_series():
    # The finder sums its Hermite series in its own loop, never through
    # `_hermite_functions`, so criteria 9 and 10 still compare the closed
    # form with an independent evaluation.
    tree = ast.parse(Path(stellar_zeros.rootfind.__file__).read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            used |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            used |= {(node.module or "").split(".")[-1]} | {alias.name for alias in node.names}
    assert used, "no imports parsed"
    assert not used & {"states", "wavefunction", "oracle"}, used


def test_public_api_is_declared_once():
    # The package exports exactly what its modules declare in __all__, plus
    # the error types, and every declared name resolves.  The special cases
    # of the general paths are gone: the squeezed vacuum is stellar_to_fock
    # of a rank-0 state, the Gaussian packet its build_wavefunction, and the
    # phase shift evolve_fock under QuadraticHamiltonian.phase_shift().  The
    # argument-principle counter is gone too: hudson_test counts with the
    # oracle's frame solve.
    package = Path(stellar_zeros.__file__).parent
    modules = [importlib.import_module(f"stellar_zeros.{path.stem}")
               for path in sorted(package.glob("*.py")) if path.stem != "__init__"]
    declared = {name for module in modules for name in getattr(module, "__all__", ())}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
    error_types = {name for name, obj in vars(errors).items()
                   if inspect.isclass(obj) and issubclass(obj, Exception)}
    public = {name for name, obj in vars(stellar_zeros).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == declared | error_types
    gone = ("squeezed_vacuum_fock", "gaussian_packet_params", "phase_shift", "packet_exponents",
            "count_zeros_box", "_box_boundary", "ZeroOnContour", "evolve_form", "match_sets",
            "_log_norm_squared", "_logsumexp", "eval_entire_envelope", "_hermite_series")
    for name in gone:
        assert not hasattr(stellar_zeros, name), name
    for path in package.glob("*.py"):
        top = ast.parse(path.read_text(encoding="utf-8")).body
        defined = {node.name for node in top if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & set(gone), (path.name, defined & set(gone))


# Public names that nothing in the package or the benchmark calls: each states a
# result of the paper or is an entry point for users.
UNCALLED_PUBLIC = {"apply_creation_polynomial", "evolve_fock", "form_norm_squared",
                   "growth_bound", "growth_bound_holds", "hudson_test", "normalize",
                   "second_order_acceleration", "stellar_to_fock"}


def test_no_test_only_public_name():
    # The library holds no code that only the tests use: every public name
    # but the pinned few is loaded somewhere in the package outside
    # __init__, or in the benchmark, so a new uncalled name fails here by name.
    package = Path(stellar_zeros.__file__).parent
    paths = [path for path in package.glob("*.py") if path.stem != "__init__"]
    paths += sorted((package.parents[1] / "perfbench").glob("*.py"))
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id if isinstance(node, ast.Name) else node.attr)
    public = {name for name, obj in vars(stellar_zeros).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public - loaded == UNCALLED_PUBLIC
