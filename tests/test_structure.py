"""Source-level design invariants of the package."""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwalk
from qwalk import cli, validation

SRC = Path(qwalk.__file__).parent


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _function(module: str, name: str) -> ast.FunctionDef:
    (body,) = [f for f in _tree(module).body if getattr(f, "name", None) == name]
    return body


def test_only_trajectories_and_evolutions_call_the_step_functions():
    # evolve_* steps in one buffer through the one shared loop,
    # walk1d._evolve; every other evolution iterates trajectory_*
    calls = set()
    for path in SRC.glob("*.py"):
        for top in _tree(path.stem).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ("step_1d", "step_2d"):
                    calls.add((path.stem, getattr(top, "name", None), name))
    assert calls == {
        ("walk1d", "trajectory_1d", "step_1d"),
        ("walk1d", "evolve_1d", "step_1d"),
        ("walk2d", "trajectory_2d", "step_2d"),
        ("walk2d", "evolve_2d", "step_2d"),
    }
    for module, name in (("walk1d", "evolve_1d"), ("walk2d", "evolve_2d")):
        assert "_evolve" in _calls_by_function(module)[name], name


def test_both_step_functions_call_the_one_shared_step():
    for module, name in (("walk1d", "step_1d"), ("walk2d", "step_2d")):
        (body,) = [f for f in _tree(module).body if getattr(f, "name", None) == name]
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(body)
            if isinstance(node, ast.Call)
        }
        assert "_step" in called, name
        assert not called & {"zeros", "empty", "zeros_like", "empty_like"}, name


def test_validation_imports_no_private_name():
    imported = [
        alias.name
        for node in ast.walk(_tree("validation"))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported and not [n for n in imported if n.split(".")[-1].startswith("_")]


def test_validation_runs_checks_without_threads_or_environment():
    # no module of the package imports a thread or process pool: perfbench's
    # span tracer keeps one shared call stack, which a worker thread inside
    # the package would silently corrupt
    for path in SRC.glob("*.py"):
        modules = set()
        for node in ast.walk(_tree(path.stem)):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules.add(node.module)
        roots = {m.split(".")[0] for m in modules}
        assert not roots & {"concurrent", "threading", "multiprocessing"}, path.stem
    tree = _tree("validation")
    names = {
        getattr(node, "attr", getattr(node, "id", None))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert not names & {"environ", "getenv"}


def test_spectral_calls_no_eigensolver_or_qr():
    # both spectra are closed form, and no eigenvector is built or normalized:
    # spectral reads nothing of numpy.linalg
    linalg = [
        ast.unparse(node)
        for node in ast.walk(_tree("spectral"))
        if isinstance(node, ast.Attribute) and node.attr == "linalg"
        or isinstance(node, ast.alias) and "linalg" in node.name
    ]
    assert linalg == []


def _calls_by_function(module: str) -> dict[str, set[str]]:
    """Names each top-level function of ``module`` calls, by function name."""
    out = {}
    for top in _tree(module).body:
        if isinstance(top, ast.FunctionDef):
            out[top.name] = {
                node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))
            }
    return out


def test_every_limit_calls_the_one_quadrature_body():
    calls = _calls_by_function("spectral")
    for name in ("limit_moment_1d", "limit_moments_2d", "limit_moment_2d"):
        assert "_limit_moments" in calls[name], name


def test_only_the_velocity_helper_computes_branch_velocities():
    calls = _calls_by_function("spectral")
    # the replaced formulas: closed-form cos(x) / sqrt(...), Hellmann-Feynman
    # -Im(h^dag dS h / lam), and the T-quotient Re((T_0k - T_1k) / lam_k);
    # group_velocity stays as the closed-form reference, and the lattice
    # eigensolver takes cosines for the eigenphases only
    formulas = {n for n, called in calls.items() if called & {"cos", "imag", "real"}}
    assert formulas == {"group_velocity", "_batch_eigensystem"}
    assert not calls["_batch_eigensystem"] & {"imag", "real"}
    assert {n for n, called in calls.items() if "_velocities" in called} == {"_limit_moments"}


def test_lattice_sweep_builds_no_eigenvector():
    # both sweeps, the line's and the lattice's, read spectral projectors; no
    # function selects a projector column or normalizes one into an eigenvector
    calls = _calls_by_function("spectral")
    assert [n for n, called in calls.items() if called & {"argmax", "norm"}] == []
    assert "einsum" not in calls["_limit_moments"]
    assert "_weights" in calls["_limit_moments"]


def test_every_closed_form_reads_the_one_recurrence_pass():
    # closed_form_fields reads the run through its one-ladder memo
    calls = _calls_by_function("closedform")
    assert {n for n, called in calls.items() if "_alpha_pairs" in called} == {
        "alpha_coefficients",
        "_alpha_ladder",
    }
    assert "_alpha_ladder" in calls["closed_form_fields"]
    assert "closed_form_fields" in calls["closed_form_field"]


def test_check_3_makes_one_closed_form_call_per_state():
    called = _calls_by_function("validation")["check_closed_form"]
    assert "closed_form_fields" in called
    assert "closed_form_field" not in called


def test_checks_1_3_and_5_read_states_only_through_the_basis_routine():
    # one routine steps the chirality basis of either lattice; check 1 reads
    # only its Gram matrix, and one reader gives every other state's
    # amplitudes, which checks 3, 5 and 6 read.  Besides them, one helper
    # views the line's packed parts.  The line's basis is one packed state,
    # (1, i) over sqrt(2); the lattice's is the real (1, 0, 0, 0), and its
    # other three fields are that field's inversion and mirror images, read
    # by one routine: no polarization state is stepped
    calls = _calls_by_function("validation")
    for check in ("check_unitarity", "check_closed_form", "check_limit_1d"):
        stepping = {n for n in calls[check] if n.startswith(("evolve_", "trajectory_"))}
        assert not stepping, check
    assert "_gram" in calls["check_unitarity"]
    assert not calls["check_unitarity"] & {"_amplitudes", "_masses"}
    assert "_basis_fields" in calls["_gram"] & calls["check_closed_form"] & calls["check_limit_1d"]
    assert "_amplitudes" in calls["check_closed_form"]
    assert "_masses" in calls["check_limit_1d"] & calls["check_limit_2d"]
    assert {n for n, called in calls.items() if "_amplitudes" in called} == {
        "check_closed_form",
        "_masses",
    }
    readers = {}
    for top in _tree("validation").body:
        for node in ast.walk(top) if isinstance(top, ast.FunctionDef) else ():
            if isinstance(node, ast.Name):
                readers.setdefault(node.id, set()).add(top.name)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "view":
                if "float64" in ast.unparse(node.args):
                    readers.setdefault("view(float64)", set()).add(top.name)
    assert readers["trajectory_1d"] == readers["trajectory_2d"] == {"_basis_fields"}
    assert "_basis_fields" in readers["evolve_1d"] & readers["evolve_2d"]
    assert validation._BASIS == {1: (validation._R, validation._R * 1j), 2: (1, 0, 0, 0)}
    assert readers["_BASIS"] == {"_basis_fields"}
    assert readers["view(float64)"] == {"_parts"}
    assert readers["_lattice_basis"] == {"_gram", "_amplitudes"}
    assert readers["_image"] == {"_lattice_basis"}


def test_check_5_reads_its_verdict_from_moment_report():
    # check 5 reads its simulated moments through moment_1d from masses read
    # off the basis trajectory, and the convergence rule stays the
    # library's: the verdict is MomentReport.converged, with no gap
    # comparison of its own
    body = _function("validation", "check_limit_1d")
    called = _calls_by_function("validation")["check_limit_1d"]
    assert {"MomentReport", "limit_moment_1d", "moment_1d"} <= called
    assert not {n for n in called if n.startswith(("evolve_", "trajectory_"))}
    assert "converged" in {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
    for compare in (n for n in ast.walk(body) if isinstance(n, ast.Compare)):
        read = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(compare)}
        assert not read & {"gaps", "_GAP_FLOOR"}, ast.unparse(compare)


def test_validation_computes_no_moment_of_its_own():
    # the package's one moment formula is walk1d._moment, behind moment_1d and
    # joint_moment_2d: validation builds no site coordinates, and checks 5
    # and 6 weigh no masses themselves, but read every simulated moment
    # through those two
    calls = _calls_by_function("validation")
    assert not [n for n, called in calls.items() if called & {"arange", "_moment"}]
    for name, moment in (("check_limit_1d", "moment_1d"), ("check_limit_2d", "joint_moment_2d")):
        assert moment in calls[name], name
        assert not calls[name] & {"vdot", "dot", "einsum", "sum", "multiply", "reduce"}, name
        body = _function("validation", name)
        weighing = [
            ast.unparse(n)
            for n in ast.walk(body)
            if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Pow, ast.Mult, ast.MatMult))
        ]
        assert not weighing, (name, weighing)


def test_moment_report_derives_its_gaps():
    # the record stores the numbers and derives the gaps, so it cannot
    # contradict itself; neither builder computes a gap of its own
    (cls,) = [c for c in _tree("spectral").body if getattr(c, "name", None) == "MomentReport"]
    fields = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}
    assert fields == {"alpha", "beta", "quadrature", "times", "simulated"}
    for module, name in (("spectral", "convergence_report"), ("validation", "check_limit_1d")):
        (body,) = [f for f in _tree(module).body if getattr(f, "name", None) == name]
        for node in ast.walk(body):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                read = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node)}
                assert not read & {"quad", "quadrature"}, (name, ast.unparse(node))
        assert "gaps" not in {k.arg for k in ast.walk(body) if isinstance(k, ast.keyword)}, name


def test_coin_has_no_kernel_derivative():
    names = {getattr(node, "name", None) for node in _tree("coin").body}
    assert "kernel_1d_derivative" not in names


def test_step_and_alpha_recurrence_stay_real_and_unzeroed():
    # the coin is real: both hot loops mix in float64 and allocate with
    # np.empty, zeroing only the cells they do not write
    for module, name in (("walk1d", "_step"), ("closedform", "_alpha_pairs")):
        (body,) = [f for f in _tree(module).body if getattr(f, "name", None) == name]
        names = {
            getattr(node, "attr", getattr(node, "id", None))
            for node in ast.walk(body)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert "complex128" not in names, name
        assert not _calls_by_function(module)[name] & {"zeros", "zeros_like"}, name


def test_cli_has_one_command_per_subcommand_family():
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    funcs = {sp.get_default("func") for sp in subparsers.choices.values()}
    assert len(subparsers.choices) == 7
    assert funcs == {cli.cmd_sim, cli.cmd_limit, cli.cmd_symmetry, cli.cmd_localize,
                     cli.cmd_validate}


def test_cli_imports_no_private_library_name():
    imported = [
        alias.name
        for node in ast.walk(_tree("cli"))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    private = [n for n in imported if n.startswith("_") and not n.endswith("__")]
    assert imported and not private


def test_cli_has_one_error_path_to_its_exit_codes():
    # the CLI's own rules raise the library's InvalidParameterError and a
    # failed write OSError; only main turns an exception into an exit code
    tree = _tree("cli")
    assert not [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    raised = {ast.unparse(n.exc.func) for n in ast.walk(tree) if isinstance(n, ast.Raise)}
    assert raised == {"InvalidParameterError", "OSError"}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name != "main":
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            assert not names & {"_EXIT_BAD_INPUT", "_EXIT_IO"}, top.name
            for handler in (n for n in ast.walk(top) if isinstance(n, ast.ExceptHandler)):
                assert isinstance(handler.body[-1], ast.Raise), top.name


def test_checks_8_and_10_have_one_body_for_both_lattices():
    # each check loops over one row per lattice: one call site per library
    # function, and the 1D/2D pair only as the rows' entries
    symmetry = _function("validation", "check_symmetry")
    named = [n.id for n in ast.walk(symmetry) if isinstance(n, ast.Name)]
    for name in ("empirical_symmetric_1d", "empirical_symmetric_2d", "in_phi_perp",
                 "in_phi_perp_2d"):
        assert named.count(name) == 1, name
    localization = _function("validation", "check_localization")
    judged = [
        n for n in ast.walk(localization)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_judge_estimate"
    ]
    assert len(judged) == 1


def test_closed_form_never_reads_the_flush_threshold():
    # check 3 and the long-horizon closed-form gate compare the flushed engine
    # with the closed form; the alpha recurrence sheds its own subnormal
    # tails, but reading the step's flush would make that a comparison of
    # the flush with itself
    names = set()
    for node in ast.walk(_tree("closedform")):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.Attribute, ast.Name)):
            names.add(getattr(node, "attr", getattr(node, "id", None)))
    assert not names & {"_TINY", "_FLUSH_EVERY", "_flush", "_underflows"}


LAYERS = ("errors", "coin", "walk1d", "walk2d", "closedform", "spectral", "symmetry",
          "localization")

# the top-level names before the package re-exported each layer's __all__ as is
EXPORTED_BEFORE = {
    "errors": "QwalkError InvalidParameterError InvalidStateError DegenerateSpectrumError "
    "PreconditionError",
    "coin": "CoinParameter coin_1d coin_2d kernel_1d kernel_2d",
    "walk1d": "QubitState WaveField1D Distribution1D init_1d step_1d trajectory_1d evolve_1d "
    "distribution_1d moment_1d",
    "walk2d": "QuditState WaveField2D Distribution2D init_2d step_2d trajectory_2d evolve_2d "
    "distribution_2d joint_moment_2d",
    "closedform": "LaurentCoefficients alpha_coefficients double_sum_coefficient "
    "closed_form_field closed_form_fields",
    "spectral": "QuadratureGrid MomentReport sigma group_velocity limit_moment_1d "
    "limit_moments_2d limit_moment_2d convergence_report",
    "symmetry": "SymmetryVerdict1D ABTable in_phi_perp in_phi_perp_2d empirical_symmetric_1d "
    "empirical_symmetric_2d classify_1d expectation_series extract_ab kns_check "
    "reflection_identity_1d reflection_identity_2d",
    "localization": "DeltaIntensityEstimate time_averaged_probability_1d "
    "time_averaged_probability_2d localization_verdict",
}

# input checks the modules share by name; not public
HELPERS = {
    "errors": ("require_int", "require_ladder", "require_real", "require_time"),
    "coin": ("as_coin", "validate_wavenumber"),
    "spectral": ("validate_time_ladder",),
    "localization": ("validate_horizon_ladder", "validate_epsilon"),
}


def test_package_all_is_the_layers_all_in_order():
    layers = [importlib.import_module(f"qwalk.{m}") for m in LAYERS]
    expected = ["__version__"] + [n for mod in layers for n in mod.__all__]
    assert qwalk.__all__ == expected
    assert len(set(expected)) == len(expected)
    for mod in layers:
        for n in mod.__all__:
            assert getattr(qwalk, n) is getattr(mod, n), n


def test_package_init_lists_no_public_name_by_hand():
    tree = _tree("__init__")
    strings = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert strings & set(qwalk.__all__) == {"__version__"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1, ast.dump(node)
            names = [a.name for a in node.names]
            assert names == ["*"] or set(names) <= set(LAYERS), names
            assert node.module in (None, *LAYERS), node.module


def test_import_qwalk_loads_neither_validation_nor_cli():
    code = "import sys, qwalk; print(*sorted(m for m in sys.modules if m.startswith('qwalk')))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert set(run.stdout.split()) == {"qwalk", *(f"qwalk.{m}" for m in LAYERS)}


# public names deleted since, with no caller and no oracle role
DELETED = ("EigenBranch", "eigensystem_1d", "eigensystem_2d", "zero_mean_1d")


def test_every_earlier_top_level_name_resolves_to_the_same_object():
    assert sum(len(v.split()) for v in EXPORTED_BEFORE.values()) == 57
    for module, names in EXPORTED_BEFORE.items():
        mod = importlib.import_module(f"qwalk.{module}")
        for n in names.split():
            assert n in qwalk.__all__ and getattr(qwalk, n) is getattr(mod, n), n
    for n in DELETED:
        assert not hasattr(qwalk, n), n
    assert not hasattr(qwalk.spectral, "_branch_vectors")
    assert qwalk.__version__ == "0.1.0"


# the __all__ names of the layers and validation that no other module of the
# package references and no public function returns, each with its role
ROLES = {
    "kernel_1d": "the independent kernel the spectral tests diagonalize with numpy eig",
    "kernel_2d": "kernel_1d's role on the square lattice",
    "step_1d": "the step trajectory_1d and evolve_1d iterate",
    "step_2d": "the step trajectory_2d and evolve_2d iterate",
    "init_2d": "the field trajectory_2d and evolve_2d start from",
    "closed_form_field": "the one-time case of closed_form_fields, held to evolve_1d",
    "sigma": "the oracle for the line spectrum's eigenvalues",
    "group_velocity": "the oracle for the line's branch velocities",
    "limit_moment_2d": "the lattice limit convergence_report reads",
    "EXCHANGE_1D": "the exchange constant reflection_identity_1d reads",
    "ALL_CHECKS": "the check table run_checks iterates",
}


def _referenced(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, imports or takes as an attribute."""
    return {
        getattr(node, "id", None) or getattr(node, "attr", None) or node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_public_name_has_a_caller_or_a_role():
    # a new public name that nothing calls fails here until its role is written
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    returned = {
        name
        for tree in trees.values()
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and not top.name.startswith("_") and top.returns
        for name in _referenced(top.returns)
    }
    uncalled = set()
    for module in (*LAYERS, "validation"):
        (public,) = [
            ast.literal_eval(top.value)
            for top in trees[module].body
            if isinstance(top, ast.Assign) and getattr(top.targets[0], "id", None) == "__all__"
        ]
        used = set().union(*(_referenced(t) for m, t in trees.items() if m != module))
        uncalled |= set(public) - used - returned
    assert uncalled == set(ROLES)


def test_shared_input_checks_are_importable_but_not_public():
    every_all = {n for m in (*LAYERS, "validation", "cli")
                 for n in importlib.import_module(f"qwalk.{m}").__all__}
    for module, names in HELPERS.items():
        mod = importlib.import_module(f"qwalk.{module}")
        for n in names:
            assert callable(getattr(mod, n)) and n not in every_all, n
            assert not hasattr(qwalk, n), n
    assert not hasattr(qwalk.WaveField2D, "site_grids")
    assert not hasattr(qwalk, "EXCHANGE_2D_TENSOR")
    assert not hasattr(qwalk.Distribution1D, "to_dict")


def test_each_check_prints_the_tolerance_it_tests():
    # a tolerance in a check's detail text is formatted from the value the
    # pass test reads, never written a second time as a literal
    for node in ast.walk(_tree("validation")):
        if isinstance(node, ast.JoinedStr):
            for part in node.values:
                if isinstance(part, ast.Constant):
                    assert not re.search(r"tol \d", part.value), part.value


def test_validation_has_no_builtin_max_accumulator():
    # max(worst, nan) keeps worst: `worst = max(worst, ...)` drops a NaN
    accumulators = [
        node.targets[0].id
        for node in ast.walk(_tree("validation"))
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "max"
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
    ]
    assert accumulators == []


def test_only_the_verdict_rule_compares_with_a_tolerance():
    comparing = {
        top.name
        for top in _tree("validation").body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Compare)
        and "tol" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    }
    assert comparing == {"_judged"}


def test_the_test_run_fails_on_complex_warning():
    # tests/conftest.py makes the warning an error, so a test that casts a
    # complex value to a real dtype fails instead of passing with a warning
    with pytest.raises(getattr(np, "exceptions", np).ComplexWarning):  # numpy 1.24: top level
        np.array([1 + 1j]).astype(np.float64)
