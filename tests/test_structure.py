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
from qwalk import cli

SRC = Path(qwalk.__file__).parent


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def test_only_trajectories_call_the_step_functions():
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
        ("walk2d", "trajectory_2d", "step_2d"),
    }


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
    tree = _tree("validation")
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    roots = {m.split(".")[0] for m in modules}
    assert not roots & {"concurrent", "threading", "multiprocessing"}
    names = {
        getattr(node, "attr", getattr(node, "id", None))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert not names & {"environ", "getenv"}


def test_spectral_calls_no_eigensolver_or_qr():
    # the lattice spectrum is closed form; the line's is a closed-form quadratic
    calls = set()
    for node in ast.walk(_tree("spectral")):
        f = getattr(node, "func", None)
        if (
            isinstance(node, ast.Call)
            and isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Attribute)
            and f.value.attr == "linalg"
        ):
            calls.add(f.attr)
    assert not calls & {"eig", "eigh", "eigvals", "eigvalsh", "qr"}
    assert calls <= {"norm"}


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
    assert {n for n, called in calls.items() if "_velocities" in called} == {
        "_eigensystem",
        "_limit_moments",
    }


def test_lattice_sweep_builds_no_eigenvector():
    # the sweep reads spectral projectors; only the one-node eigensystem_2d
    # turns them into eigenvectors (column selection, normalization,
    # Newton-Schulz)
    calls = _calls_by_function("spectral")
    assert {n for n, called in calls.items() if "_branch_vectors_2d" in called} == {
        "_eigensystem"
    }
    for name in ("_limit_moments", "_batch_eigensystem", "_weights_2d"):
        assert not calls[name] & {"_branch_vectors_2d", "argmax", "norm"}, name
    assert {"_batch_eigensystem", "_weights_2d"} <= calls["_limit_moments"]


def test_every_closed_form_reads_the_one_recurrence_pass():
    calls = _calls_by_function("closedform")
    assert {n for n, called in calls.items() if "_alpha_pairs" in called} == {
        "alpha_coefficients",
        "closed_form_fields",
    }
    assert "closed_form_fields" in calls["closed_form_field"]


def test_check_3_makes_one_closed_form_call_per_state():
    called = _calls_by_function("validation")["check_closed_form"]
    assert "closed_form_fields" in called
    assert "closed_form_field" not in called


def test_check_5_reads_its_verdict_from_convergence_report():
    called = _calls_by_function("validation")["check_limit_1d"]
    assert "convergence_report" in called
    assert "moment_1d" not in called


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


def test_closed_form_never_reads_the_flush_threshold():
    # check 3 and the long-horizon closed-form gate compare the flushed engine
    # with the closed form; flushing the alpha recurrence as well would make
    # that a comparison of the flush with itself
    names = set()
    for node in ast.walk(_tree("closedform")):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.Attribute, ast.Name)):
            names.add(getattr(node, "attr", getattr(node, "id", None)))
    assert not names & {"_TINY", "_FLUSH_EVERY", "_flush", "_underflows", "finfo", "tiny"}


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
    "spectral": "QuadratureGrid EigenBranch MomentReport sigma group_velocity eigensystem_1d "
    "eigensystem_2d limit_moment_1d limit_moments_2d limit_moment_2d convergence_report",
    "symmetry": "SymmetryVerdict1D ABTable in_phi_perp in_phi_perp_2d empirical_symmetric_1d "
    "empirical_symmetric_2d classify_1d expectation_series extract_ab kns_check "
    "reflection_identity_1d reflection_identity_2d",
    "localization": "DeltaIntensityEstimate time_averaged_probability_1d "
    "time_averaged_probability_2d localization_verdict",
}

# input checks the modules share by name; not public
HELPERS = {
    "errors": ("require_int", "require_ladder", "require_real"),
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


def test_every_earlier_top_level_name_resolves_to_the_same_object():
    assert sum(len(v.split()) for v in EXPORTED_BEFORE.values()) == 60
    for module, names in EXPORTED_BEFORE.items():
        mod = importlib.import_module(f"qwalk.{module}")
        for n in names.split():
            assert n in qwalk.__all__ and getattr(qwalk, n) is getattr(mod, n), n
    assert qwalk.__version__ == "0.1.0"


def test_shared_input_checks_are_importable_but_not_public():
    every_all = {n for m in (*LAYERS, "validation", "cli")
                 for n in importlib.import_module(f"qwalk.{m}").__all__}
    for module, names in HELPERS.items():
        mod = importlib.import_module(f"qwalk.{module}")
        for n in names:
            assert callable(getattr(mod, n)) and n not in every_all, n
            assert not hasattr(qwalk, n), n
    assert not hasattr(qwalk.WaveField2D, "site_grids")
    assert not hasattr(qwalk.Distribution1D, "to_dict")


def test_each_check_prints_the_tolerance_it_tests():
    # a tolerance in a check's detail text is formatted from the value the
    # pass test reads, never written a second time as a literal
    for node in ast.walk(_tree("validation")):
        if isinstance(node, ast.JoinedStr):
            for part in node.values:
                if isinstance(part, ast.Constant):
                    assert not re.search(r"tol \d", part.value), part.value


def test_the_test_run_fails_on_complex_warning():
    # tests/conftest.py makes the warning an error, so a test that casts a
    # complex value to a real dtype fails instead of passing with a warning
    with pytest.raises(getattr(np, "exceptions", np).ComplexWarning):  # numpy 1.24: top level
        np.array([1 + 1j]).astype(np.float64)
