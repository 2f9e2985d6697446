"""Source-level design invariants of the package."""

import argparse
import ast
from pathlib import Path

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
