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
    # the batch body's blocks read the run through its one-ladder memo
    calls = _calls_by_function("closedform")
    assert {n for n, called in calls.items() if "_alpha_pairs" in called} == {
        "alpha_coefficients",
        "_alpha_ladder",
    }
    assert {n for n, called in calls.items() if "_alpha_ladder" in called} == {"_blocks"}
    assert "_blocks" in calls["closed_form_amplitudes"]
    assert "closed_form_amplitudes" in calls["closed_form_fields"]
    assert "closed_form_fields" in calls["closed_form_field"]


def test_check_3_reads_both_sides_as_one_batch_per_p_and_time():
    # one closed-form block and one propagator block per (p, t), every
    # state at once: no one-state field on either side
    called = _calls_by_function("validation")["check_closed_form"]
    assert {"closed_form_amplitudes", "amplitudes", "basis_fields_1d"} <= called
    assert not called & {"closed_form_fields", "closed_form_field", "field"}


def _names_by_function(module: str) -> dict[str, set[str]]:
    """Names each top-level function of ``module`` reads, by function name."""
    return {
        top.name: {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
        for top in _tree(module).body
        if isinstance(top, ast.FunctionDef)
    }


# the basis readers that moved from validation into the engine's propagator
MOVED_READERS = {"_BASIS", "_basis_fields", "_parts", "_INVERSION", "_MIRROR", "_image",
                 "_lattice_basis", "_inner", "_coefficients", "_amplitudes", "_masses", "_gram"}


def test_checks_1_3_5_6_8_and_10_read_states_only_through_the_propagator():
    # the public propagator (basis_fields_1d/2d) reads every state of these
    # checks, directly or through the two batch bodies, and validation keeps
    # no reader of its own; only checks 2 and 12 step a state themselves,
    # and check 9 steps its states through symmetry's reflection residuals
    defined = set()
    for top in _tree("validation").body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            defined.add(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    assert not defined & MOVED_READERS
    names = _names_by_function("validation")
    stepping = {f for f, read in names.items() if {"evolve_1d", "evolve_2d"} & read}
    assert stepping == {"check_hand_distributions", "check_propagator_witness"}
    assert not [f for f, read in names.items() if {"trajectory_1d", "trajectory_2d"} & read]
    assert "reflection_residuals" in names["check_reflection"]
    # which step each state directly, through the oracle's own loops, and
    # never read the propagator, whose lattice basis rests on the inversion
    read = _names_by_function("symmetry")["reflection_residuals"]
    assert {"evolve_1d", "evolve_2d", "trajectory_1d", "trajectory_2d", "_stepped"} <= read
    assert not read & {"_propagator", "basis_fields_1d", "basis_fields_2d"}
    reading = {
        "check_unitarity": {"basis_fields_1d", "basis_fields_2d"},
        "check_closed_form": {"basis_fields_1d"},
        "check_limit_1d": {"convergence_reports"},
        "check_limit_2d": {"convergence_reports"},
        "check_symmetry": {"symmetric_states"},
        "check_localization": {"time_averaged_probabilities"},
        "check_propagator_witness": {"basis_fields_1d", "basis_fields_2d"},
    }
    for check, readers in reading.items():
        assert readers <= names[check], check
    # each batch body reads its lattice's propagator and steps nothing itself
    for module, body in (("symmetry", "symmetric_states"),
                         ("localization", "time_averaged_probabilities"),
                         ("spectral", "convergence_reports")):
        called = _calls_by_function(module)[body]
        assert "_propagator" in called, body
        assert not {n for n in called if n.startswith(("evolve_", "trajectory_", "step_"))}, body
    # the propagator steps its basis state through the oracle's own loops
    for module, name, loops in (("walk1d", "basis_fields_1d", {"evolve_1d", "trajectory_1d"}),
                                ("walk2d", "basis_fields_2d", {"evolve_2d", "trajectory_2d"})):
        assert loops | {"_basis_fields"} <= _names_by_function(module)[name], name


def test_the_one_state_forms_are_one_line_wrappers_of_the_batch_bodies():
    # no second code path: each one-state function returns the batch body's
    # answer for a batch of one
    for module, name, body in (
        ("symmetry", "empirical_symmetric_1d", "symmetric_states"),
        ("symmetry", "empirical_symmetric_2d", "symmetric_states"),
        ("localization", "time_averaged_probability_1d", "time_averaged_probabilities"),
        ("localization", "time_averaged_probability_2d", "time_averaged_probabilities"),
        ("closedform", "closed_form_fields", "closed_form_amplitudes"),
        ("symmetry", "reflection_identity_1d", "reflection_residuals"),
        ("symmetry", "reflection_identity_2d", "reflection_residuals"),
    ):
        statements = _function(module, name).body
        if isinstance(statements[0], ast.Expr):  # the docstring
            statements = statements[1:]
        (statement,) = statements
        assert isinstance(statement, ast.Return), name
        assert body in _calls_by_function(module)[name], name


# the identities each check reads its states by: the line's propagator by
# linearity alone (its basis is one packed state), the lattice's by
# linearity and the inversion and mirror images of one field, except for
# check 8's symmetry verdicts, which step e_2 too and read only the mirror
READS_BY = {
    "check_unitarity": {"linearity", "inversion", "mirror"},
    "check_closed_form": {"linearity"},
    "check_limit_1d": {"linearity"},
    "check_limit_2d": {"linearity", "inversion", "mirror"},
    "check_symmetry": {"linearity", "mirror"},
    "check_localization": {"linearity", "inversion", "mirror"},
}
# the criteria that witness each identity by stepping states directly
WITNESSES = {"linearity": {12}, "inversion": {9, 12}, "mirror": {12}}


def test_every_identity_a_check_reads_by_has_a_witness():
    # a check that reads states through the propagator must be in the table,
    # a check that reads the lattice must list the mirror, and the inversion
    # unless it judges the inversion itself; every identity must have a
    # criterion that steps states with no image and no linearity, so a new
    # identity without one fails here; a batch body serves either lattice,
    # identity, and a check reads the lattice when it builds lattice states
    names = _names_by_function("validation")
    propagated = {"basis_fields_1d", "basis_fields_2d", "symmetric_states",
                  "time_averaged_probabilities", "convergence_reports"}
    reading = {f for f, read in names.items() if f.startswith("check_") and read & propagated}
    assert reading - {"check_propagator_witness"} == set(READS_BY)
    for check, identities in READS_BY.items():
        assert "linearity" in identities, check
        lattice = "QuditState" in names[check]
        assert ("mirror" in identities) == lattice, check
        judged = "symmetric_states" in names[check]
        assert ("inversion" in identities) == (lattice and not judged), check
    numbers = {fn.__name__: number for number, _, _, fn in validation.ALL_CHECKS}
    direct = {"evolve_1d", "evolve_2d", "reflection_residuals"}
    stepping = {numbers[f] for f, read in names.items() if f in numbers and read & direct}
    for identity in set().union(*READS_BY.values()):
        assert WITNESSES.get(identity), identity
        assert WITNESSES[identity] <= stepping, identity


def test_symmetry_verdicts_step_e2_on_the_lattice():
    # the one propagator call of symmetric_states that reads the lattice
    # asks for e_2's stepped field: read as e_1's inversion image, every
    # balanced state would be symmetric by construction
    calls = [
        node for node in ast.walk(_function("symmetry", "symmetric_states"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "basis_fields"
    ]
    steps = [
        [(k.arg, ast.literal_eval(k.value)) for k in call.keywords] for call in calls
    ]
    assert sorted(steps) == [[], [("step_e2", True)]]


# what checks 5 and 6 once built their reports from by hand
REPORT_PARTS = {"limit_moment_1d", "limit_moments_2d", "limit_moment_2d", "basis_fields_1d",
                "basis_fields_2d", "moment_1d", "joint_moment_2d", "Distribution1D",
                "Distribution2D", "MomentReport"}


def test_convergence_reports_is_the_one_place_a_limit_meets_a_simulation():
    # checks 5 and 6 call it and none of its parts, and convergence_report
    # returns its row; spectral steps nothing and builds no distribution of
    # a field, but reads one basis trajectory through the propagator
    names, calls = _names_by_function("validation"), _calls_by_function("validation")
    for check in ("check_limit_1d", "check_limit_2d"):
        assert "convergence_reports" in calls[check], check
        assert not names[check] & REPORT_PARTS, check
    imported = {a.name for n in ast.walk(_tree("validation")) if isinstance(n, ast.ImportFrom)
                for a in n.names}
    assert not imported & (REPORT_PARTS - {"limit_moment_1d", "basis_fields_1d", "basis_fields_2d"})
    spectral_calls = _calls_by_function("spectral")
    prefixes = ("trajectory_", "evolve_", "distribution_", "step_")
    assert not [n for c in spectral_calls.values() for n in c if n.startswith(prefixes)]
    assert {"_propagator", "basis_fields", "_limit_moments"} <= spectral_calls["convergence_reports"]
    returns = [ast.unparse(n.value) for n in ast.walk(_function("spectral", "convergence_report"))
               if isinstance(n, ast.Return)]
    # the row, or the trivial moment's report, which computes no limit
    assert "convergence_reports([th], p, [orders], ladder, grid)[0][0]" in returns
    assert len(returns) == 2 and [r for r in returns if r.startswith("MomentReport(alpha")]


def test_check_5_reads_its_verdict_from_each_report():
    # the convergence rule stays the library's: check 5's verdict is each
    # MomentReport's converged, with no gap comparison of its own
    body = _function("validation", "check_limit_1d")
    assert "converged" in {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
    for compare in (n for n in ast.walk(body) if isinstance(n, ast.Compare)):
        read = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(compare)}
        assert not read & {"gaps", "_GAP_FLOOR"}, ast.unparse(compare)


def test_validation_computes_no_moment_of_its_own():
    # the package's one moment formula is walk1d._moment, behind moment_1d and
    # joint_moment_2d, which convergence_reports reads every simulated
    # moment through: validation builds no site coordinates, and checks 5
    # and 6 weigh no masses themselves
    calls = _calls_by_function("validation")
    assert not [n for n, called in calls.items() if called & {"arange", "_moment"}]
    assert {"moment", "distribution"} <= _calls_by_function("spectral")["convergence_reports"]
    assert {"moment_1d", "joint_moment_2d"} <= _names_by_function("spectral")["convergence_reports"]
    for name in ("check_limit_1d", "check_limit_2d"):
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
    for module, name in (("spectral", "convergence_report"), ("spectral", "convergence_reports"),
                         ("validation", "check_limit_1d"), ("validation", "check_limit_2d")):
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
    # each check loops over one row per lattice and calls the one batch body
    # that serves both lattices, once per row and p (check 8 once more, for
    # its unbalanced state to t = 3); the one-state wrappers are not called
    names = _names_by_function("validation")
    symmetry = _function("validation", "check_symmetry")
    named = [n.id for n in ast.walk(symmetry) if isinstance(n, ast.Name)]
    for name in ("in_phi_perp", "in_phi_perp_2d"):
        assert named.count(name) == 1, name
    assert named.count("symmetric_states") == 2
    localization = _function("validation", "check_localization")
    called = [
        n.func.id for n in ast.walk(localization)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    ]
    assert called.count("_judge_estimate") == called.count("time_averaged_probabilities") == 1
    wrappers = {"empirical_symmetric_1d", "empirical_symmetric_2d",
                "time_averaged_probability_1d", "time_averaged_probability_2d"}
    assert not set().union(*names.values()) & wrappers


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
    "init_1d": "the field trajectory_1d and evolve_1d start from",
    "init_2d": "the field trajectory_2d and evolve_2d start from",
    "closed_form_fields": "closed_form_amplitudes of one state, as fields",
    "closed_form_field": "the one-time case of closed_form_fields, held to evolve_1d",
    "sigma": "the oracle for the line spectrum's eigenvalues",
    "group_velocity": "the oracle for the line's branch velocities",
    "limit_moment_2d": "the one-state, one-order case of limit_moments_2d",
    "limit_moments_2d": "the lattice's public limit sweep, held to an eig + QR reference",
    "empirical_symmetric_1d": "symmetric_states of one line state, which classify_1d reads",
    "empirical_symmetric_2d": "empirical_symmetric_1d's role on the lattice",
    "reflection_identity_1d": "reflection_residuals of one line state at one time",
    "reflection_identity_2d": "reflection_identity_1d's role on the lattice",
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
