"""Rules that the package source itself must keep."""

import ast
from pathlib import Path

import pytest

import entdist
import entdist.cli
import entdist.environment
import entdist.protocols
import entdist.scanner
from entdist import Protocol


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so a runtime check written as one
    # silently stops checking; checks raise typed errors instead
    sources = sorted(Path(entdist.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"assert statements in the package: {', '.join(found)}"


def test_public_names_resolve_once_and_in_order():
    names = entdist.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    missing = [name for name in names if not hasattr(entdist, name)]
    assert not missing, f"unresolved public names: {', '.join(missing)}"


def test_no_pipeline_is_public():
    # the symplectic pipelines are test-side references (tests/gaussian_reference.py)
    assert not [name for name in entdist.__all__ if name.endswith("_pipeline")]


def test_package_neither_defines_nor_imports_the_references():
    # generic symplectic operations, pipelines and closed forms that only the
    # references and tests use, and duplicates of evaluators the package keeps
    moved = {"SymplecticTransform", "beam_splitter", "apply_symplectic", "homodyne_condition",
             "symplectic_eigenvalues_two_mode", "_bell_measure",
             "coherent_information", "env_pts", "bell_port_variances", "eb_threshold_nbar",
             "one_mode_output_cm", "swap_noiseless_cm", "direct_spectrum_asymptotic",
             "make_epr_cm", "make_env_cm"}
    found = []
    for path in sorted(Path(entdist.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # ScanGrid.env_pts is the scan's field, not the scalar evaluator; no other
        # method is exempt
        exempt = {id(item) for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name == "ScanGrid"
                  for item in node.body
                  if isinstance(item, ast.FunctionDef) and item.name == "env_pts"}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and id(node) not in exempt:
                names = [node.name]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.extend(f"{path.name}:{name}" for name in names
                         if name in moved or name.endswith("_pipeline"))
    assert not found, f"reference-only names in the package: {', '.join(found)}"


def test_protocol_is_one_enum_and_no_function_takes_a_swap_flag():
    # a ``swap`` flag beside the enum let a value that is not Protocol.SWAP read
    # as direct; every protocol choice is a Protocol member, defined once
    defining = []
    flags = []
    for path in sorted(Path(entdist.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Protocol":
                defining.append(path.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + \
                    [a for a in (args.vararg, args.kwarg) if a is not None]
                flags.extend(f"{path.name}:{node.lineno}" for a in params if a.arg == "swap")
    assert defining == ["protocols.py"]
    assert not flags, f"swap parameters in the package: {', '.join(flags)}"


def test_protocol_resolves_to_one_object():
    # perfbench imports it from entdist.scanner
    assert entdist.scanner.Protocol is entdist.protocols.Protocol is entdist.Protocol


def test_cli_reads_no_whole_grid_float_field():
    # a scan keeps runs of cells; ScanGrid.eps and ScanGrid.env_pts build a
    # float64 array of the whole grid, so the renderer asks for the eps rows
    # of each tile (ScanGrid.eps_rows) and reads neither
    path = Path(entdist.cli.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("eps", "env_pts")]
    assert not found, f"whole-grid float fields read in the CLI: {', '.join(found)}"


def test_cli_reads_no_whole_grid_code_array():
    # a scan keeps runs of cells, a few ints per g row; ScanGrid.kind and
    # ScanGrid.activation build an int8 array of the whole grid from them, so
    # the renderer copies each run's fragments by slice and takes each render
    # tile's mask from ScanGrid.physical_rows, and reads neither
    path = Path(entdist.cli.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("kind", "activation")]
    assert not found, f"whole-grid code arrays read in the CLI: {', '.join(found)}"


class _NoNumpy:
    """Stands in for numpy in a module whose scalar path must not use it."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy used on the scalar path: np.{name}")


@pytest.fixture
def no_numpy(monkeypatch):
    for module in (entdist.environment, entdist.protocols, entdist.scanner):
        monkeypatch.setattr(module, "np", _NoNumpy())


def test_scalar_formulas_use_no_numpy(no_numpy):
    env = entdist.environment
    assert env.bona_fide_conditions(7.0, 5.0, -5.0) == (True, True, True)
    assert env.env_pts_radicand(7.0, 5.0, -5.0) == 4.0
    assert env.is_separable(7.0, 5.0, -5.0) is True
    assert env.classify_environment(7.0, 5.0, -5.0) == env.EnvClass(env.EnvKind.SEPARABLE, 2.0)
    for protocol, eps in ((Protocol.DIRECT, 0.5), (Protocol.SWAP, 2.0 / 3.0)):
        assert entdist.protocols.large_mu_eps(0.75, 7.0, 5.0, -5.0, protocol) == eps


@pytest.mark.parametrize("protocol", [Protocol.DIRECT, Protocol.SWAP])
@pytest.mark.parametrize("tau", [0.3, 0.8])
def test_activation_search_uses_no_numpy(no_numpy, protocol, tau):
    found, witness = entdist.scanner.separable_activation_exists(tau, protocol)
    assert found is (protocol is Protocol.DIRECT or tau > 0.5)
    assert (witness is None) is not found


def test_point_without_mu_uses_no_numpy(no_numpy, capsys):
    argv = ["point", "--tau", "0.75", "--at-eb", "--g", "5", "--gp=-5", "--output", "-"]
    assert entdist.cli.main(argv) == 0
    assert "direct_eps,0.5\n" in capsys.readouterr().out


def _parse(path):
    return ast.parse(Path(path).read_text(encoding="utf-8"), filename=str(path))


def test_only_the_eps_map_tells_environment_only_apart():
    # each spec's _eps_map holds its eps field, scale and activation levels,
    # so no other code in the scanner branches on the protocol having no eps
    # of its own
    tree = _parse(entdist.scanner.__file__)
    maps = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_eps_map"]
    assert len(maps) == 1
    inside = {id(node) for node in ast.walk(maps[0])}
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "ENVIRONMENT_ONLY"]
    assert found, "the eps map no longer names ENVIRONMENT_ONLY"
    outside = [f"scanner.py:{node.lineno}" for node in found if id(node) not in inside]
    assert not outside, f"ENVIRONMENT_ONLY outside the eps map: {', '.join(outside)}"


def test_no_module_level_import_goes_unused():
    # __init__.py imports to re-export, so it is exempt; no linter runs here
    unused = []
    for path in sorted(Path(entdist.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(f"{path.name}:{line} {name}" for name, line in imported.items()
                      if name not in used)
    assert not unused, f"unused imports: {', '.join(unused)}"
