"""Rules that the package source itself must keep."""

import ast
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import entdist
import entdist.cli
import entdist.environment
import entdist.protocols
import entdist.render
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


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'entdist' has no attribute 'no_such_name'$"):
        entdist.no_such_name


def test_dir_lists_every_public_name():
    listed = dir(entdist)
    assert listed == sorted(listed)
    assert set(entdist.__all__) <= set(listed)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from entdist import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == entdist.__all__
    assert all(value is getattr(entdist, name) for name, value in namespace.items())


@pytest.mark.parametrize("name", entdist._SCANNER_NAMES)
def test_scanner_names_are_the_scanner_objects(name):
    # imported on first access, through the package's module __getattr__
    assert getattr(entdist, name) is getattr(entdist.scanner, name)


@pytest.mark.parametrize("name", ["Activation", "DISTILLABLE_EPS"])
def test_activation_names_resolve_to_one_object(name):
    # defined in protocols, which `point` needs; the scanner re-exports them
    assert getattr(entdist.scanner, name) is getattr(entdist.protocols, name) \
        is getattr(entdist, name)


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
             "make_epr_cm", "make_env_cm",
             "symplectic_eigenvalues", "partial_transpose", "partial_trace",
             "pts_min_eigenvalue", "von_neumann_entropy", "reference_report",
             "entanglement_report", "symplectic_form", "_checked_modes",
             "epr_variances_from_cm", "swap_coherent_info_determinant",
             "n_modes", "mode_block", "eps"}
    found = []
    for path in sorted(Path(entdist.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
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


# the CLI's modules: the command and, since it renders a scan, the scan renderer
CLI_SOURCES = [Path(entdist.cli.__file__), Path(entdist.render.__file__)]


def _attribute_reads(paths, attrs):
    """`file:line` of each read of one of `attrs` as an attribute in the files `paths`."""
    return [f"{path.name}:{node.lineno}" for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr in attrs]


def test_cli_reads_no_whole_grid_float_field():
    # a scan keeps runs of cells; eps_field evaluates a float64 array of the
    # whole grid, so the renderer asks for the eps rows of each tile
    # (ScanGrid.eps_rows) and reads it neither as a name nor as an attribute
    found = [path.name for path in CLI_SOURCES if _reads(_parse(path))["eps_field"]]
    assert not found, f"whole-grid float fields read in the CLI: {', '.join(found)}"


def test_cli_reads_no_whole_grid_code_array():
    # a scan keeps runs of cells, a few ints per g row; ScanGrid.kind and
    # ScanGrid.activation build an int8 array of the whole grid from them, so
    # the renderer copies each run's fragments by slice, finds each render
    # tile's Forbidden cells as the NaN of ScanGrid.eps_rows, and reads neither
    found = _attribute_reads(CLI_SOURCES, ("kind", "activation"))
    assert not found, f"whole-grid code arrays read in the CLI: {', '.join(found)}"


def test_guards_see_the_scan_renderer():
    # the two guards above pass on any source where they find nothing: the
    # renderer must be among their files, and its reads of eps_rows among what
    # they walk
    assert _attribute_reads(CLI_SOURCES[1:], ("eps_rows",))


class _NoNumpy(types.ModuleType):
    """Stands in for numpy where the scalar path must not use it; a module, so
    that ``import numpy`` inside a function returns it from ``sys.modules``."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy used on the scalar path: np.{name}")


@pytest.fixture
def no_numpy(monkeypatch):
    # the scanner and the scan renderer import numpy at module level; the other
    # modules import it in the functions that use it
    stub = _NoNumpy("numpy")
    monkeypatch.setitem(sys.modules, "numpy", stub)
    monkeypatch.setattr(entdist.scanner, "np", stub)


# Python ints take the scalar path too, and give Python numbers and bools
@pytest.mark.parametrize("point", [(7.0, 5.0, -5.0), (7, 5, -5)], ids=["float", "int"])
def test_scalar_formulas_use_no_numpy(no_numpy, point):
    env = entdist.environment
    number = type(point[0])
    assert [(type(x), x) for x in (env.rising(*point), env.falling(*point))] == \
        [(number, 4), (number, 144)]
    assert env.bona_fide_conditions(*point) == (True, True, True)
    assert [type(x) for x in env.bona_fide_conditions(*point)] == [bool] * 3
    radicand = env.env_pts_radicand(*point)
    assert type(radicand) is number and radicand == 4
    assert env.is_separable(*point) is True
    assert env.classify_environment(*point) == env.EnvClass(env.EnvKind.SEPARABLE, 2.0)
    params = env.EnvironmentParams(0.75, *point)
    for protocol, eps in ((Protocol.DIRECT, 0.5), (Protocol.SWAP, 2.0 / 3.0)):
        value = entdist.protocols.large_mu_eps(0.75, *point, protocol)
        assert type(value) is float and value == eps
        # the finite-mu PTS eigenvalue squared, its excess over eps^2 and the
        # full symplectic spectrum squared
        assert [type(x) for x in entdist.protocols._squared_spectra(1e3, params, protocol)] == \
            [float] * 4


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


def _omega_factor(node):
    """An omega + x or omega - x expression (either order), omega spelled omega, w or .omega."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)) and any(
        isinstance(side, ast.Name) and side.id in ("omega", "w")
        or isinstance(side, ast.Attribute) and side.attr == "omega"
        for side in (node.left, node.right))


def _omega_products(tree):
    """The products of two omega +- x factors in ``tree``."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and _omega_factor(node.left) and _omega_factor(node.right)]


@pytest.mark.parametrize("source, found", [
    ("(w - g) * (w + gp)", 1),
    ("(a + omega) * (omega - gp)", 1),
    ("(env.omega + g) * (self.omega - gp)", 1),
    ("t1 * (w - g) + t1 * (w + gp)", 0),
    ("(x - g) * (x + gp)", 0),
])
def test_product_guard_sees_every_spelling(source, found):
    # the guard below passes on any tree where this finds nothing
    assert len(_omega_products(ast.parse(source))) == found


def test_only_the_two_products_multiply_omega_factors():
    # every decision of the plane reads environment.rising or environment.falling,
    # which state once why the products stay factored; a product of two omega +- x
    # factors anywhere else is a second copy of one of them
    homes, outside = [], []
    for path in sorted(Path(entdist.__file__).parent.glob("*.py")):
        tree = _parse(path)
        inside = {id(node) for home in tree.body if path.name == "environment.py"
                  and isinstance(home, ast.FunctionDef) and home.name in ("rising", "falling")
                  for node in ast.walk(home)}
        for node in _omega_products(tree):
            (homes if id(node) in inside else outside).append(f"{path.name}:{node.lineno}")
    assert not outside, f"omega factor products outside the home: {', '.join(outside)}"
    assert len(homes) == 2, f"the two home products are not where expected: {homes}"


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


def _module_level_names(tree):
    """(name, node) of each function, class and constant the module body defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id, node


def _reads(tree):
    """How often each name is read in `tree`, as a name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
                   or isinstance(node, ast.Attribute))


def test_every_module_level_name_is_used_or_public():
    # a name that nothing in the package reads and that the package does not
    # export is dead code: the tests alone keep it alive
    trees = {path.name: _parse(path)
             for path in sorted(Path(entdist.__file__).parent.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    public = set(entdist.__all__)
    dead = [f"{filename}:{definition.lineno} {name}"
            for filename, tree in trees.items()
            for name, definition in _module_level_names(tree)
            if not (name.startswith("__") and name.endswith("__") or name in public)
            and reads[name] == _reads(definition)[name]]
    assert not dead, f"module-level names neither used nor public: {', '.join(dead)}"
