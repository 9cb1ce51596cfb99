"""The package's public names: every ``__all__`` entry resolves, and the
top-level surface and that of ``hardycert.io`` are pinned.  The package's
internal imports go one way: states, then local models, then the Hardy
measurement, then the criterion."""

import ast
import importlib
import pkgutil
from pathlib import Path

import hardycert
import hardycert.io

PUBLIC = [
    "__version__",
    "DensityOperator",
    "HardycertError",
    "StateVector",
    "Verdict",
    "behavior_from_state",
    "build_bases",
    "build_observables",
    "candidate_from_state",
    "certify",
    "enumerate_strategies",
    "find_hardy_pair",
    "hardy_parameter_a",
    "lhv_feasible",
    "maximally_mixed",
    "noise_threshold",
    "pure_density",
    "schmidt_decompose",
    "trace_distance",
    "validate_density",
]


def test_every_all_entry_resolves():
    # A stale entry breaks ``from module import *`` for every caller.
    modules = [hardycert] + [
        importlib.import_module(f"hardycert.{info.name}")
        for info in pkgutil.iter_modules(hardycert.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"


def test_top_level_surface_is_pinned():
    assert hardycert.__all__ == PUBLIC


def test_io_keeps_only_the_state_file_format():
    # Reports are laid out in hardycert.cli, their one caller.
    state_file = ["dump_json", "load_state_file", "parse_state_dict", "state_to_dict"]
    assert hardycert.io.__all__ == state_file


def _package_imports() -> dict[str, tuple[set[str], ast.Module]]:
    """Each module of the package: the sibling modules it imports, read from
    its syntax tree (so imports under any ``if`` count too), and the tree."""
    src = Path(hardycert.__file__).parent
    names = {path.stem for path in src.glob("*.py")}
    modules = {}
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        edges = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module:
                edges.add(node.module)
            else:  # ``from . import x``: a module, else a name of the package
                edges.update(a.name if a.name in names else "__init__" for a in node.names)
        modules[path.stem] = (edges, tree)
    return modules


def test_module_imports_go_one_way():
    imports = {name: edges for name, (edges, _) in _package_imports().items()}
    # Kahn's algorithm: a module is placed once all it imports are placed.
    placed: list[str] = []
    pending = dict(imports)
    while pending:
        ready = [name for name, edges in pending.items() if edges <= set(placed)]
        assert ready, f"import cycle among {sorted(pending)}"
        placed.extend(sorted(ready))
        for name in ready:
            del pending[name]
    assert imports["states"] <= {"errors", "linalg"}
    # The local-model oracle must not see states, measurements or the criterion.
    assert imports["lhv"] <= {"errors", "simplex"}
    assert imports["observables"] <= {"errors", "states", "lhv"}


def test_no_module_defers_an_import_to_type_checking():
    # An import kept under ``TYPE_CHECKING`` hides a cycle from the check above.
    for name, (_, tree) in _package_imports().items():
        used = [
            node
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "TYPE_CHECKING")
            or (isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING")
            or (isinstance(node, ast.alias) and node.name == "TYPE_CHECKING")
        ]
        assert not used, f"hardycert.{name} uses TYPE_CHECKING"
