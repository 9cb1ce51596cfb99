"""The package's public names: every ``__all__`` entry resolves, and the
top-level surface and that of ``hardycert.io`` are pinned.  The package's
internal imports go one way: states, then local models, then the Hardy
measurement, then the criterion."""

import ast
import dataclasses
import functools
import importlib
import pkgutil
from enum import Enum
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
    # A stale entry breaks ``from module import *`` for every caller.  The
    # list takes in ``hardycert.__main__``, whose import must return rather
    # than run the command line and end the process.
    modules = _package_modules()
    assert "hardycert.__main__" in [module.__name__ for module in modules]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"


def test_top_level_surface_is_pinned():
    assert hardycert.__all__ == PUBLIC


def test_io_keeps_only_the_state_file_format():
    # Reports are laid out in hardycert.cli, their one caller.
    state_file = ["dump_json", "load_state_file", "parse_state_dict", "state_to_dict"]
    assert hardycert.io.__all__ == state_file


def _package_modules() -> list:
    """The package and each of its modules, ``hardycert.__main__`` too."""
    return [hardycert] + [
        importlib.import_module(f"hardycert.{info.name}")
        for info in pkgutil.iter_modules(hardycert.__path__)
    ]


def test_result_records_are_named_tuples():
    # A frozen dataclass earns its place by checking its fields in
    # ``__post_init__`` or by computing one on first read; any other record
    # of results is a NamedTuple, read by attribute and ``_asdict()``.
    records, offenders = set(), []
    for module in _package_modules():
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            if issubclass(cls, (Enum, Exception)):
                continue
            records.add(cls.__name__)
            if dataclasses.is_dataclass(cls):
                cached = any(isinstance(v, functools.cached_property) for v in vars(cls).values())
                if not ("__post_init__" in vars(cls) or cached):
                    offenders.append(cls.__name__)
            elif not (issubclass(cls, tuple) and hasattr(cls, "_fields")):
                offenders.append(cls.__name__)
    assert records >= {"Behavior", "CertificationReport", "HardyPair", "NoiseThresholdReport"}
    assert not offenders, f"plain records that are no NamedTuple: {sorted(offenders)}"


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
    # The local-model oracle must not see states, measurements or the
    # criterion; linalg, which it reads for the round-off bound, holds only
    # numerics and imports nothing of the package.
    assert imports["lhv"] <= {"errors", "simplex", "linalg"}
    assert imports["linalg"] == set()
    assert imports["observables"] <= {"errors", "states", "lhv", "linalg"}


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


def test_only_linalg_reads_the_machine_constants():
    # eps and the smallest normal float are read once, in linalg, so every
    # round-off budget takes the one form of linalg._roundoff.
    readers = {
        name
        for name, (_, tree) in _package_imports().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "finfo")
        or (isinstance(node, ast.Name) and node.id == "finfo")
        or (isinstance(node, ast.alias) and node.name == "finfo")
    }
    assert readers == {"linalg"}


def _adjoint_of(node: ast.AST, adjoints: dict[str, str]) -> str | None:
    """The dump of ``m`` when ``node`` is ``m.conj().T``, ``m.T.conj()``,
    ``np.conj(m.T)`` or ``np.conjugate(m.T, ...)``, or a name bound to one
    of them, else None."""
    if isinstance(node, ast.Name):
        return adjoints.get(node.id)
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "T"
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "conj"
    ):
        return ast.dump(node.value.func.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("conj", "conjugate"):
        # The transpose is the function's first argument or the method's owner.
        transposed = node.args[0] if node.args else node.func.value
        if isinstance(transposed, ast.Attribute) and transposed.attr == "T":
            return ast.dump(transposed.value)
    return None


def test_only_linalg_takes_the_hermitian_part():
    # (m + m^H) / 2 is said once, in linalg.hermitian_part: no other module
    # adds a matrix to its own .conj().T, written out or through a name bound
    # to it, so the rule cannot be restated unseen.
    adders = set()
    for name, (_, tree) in _package_imports().items():
        adjoints = {}  # name -> dump of m, for each ``name = m.conj().T``
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and (base := _adjoint_of(node.value, {})):
                adjoints.update((t.id, base) for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                pairs = ((node.left, node.right), (node.right, node.left))
                if any(_adjoint_of(b, adjoints) == ast.dump(a) for a, b in pairs):
                    adders.add(name)
    assert adders == {"linalg"}


def test_private_names_are_imported_from_their_home():
    # A private name is imported from the module that defines it, not out of
    # another module's namespace that imported it in turn, so each private
    # helper has one home a reader can find.
    modules = _package_imports()
    defined = {}
    for name, (_, tree) in modules.items():
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        defined[name] = names
    borrowed = [
        f"hardycert.{name} imports {alias.name} from {node.module}"
        for name, (_, tree) in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in defined
        for alias in node.names
        if alias.name.startswith("_") and alias.name not in defined[node.module]
    ]
    assert not borrowed, f"private names imported from a module that does not define them: {borrowed}"


def test_only_the_seal_sets_a_frozen_field():
    # A frozen record's fields are stored by linalg._sealed and nowhere else,
    # and a record made without its constructor is made only to be sealed:
    # every object.__new__(...) is the first argument of a _sealed(...) call.
    # So no bypass builder can grow back unseen.
    offenders = []
    for name, (_, tree) in _package_imports().items():
        allowed = set()  # (node id, attribute) of the uses the seal accounts for
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (name, node.name) == ("linalg", "_sealed"):
                allowed.update((id(inner), "__setattr__") for inner in ast.walk(node))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_sealed"
                and node.args
                and isinstance(node.args[0], ast.Call)
            ):
                allowed.add((id(node.args[0].func), "__new__"))
        offenders += [
            f"hardycert.{name} line {node.lineno}: object.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("__new__", "__setattr__")
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
            and (id(node), node.attr) not in allowed
        ]
    assert not offenders, f"frozen records built around linalg._sealed: {offenders}"
