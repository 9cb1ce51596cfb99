"""The package's public names: every ``__all__`` entry resolves, and the
top-level surface and that of ``hardycert.io`` are pinned."""

import importlib
import pkgutil

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
