"""The command-line tools under ``tools/``, loaded by path: they are scripts,
not modules of the package."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    """The tool ``tools/<name>.py`` as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_code_lines_counts_a_package(tmp_path, capsys):
    # Docstrings, comments and blank lines are not code; a bracketed
    # expression counts every line it spans.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        '"""Module docstring."""\n'
        "\n"
        "import os  # a comment on a code line\n"
        "\n"
        "# a comment line\n"
        "\n"
        "\n"
        "def f():\n"
        '    """A docstring\n'
        '    over two lines."""\n'
        "    return os.sep\n"
    )
    (package / "b.py").write_text("X = (\n    1,\n    2,\n)\n")
    tool = load_tool("count_code_lines")
    assert tool.main([str(package)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["3", str(package / "a.py")],
        ["4", str(package / "b.py")],
        ["7", "total"],
    ]


@pytest.mark.parametrize("target", ["a.py", "missing", "empty"])
def test_count_code_lines_refuses_a_path_that_is_no_package(target, tmp_path, capsys):
    # A file, a missing path and a directory without a .py file would each
    # read "0 total": the tool refuses them with its usage line instead.
    (tmp_path / "a.py").write_text("X = 1\n")
    (tmp_path / "empty").mkdir()
    tool = load_tool("count_code_lines")
    assert tool.main([str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: count_code_lines.py PACKAGE_DIR")


@pytest.mark.parametrize(
    "module, name", load_tool("tolerance_probe").TARGETS, ids=lambda part: part
)
def test_tolerance_probe_finds_and_scales_each_target(module, name):
    # The probe is run by hand, so a target renamed or moved out of reach
    # would otherwise go unseen until then.  Each target must name one float
    # literal in today's source, and scaling it must rewrite that literal's
    # text and nothing else.
    tool = load_tool("tolerance_probe")
    source = (TOOLS.parent / "src" / "hardycert" / f"{module}.py").read_text()
    node = tool._literal(source, name)
    edited, old = tool._scaled(source, name, "1e3")
    assert type(node.value) is float and float(old) == node.value
    lines, edited_lines = source.splitlines(keepends=True), edited.splitlines(keepends=True)
    row = node.lineno - 1
    assert edited_lines[:row] == lines[:row] and edited_lines[row + 1 :] == lines[row + 1 :]
    line = lines[row]
    assert line[node.col_offset : node.end_col_offset] == old
    assert edited_lines[row].startswith(line[: node.col_offset])
    assert edited_lines[row].endswith(line[node.end_col_offset :])
    assert tool._literal(edited, name).value == pytest.approx(node.value * 1e3, rel=1e-15)
