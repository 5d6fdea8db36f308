"""README's library example runs and prints what its comments say, and its
command-line examples run."""

import ast
import math
import re
import shlex
from pathlib import Path

import pytest

from entdist.cli import OUTPUT_ENV_VAR, main

README = Path(__file__).resolve().parents[1] / "README.md"


def example_values():
    """Run the ``python`` block under "Library example"; the value of each
    top-level expression statement, in order."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    namespace: dict = {}
    values = []
    for statement in ast.parse(code).body:
        if isinstance(statement, ast.Expr):
            expression = ast.Expression(statement.value)
            values.append(eval(compile(expression, str(README), "eval"), namespace))
        else:
            exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
    return values


def test_library_example_values():
    kind, direct_eps, swap_eps, pts_min, coherent_info = example_values()
    assert kind == "Separable"
    assert direct_eps == pytest.approx(0.25, rel=1e-14)
    assert swap_eps == pytest.approx(1.0 / 3.0, rel=1e-14)
    # run_swap at mu = 1e6 converges to the asymptote (1e-3, as criterion 4 asks)
    assert pts_min == pytest.approx(1.0 / 3.0, rel=1e-3)
    assert coherent_info == pytest.approx(math.log(3.0) - 1.0, abs=1e-2)


def command_lines():
    """The ``entdist`` commands of the first ``sh`` block under "Command line",
    each split as a shell would split it."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)[1]
    return [shlex.split(line) for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_ENV_VAR, raising=False)
    commands = command_lines()
    assert [argv[:2] for argv in commands] == [["entdist", "point"], ["entdist", "point"],
                                               ["entdist", "scan"], ["entdist", "converge"]]
    for argv in commands:
        code = main(argv[1:])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), argv
        assert captured.out or argv[-2:] == ["-o", "fig.csv"], argv
    assert (tmp_path / "fig.csv").read_text(encoding="utf-8").startswith("g,gp,")
