import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import differential

SRC = differential.ROOT / "src"


@pytest.fixture(scope="module")
def found():
    return differential.inputs(seed=5, count=8, size=300)


def _mutant(tmp_path, module: str, old: str, new: str):
    """A copy of the working tree's `src` with `old` replaced by `new` in `actool/<module>.py`."""
    mutant = tmp_path / module / "src"
    shutil.copytree(SRC, mutant, ignore=shutil.ignore_patterns("__pycache__"))
    path = mutant / "actool" / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    return mutant


def test_differential_finds_a_planted_mutant_and_nothing_else(tmp_path, capsys, found):
    # The working tree against itself, then against a copy whose line runs
    # count one line too many in each gap of blank and comment lines, a change
    # only spans show, and against one whose G6 (an orphan) is an error, not a
    # warning: a change only the rule engine's diagnostics show.
    assert differential.compare(SRC, SRC, found) == 0
    capsys.readouterr()
    gap = 'source.count("\\n", pos, end)'
    assert differential.compare(SRC, _mutant(tmp_path, "parser", gap, gap + " + 1"), found) >= 1
    assert capsys.readouterr().out.startswith("first differing input: mixed-")
    generated = [entry for entry in found if entry[0].startswith("gen-")]
    assert differential.compare(SRC, _mutant(tmp_path, "diagnostics", '"G6": _W', '"G6": _E'), generated) >= 1
    assert "warning G6" in capsys.readouterr().out


def test_differential_sees_the_inlined_edge_order(tmp_path, capsys, found):
    # Only an inlined case's `repr` shows the order of its edges: `print_case`
    # and `to_dot` sort them.
    bundles = [entry for entry in found if entry[0].endswith(".acb")]
    reversed_copy = _mutant(tmp_path, "link", "for edge in out.get(node, ()):",
                            "for edge in reversed(out.get(node, ())):")
    assert differential.compare(SRC, reversed_copy, bundles) >= 1
    assert "first differing input: valid-" in capsys.readouterr().out


def _interpreters() -> list:
    """Each `~/.pyenv/versions/*/bin/python3` that starts and reports Python
    3.10 or later, the supported versions, with its version as the id."""
    params = []
    for python in sorted(Path.home().glob(".pyenv/versions/*/bin/python3")):
        done = subprocess.run([str(python), "-c", "import sys; print('%d.%d.%d' % sys.version_info[:3])"],
                              capture_output=True, encoding="utf-8", timeout=60, check=False)
        version = done.stdout.strip()
        if done.returncode == 0 and tuple(map(int, version.split("."))) >= (3, 10):
            params.append(pytest.param(str(python), id=version))
    skip = pytest.mark.skip(reason="no Python 3.10 or later in ~/.pyenv/versions")
    return params or [pytest.param(None, id="none", marks=skip)]


@pytest.mark.parametrize("python", _interpreters())
def test_each_supported_interpreter_reads_the_inputs_alike(python, found):
    assert differential.compare(SRC, SRC, found, (sys.executable, python)) == 0
