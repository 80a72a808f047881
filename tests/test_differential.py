import shutil

import differential


def _mutant(tmp_path, module: str, old: str, new: str):
    """A copy of the working tree's `src` with `old` replaced by `new` in `actool/<module>.py`."""
    mutant = tmp_path / module / "src"
    shutil.copytree(differential.ROOT / "src", mutant, ignore=shutil.ignore_patterns("__pycache__"))
    path = mutant / "actool" / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    return mutant


def test_differential_finds_a_planted_mutant_and_nothing_else(tmp_path, capsys):
    # The working tree against itself, then against a copy whose line runs
    # take a statement's line start from the first newline before it, not the
    # last, and against one whose G6 (an orphan) is an error, not a warning:
    # a change only the rule engine's diagnostics show.
    found = differential.inputs(seed=5, count=8, size=300)
    src = differential.ROOT / "src"
    assert differential.compare(src, src, found) == 0
    capsys.readouterr()
    assert differential.compare(src, _mutant(tmp_path, "parser", 'lead.rfind("\\n")', 'lead.find("\\n")'), found) >= 1
    assert capsys.readouterr().out.startswith("first differing input: mixed-")
    generated = [entry for entry in found if entry[0].startswith("gen-")]
    assert differential.compare(src, _mutant(tmp_path, "diagnostics", '"G6": _W', '"G6": _E'), generated) >= 1
    assert "warning G6" in capsys.readouterr().out
