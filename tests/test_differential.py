import shutil

import differential


def test_differential_finds_a_planted_mutant_and_nothing_else(tmp_path, capsys):
    # The working tree against itself, then against a copy whose line runs
    # take a statement's line start from the first newline before it, not the last.
    found = differential.inputs(seed=5, count=8, size=300)
    src = differential.ROOT / "src"
    assert differential.compare(src, src, found) == 0
    mutant = tmp_path / "src"
    shutil.copytree(src, mutant, ignore=shutil.ignore_patterns("__pycache__"))
    parser = mutant / "actool" / "parser.py"
    text = parser.read_text(encoding="utf-8")
    planted = text.replace('lead.rfind("\\n")', 'lead.find("\\n")')
    assert planted != text
    parser.write_text(planted, encoding="utf-8")
    capsys.readouterr()
    assert differential.compare(src, mutant, found) >= 1
    assert capsys.readouterr().out.startswith("first differing input: mixed-")
