"""The `cli-corpus` workload: the MRgFUS corpus through every subcommand.

Known answers come from `tests/golden/`, from the README's link and
exit-code facts, from `monolithic_mrgfus.acd` (the documented result of
inlining the bundle, ids unprefixed) and from a line reader of the corpus
files that shares no code with actool's parser.
"""

from __future__ import annotations

import re
from pathlib import Path

from gen import Case, Op, affected, impact_text

_ELEMENT = re.compile(r'^\s*(claim|strategy|context|assumption|justification|evidence) (\S+) "((?:[^"\\]|\\.)*)"(.*)$')
_EDGE = re.compile(r"^\s*(\S+) (supportedBy|inContextOf) (\S+)\s*$")
_HEADER = re.compile(r"^case (\S+) kind (\S+)")


def read_case(text: str) -> Case:
    """Corpus case file -> generator records; one statement per line."""
    case = None
    for line in text.splitlines():
        if header := _HEADER.match(line):
            case = Case(header.group(1), header.group(2))
        elif element := _ELEMENT.match(line):
            kind, eid, _, rest = element.groups()
            words = rest.split()
            flags = []
            while words:
                word = words.pop(0)
                flags.append(f"{word} {words.pop(0)}" if word in ("concern", "awayref") else word)
            case.add(eid, kind, element.group(3), *flags)
        elif edge := _EDGE.match(line):
            case.edge(edge.group(1), edge.group(2), edge.group(3))
    return case


def _without_comments(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.lstrip().startswith("//")]


def corpus_ops(root: Path, units_file: Path) -> list[Op]:
    corpus = root / "corpus"
    golden = root / "tests" / "golden"

    def read(path: Path) -> str:
        return path.read_text(encoding="utf-8")

    tac = read_case(read(corpus / "tac_mrgfus.acd"))
    cac = read_case(read(corpus / "cac_uterine_fibroids.acd"))
    mono = _without_comments(read(corpus / "monolithic_mrgfus.acd"))
    bundle_size = len(tac.elements) + len(cac.elements)
    changed = {("TAC-1", "C2")}
    inline_lines = sorted(line for line in mono[1:] if line.strip() and line != "}")
    bundle = "corpus/bundle_mrgfus.acb"
    no_output = {"exit": 0, "stdout": "", "stderr": ""}
    ops = [
        Op("validate", ["validate", "--json", bundle], bundle_size,
           {"exit": 0, "stdout": read(golden / "validate_bundle.json"), "stderr": ""}),
        Op("validate", ["validate", bundle], bundle_size, {**no_output, "env": {"AC_UNITS": str(units_file)}}),
    ]
    for rule in ("S1", "S2", "S3"):
        ops.append(Op("validate", ["validate", f"corpus/bad_{rule.lower()}.acb"], bundle_size,
                      {"exit": 1, "stdout": "", "stderr_rules": [rule]}))
    ops += [
        Op("link", ["link", bundle], bundle_size,
           {"exit": 0, "stdout": "CAC-UF.C4 -> TAC-1.C2\nCAC-UF.C5 -> TAC-1.C3\n", "stderr": ""}),
        Op("impact", ["impact", bundle, "--changed", "TAC-1.C2"], bundle_size,
           {"exit": 0, "stdout": impact_text(changed, affected([tac, cac], changed), [cac.case_id]), "stderr": ""}),
        Op("inline", ["inline", bundle, "--cac", "CAC-UF"], bundle_size,
           {"exit": 0, "inline_lines": inline_lines, "header": "case CAC-UF kind monolithic {", "stderr": ""}),
        Op("render", ["render", "corpus/tac_mrgfus.acd"], len(tac.elements),
           {"exit": 0, "stdout": read(golden / "tac_mrgfus.dot"), "stderr": ""}),
        Op("render", ["render", bundle], bundle_size,
           {"exit": 0, "stdout": read(golden / "bundle_mrgfus.dot"), "stderr": ""}),
        Op("metrics", ["metrics", "--json", bundle], bundle_size,
           {"exit": 0, "stdout": read(golden / "metrics_bundle.json"), "stderr": ""}),
        Op("fmt", ["fmt", "corpus/tac_mrgfus.acd"], len(tac.elements),
           {"exit": 0, "stdout": "\n".join(_without_comments(read(corpus / "tac_mrgfus.acd"))) + "\n", "stderr": ""}),
        Op("fmt", ["fmt", "--check", "corpus/cac_uterine_fibroids.acd"], len(cac.elements),
           {"exit": 1, "stdout": "", "stderr": "corpus/cac_uterine_fibroids.acd: not in canonical form\n"}),
    ]
    return ops
