"""A structure-aware fuzzer of the command line: mutated corpus and
`helpers.gen_valid_bundle` bundles, with capabilities whose bounds may run to
40 or more digits, and `.units` files drawn from their grammar with exponents
at the edges of `decimal`'s range, go through every subcommand and flag in
process. Each run must exit 0, 1 or 2 without an exception, write only
diagnostic lines, `actool: ` lines and `fmt --check`'s verdict to stderr, and give the same bytes when
it is run again. The seed is fixed, so a failure reproduces."""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
from decimal import MAX_EMAX, MIN_ETINY
from pathlib import Path
from unittest import mock

from actool.cli import run
from actool.parser import print_case

import helpers
from conftest import CORPUS

SEED = 20261020
INPUTS = 80
# A diagnostic, a failure, or `fmt --check`'s verdict on its file
STDERR_LINE = re.compile(r"(.*:\d+:\d+: (error|warning) [A-Z]\d+: .*|actool: .*|.*\.acd: not in canonical form)\Z", re.S)
UNITS = ("W", "kW", "xW", "yW", "zs")
CAPABILITIES = ("acoustic_power", "focal_depth", "p")
TOKENS = ("claim", "evidence", "strategy", "context", "supportedBy", "inContextOf", "provides", "requires",
          "capability", "unit", "range", "associates", "root", "public", "undeveloped", "module", "concern safety",
          "awayref TAC-1.C2", "awayref TAC.G1", "tac", "cac", "bundle", "{", "}", "[", "]", ",", ";", ".", "-", "\n",
          "// c", '"s"', '"', "G1", "C2", "E1")


def _number(rng: random.Random) -> str:
    """A DSL number: small, or of 40 to 80 digits, maybe negative, maybe with a fraction."""
    whole = str(rng.randint(0, 999)) if rng.random() < 0.5 else str(rng.randint(10 ** 39, 10 ** 80))
    fraction = "." + str(rng.randint(0, 10 ** rng.randint(1, 45))) if rng.random() < 0.4 else ""
    return ("-" if rng.random() < 0.2 else "") + whole + fraction


def _with_capabilities(rng: random.Random, text: str, direction: str) -> str:
    """`text` with a capability of `direction` for some of three names, and for each name a second one at times."""
    names = rng.sample(CAPABILITIES, rng.randint(1, 3)) if direction == "requires" else CAPABILITIES
    lines = [f"  {direction} capability {name} unit {rng.choice(UNITS)} range [{_number(rng)}, {_number(rng)}]\n"
             for name in names for _ in range(rng.choice((1, 1, 2)))]
    end = text.rindex("}")
    return text[:end] + "".join(lines) + text[end:]


def _seed_files(rng: random.Random) -> tuple[dict[str, str], str, str]:
    """The member files of a bundle by name, a `--changed` spec and a clinical case id."""
    if rng.random() < 0.4:
        tac = (CORPUS / "tac_mrgfus.acd").read_text(encoding="utf-8")
        cac = (CORPUS / "cac_uterine_fibroids.acd").read_text(encoding="utf-8")
        files = {"t.acd": tac.replace("unit W ", f"unit {rng.choice(UNITS)} "),
                 "c0.acd": cac.replace("unit W ", f"unit {rng.choice(UNITS)} ")}
        return files, "TAC-1.C2,TAC-1.E1", "CAC-UF"
    bundle = helpers.gen_valid_bundle(rng, max_elements=20)
    files = {"t.acd": _with_capabilities(rng, print_case(bundle.tac), "provides")}
    for index, cac in enumerate(bundle.cacs):
        files[f"c{index}.acd"] = _with_capabilities(rng, print_case(cac), "requires")
    changed = ",".join(f"TAC.{element.id}" for element in bundle.tac.elements[:2])
    return files, changed, bundle.cacs[0].id


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        at = rng.randint(0, len(text))
        end = min(len(text), at + rng.randint(1, 40))
        operation = rng.randrange(4)
        if operation == 0:
            text = text[:at] + rng.choice((" ", "")) + rng.choice(TOKENS) + " " + text[at:]
        elif operation == 1:
            text = text[:at] + text[end:]
        elif operation == 2:
            text = text[:at] + text[at:end] + text[at:]
        else:
            text = text[:at] + " " + _number(rng) + " " + text[at:]
    return text


def _units_file(rng: random.Random) -> str:
    """A line for each of xW, yW (Power) and zs (Time), whose scales' exponents lie near ±MAX_EMAX or
    MIN_ETINY, and at times a line that breaks the file."""
    lines = []
    for symbol, dimension in (("xW", "Power"), ("yW", "Power"), ("zs", "Time")):
        exponent = rng.choice((MAX_EMAX, -MAX_EMAX, MIN_ETINY)) + rng.randint(-3, 3)
        lines.append(f"{symbol} {dimension} {rng.choice((rng.randint(1, 999), 1))}E{exponent:+d}")
    if rng.random() < 0.2:
        lines.insert(rng.randint(0, 3), rng.choice(("W Power 2", "xW Sound 1", "q Power 0", "q Time -1", "q Time NaN")))
    return "".join(line + rng.choice(("\n", " # c\n")) for line in lines)


def _argvs(root: Path, changed: str, cac: str) -> list[list[str]]:
    bundle, case, out = str(root / "b.acb"), str(root / "t.acd"), str(root / "out.txt")
    return [
        ["validate", bundle], ["validate", "--json", bundle], ["validate", "--strict", bundle],
        ["validate", "--json", "--strict", case], ["validate", case],
        ["link", bundle],
        ["impact", bundle, "--changed", changed], ["impact", bundle, "--changed", "TAC.NOPE"],
        ["inline", bundle, "--cac", cac], ["inline", bundle, "--cac", cac, "-o", out],
        ["render", bundle], ["render", bundle, "--highlight", changed], ["render", case, "-o", out],
        ["metrics", bundle], ["metrics", "--json", bundle], ["metrics", case],
        ["fmt", case], ["fmt", "--check", case],
    ]


def _outcome(argv: list[str], out: Path) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and the `-o` file's bytes of one in-process run."""
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


def test_cli_contract_on_mutated_bundles_and_units_files(tmp_path):
    rng = random.Random(SEED)
    codes = set()
    for index in range(INPUTS):
        root = tmp_path / str(index)
        root.mkdir()
        files, changed, cac = _seed_files(rng)
        members = "".join(f'  {"tac" if name == "t.acd" else "cac"} "{name}"\n' for name in files)
        files["b.acb"] = f"bundle B {{\n{members}}}\n"
        if rng.random() < 0.8:
            name = rng.choice(sorted(files))
            files[name] = _mutate(rng, files[name])
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        environment = {"AC_UNITS": ""}
        if rng.random() < 0.8:
            (root / "u.units").write_text(_units_file(rng), encoding="utf-8")
            environment["AC_UNITS"] = str(root / "u.units")
        with mock.patch.dict(os.environ, environment):
            for argv in _argvs(root, changed, cac):
                first = _outcome(argv, root / "out.txt")
                code, _, stderr, _ = first
                assert code in (0, 1, 2), argv
                for line in stderr.splitlines():
                    assert STDERR_LINE.match(line), (argv, line)
                assert _outcome(argv, root / "out.txt") == first, argv
                codes.add(code)
    assert codes == {0, 1, 2}  # the inputs reach every outcome
