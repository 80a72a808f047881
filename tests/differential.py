"""Compare what two source trees of actool make of one seeded input set.

    python tests/differential.py --against REF [--seed N] [--count K] [--python PATH]

REF is a commit of this repository; its `src/` is extracted with `git archive`
into a temporary directory, and the working tree's `src/` is compared with it.
The inputs are `helpers.mixed_case_text` texts, the `print_case` texts of
`helpers.gen_case` cases and of `helpers.gen_valid_bundle` members with their
manifest, the case and manifest files of `perfbench/gen.py`'s case-tree,
case-chain and bundle-wide shapes at the benchmark's size, six variants of
each case-tree case file (its edge lines first, ` // c` at the end of every
line, every statement joined by `;` on the header's line, every 7th edge
line and every 11th node line indented by a tab, every line ended by CRLF,
and a space at the end of every line), and the corpus.
Each tree reads every input in its own child process, run by PATH (default:
this interpreter), the working tree's with `PYTHONHASHSEED=1` and REF's with
`PYTHONHASHSEED=0`, so that no output may hang on the order of a set of
strings. Each child reports one SHA-256 per input of `repr(parse_case(...))`
or `repr(parse_bundle(...))`, `print_case` of each case parsed, the
`Diagnostic.line()`s of `validate_case` on each case and, for a bundle, of
`validate_bundle` and `resolve_links`, and the `report_json` of those
diagnostics and the bundle's capability matches. The digest also covers
`to_dot` of each case, plain and with every 5th element highlighted, the
`report_json` of `case_metrics` of each case, `to_dot` of a bundle, plain
and with every 5th element of each member highlighted, the `report_json` of
`bundle_metrics` of a bundle and, for a bundle that resolves, the
`report_json` of `impact` on every 7th technological element in declaration
order and the `repr` and `print_case` of `inline_bundle` for each clinical
case. Last come, for each case parsed and for a bundle, the `repr` of its
`pickle` and `copy.copy` twins and whether each twin equals the original.
One more input comes last of all, the command line's: the `$ actool` lines
of `tests/golden/cli_corpus.txt`, then commands on two small `perfbench/gen.py`
inputs, a 300-element case-tree file and a 256-element bundle-wide manifest:
`validate`, `validate --json`, `metrics`, `metrics --json` and `render` of
each, `fmt --check` of the tree, the technological case and one clinical
case, and the bundle's `link`, `impact` on three technological elements and
`inline` of each clinical case. For it each child writes the corpus and those
files into a temporary directory of its own and runs every command through
`actool.cli.run` in process, from inside it with relative paths, so that
diagnostics name the same files on both sides; it digests each command's
exit code, stdout and stderr.
On a mismatch the first differing input and both outputs around
their first difference are printed. Exit status: 0 when every digest
matches, 1 otherwise.

The file name keeps pytest from collecting it; `test_differential.py` runs
`compare` on pairs of trees without git, and on one tree under two
interpreters, so that the command line, too, runs under each of them.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import pickle
import random
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_INPUT = "cli_corpus.txt"  # the name of the input that runs the transcript's commands


def inputs(seed: int, count: int, size: int = 4000) -> list[tuple[str, str, dict[str, str]]]:
    """(name, the file to parse, the files a manifest may load) for each input;
    a name ending in `.acb` is parsed as a bundle manifest."""
    sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT / "perfbench")) if path not in sys.path]
    import gen
    import helpers

    from actool.parser import print_case

    rng = random.Random(seed)
    found = [(f"mixed-{number}.acd", helpers.mixed_case_text(random.Random(rng.getrandbits(64))), {})
             for number in range(count)]
    found += [(f"gen-{number}.acd", print_case(helpers.gen_case(rng)), {}) for number in range(count)]
    for number in range(count // 2):
        bundle = helpers.gen_valid_bundle(rng)
        files = {f"{case.id}.acd": print_case(case) for case in bundle.cases()}
        manifest = "".join(f'  {"tac" if case is bundle.tac else "cac"} "{case.id}.acd"\n' for case in bundle.cases())
        found.append((f"valid-{number}.acb", f"bundle B{number} {{\n{manifest}}}\n", files))
    shapes = [gen.case_tree(seed, size).files, gen.case_chain(seed, size // 2).files, gen.bundle_wide(seed, size).files]
    shapes.append({path.name: path.read_text(encoding="utf-8") for path in sorted((ROOT / "corpus").iterdir())})
    for files in shapes:
        found += [(name, text, files if name.endswith(".acb") else {}) for name, text in files.items()]
    found += [variant for name, text in shapes[0].items() if name.endswith(".acd") for variant in _variants(name, text)]
    transcript = (ROOT / "tests" / "golden" / CLI_INPUT).read_text(encoding="utf-8")
    commands = [line.removeprefix("$ actool ") for line in transcript.splitlines() if line.startswith("$ actool ")]
    tree, wide = gen.case_tree(seed, 300), gen.bundle_wide(seed, 256)
    commands += [f"{command} {path}" for path in ("tree.acd", "bundle.acb")
                 for command in ("validate", "validate --json", "metrics", "metrics --json", "render")]
    commands += ["fmt --check tree.acd", "fmt --check tac.acd", "fmt --check cac_1.acd", "link bundle.acb"]
    commands += [shlex.join(op.argv) for op in wide.ops if op.name in ("impact", "inline")]
    files = {**{f"corpus/{name}": text for name, text in shapes[3].items()}, **tree.files, **wide.files}
    found.append((CLI_INPUT, "".join(f"$ actool {command}\n" for command in commands), files))
    return found


def _variants(name: str, text: str) -> list[tuple[str, str, dict[str, str]]]:
    """A case file of one-line statements read six other ways: with its edges
    waiting for their targets, by the token path, with no line break, with
    its runs of `print_case`'s edge lines broken by tab-indented lines, with
    CRLF line endings, and with a trailing blank on every line."""
    header, _, rest = text.partition("\n")
    body, _, end = rest.rpartition("}")
    lines = [line.strip() for line in body.split("\n") if line.strip()]
    nodes_last = sorted(lines, key=lambda line: '"' in line or not (" supportedBy " in line or " inContextOf " in line))
    edges_first = [header, *(f"  {line}" for line in nodes_last), "}" + end]
    tabbed, seen = [], {"edge": 0, "node": 0}
    for line in text.split("\n"):
        what = "node" if '"' in line else "edge" if " supportedBy " in line or " inContextOf " in line else None
        if what is not None:
            seen[what] += 1
            if seen[what] % (7 if what == "edge" else 11) == 0:
                line = "\t" + line.lstrip(" ")
        tabbed.append(line)
    stem = name.removesuffix(".acd")
    return [(f"{stem}-edges-first.acd", "\n".join(edges_first), {}),
            (f"{stem}-commented.acd", "".join(f"{line} // c\n" for line in text.splitlines()), {}),
            (f"{stem}-one-line.acd", f"{header} {'; '.join(lines)} }}{end}", {}),
            (f"{stem}-tabbed.acd", "\n".join(tabbed), {}),
            (f"{stem}-crlf.acd", text.replace("\n", "\r\n"), {}),
            (f"{stem}-trailing-blank.acd", text.replace("\n", " \n"), {})]


def cli_transcript(commands: list[list[str]], directory: str | Path = ROOT) -> str:
    """`$ actool ARGS`, the exit code, stdout and stderr of each command, as `tests/golden/cli_corpus.txt` holds
    them: each run through `actool.cli.run` in process, from `directory`; by default the repository root, where
    the transcript's paths start."""
    from actool.cli import run

    parts = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            parts.append(f"$ actool {shlex.join(argv)}\nexit {code}\n"
                         f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    finally:
        os.chdir(cwd)
    return "".join(parts)


def _output(name: str, text: str, files: dict[str, str]) -> str:
    """What the tree on `sys.path` makes of one input."""
    if name == CLI_INPUT:  # the files in a directory of this child's own, so diagnostics name the same paths
        with tempfile.TemporaryDirectory() as directory:
            for path, content in files.items():
                target = Path(directory, path)
                target.parent.mkdir(exist_ok=True)
                target.write_bytes(content.encode("utf-8"))
            return cli_transcript([shlex.split(line.removeprefix("$ actool ")) for line in text.splitlines()],
                                  directory)
    from actool.analyze import bundle_metrics, case_metrics, impact
    from actool.link import inline_bundle, resolve_links
    from actool.parser import parse_bundle, parse_case, print_case
    from actool.render import report_json, to_dot
    from actool.validate import bundle_match_results, validate_bundle, validate_case

    bundle, capabilities = None, None
    if name.endswith(".acb"):
        result = parse_bundle(text, files.__getitem__, name)
        bundle = result[0]
        cases = () if bundle is None else bundle.cases()
    else:
        result = parse_case(text, name)
        cases = () if result.case is None else (result.case,)
    diagnostics = [diagnostic for case in cases for diagnostic in validate_case(case)]
    marked = [(case.id, element.id) for case in cases for element in case.elements[::5]]
    drawn = [part for case in cases
             for part in (to_dot(case), to_dot(case, [pair for pair in marked if pair[0] == case.id]),
                          report_json(metrics=case_metrics(case)))]
    if bundle is not None:
        resolved, link_diagnostics = resolve_links(bundle)
        diagnostics += [*validate_bundle(bundle), *link_diagnostics]
        capabilities = bundle_match_results(bundle)
        drawn += [to_dot(bundle), to_dot(bundle, marked), report_json(metrics=bundle_metrics(bundle))]
        if resolved is not None:
            changed = [(bundle.tac.id, element.id) for element in bundle.tac.elements[::7]]
            drawn.append(report_json(impact=impact(resolved, changed)))
            for cac in bundle.cacs:
                inlined = inline_bundle(resolved, cac.id)
                drawn += [repr(inlined), print_case(inlined)]
    report = report_json(diagnostics=diagnostics, capabilities=capabilities)
    values = cases if bundle is None else (*cases, bundle)
    twins = [f"{twin!r} {twin == value}" for value in values
             for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value))]
    return "\n".join([repr(result), *map(print_case, cases), *(d.line() for d in diagnostics), report, *drawn, *twins])


def _child(path: str, show: int | None) -> None:
    with open(path, encoding="utf-8") as handle:
        found = json.load(handle)
    if show is not None:
        sys.stdout.write(_output(*found[show]))
        return
    for entry in found:
        print(hashlib.sha256(_output(*entry).encode()).hexdigest())


def _run(src: Path, path: str, python: str, hash_seed: str, show: int | None = None) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed, PYTHONIOENCODING="utf-8",
               PYTHONDONTWRITEBYTECODE="1")
    argv = [python, __file__, "--child", path] + ([] if show is None else ["--show", str(show)])
    done = subprocess.run(argv, env=env, capture_output=True, encoding="utf-8", check=False)
    if done.returncode:
        raise RuntimeError(f"{python} on {src} failed:\n{done.stderr}")
    return done.stdout


def compare(left: Path, right: Path, found: list[tuple[str, str, dict[str, str]]],
            pythons: tuple[str, str] = (sys.executable, sys.executable)) -> int:
    """The number of inputs whose digests differ between the `src` trees
    `left` and `right`, run by the interpreters `pythons` in the same order
    and under the hash seeds 1 and 0; the first of them is printed."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "inputs.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(found, handle)
        sides = list(zip((left, right), pythons, ("1", "0")))
        digests = [_run(src, path, python, hash_seed).split() for src, python, hash_seed in sides]
        differing = [number for number, (a, b) in enumerate(zip(*digests)) if a != b]
        if differing:
            first = differing[0]
            name, text, _ = found[first]
            print(f"first differing input: {name} (input {first})\n{text[:2000]}")
            a, b = (_run(src, path, python, hash_seed, first) for src, python, hash_seed in sides)
            at = next((at for at, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            print(f"the outputs first differ at character {at}:")
            for (src, python, hash_seed), output in zip(sides, (a, b)):
                print(f"{src} under {python}, hash seed {hash_seed}: ...{output[max(at - 300, 0):at + 300]}...")
    return len(differing)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF", help="the commit whose src/ the working tree is compared with")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200, help="how many mixed case texts")
    parser.add_argument("--python", default=sys.executable, help="the interpreter that runs both trees")
    parser.add_argument("--child", metavar="INPUTS", help=argparse.SUPPRESS)
    parser.add_argument("--show", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.child, args.show)
        return 0
    if not args.against:
        parser.error("--against REF is required")
    archive = subprocess.run(["git", "archive", "--format=tar", args.against, "src"], cwd=ROOT, capture_output=True,
                             check=True).stdout
    found = inputs(args.seed, args.count)
    with tempfile.TemporaryDirectory() as other:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(other, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        mismatches = compare(ROOT / "src", Path(other) / "src", found, (args.python, args.python))
    print(f"{mismatches} mismatches in {len(found)} inputs: working tree vs {args.against}, {args.python}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
