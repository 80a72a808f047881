import contextlib
import gc
import io
import json
import os
import random
import shlex
import stat
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actool import cli
from actool.cli import run
from actool.model import AssuranceCase, Bundle, CaseKind, Edge, EdgeKind, Element, ElementKind
from actool.parser import parse_case, print_case

import helpers
from conftest import CORPUS, GOLDEN


def corpus(name: str) -> str:
    return str(CORPUS / name)


def test_validate_corpus_bundle_clean(capsys):
    assert run(["validate", corpus("bundle_mrgfus.acb")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""


def test_validate_corpus_cases_clean(capsys):
    for name in ("tac_mrgfus.acd", "cac_uterine_fibroids.acd", "monolithic_mrgfus.acd"):
        assert run(["validate", corpus(name)]) == 0
    assert capsys.readouterr().err == ""


def test_validate_no_arguments_usage(capsys):
    assert run(["validate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_goes_to_stdout(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr() == (cli._PARSER.format_help(), "")
    assert run(["fmt", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: actool fmt [-h] [--check] file\n") and err == ""


def test_unknown_subcommand(capsys):
    assert run(["frobnicate", "x"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unreadable_file(capsys):
    assert run(["validate", corpus("does_not_exist.acd")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_validate_bad_s1(capsys):
    assert run(["validate", corpus("bad_s1.acb")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "S1" in err[0] and "error" in err[0]


def test_module_invocation_runs_the_cli():
    # `python -m actool.cli` must run the tool, not just import the module.
    done = subprocess.run(
        [sys.executable, "-m", "actool.cli", "validate", corpus("bad_s1.acb")],
        env=dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src")),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert done.returncode == 1
    err = done.stderr.strip().splitlines()
    assert len(err) == 1 and "error S1:" in err[0]


def test_cli_import_loads_no_dataclass_machinery():
    # `dataclasses` pulls in `inspect`, `ast` and `dis`: about 20 ms of every
    # CLI start. Only modules that importing actool.cli adds are checked.
    script = (
        "import json, sys; before = set(sys.modules); import actool.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src")),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    added = json.loads(done.stdout)
    assert "actool.cli" in added
    assert [name for name in ("dataclasses", "inspect") if name in added] == []


_LINKS = {"actool.link"}
_JSON = {"actool.render", "json"}
# The modules besides actool.cli, actool.parser, actool.model and
# actool.diagnostics that each command loads.
_LOADED = {
    "fmt tac_mrgfus.acd": set(),
    "validate tac_mrgfus.acd": {"actool.validate", "actool.units"},
    "validate bundle_mrgfus.acb": {"actool.validate", "actool.units", "actool.link"},
    "validate --json bundle_mrgfus.acb": {"actool.validate", "actool.units", "actool.link", *_JSON},
    "link bundle_mrgfus.acb": _LINKS,
    "inline bundle_mrgfus.acb --cac CAC-UF": _LINKS,
    "impact bundle_mrgfus.acb --changed TAC-1.C2": {*_LINKS, "actool.analyze"},
    "render tac_mrgfus.acd": {"actool.render"},
    "render bundle_mrgfus.acb": {"actool.render", "actool.link"},
    "metrics tac_mrgfus.acd": {"actool.analyze"},
    "metrics bundle_mrgfus.acb": {"actool.analyze"},
    "metrics --json bundle_mrgfus.acb": {"actool.analyze", *_JSON},
}


@pytest.mark.parametrize("command", _LOADED)
def test_each_subcommand_loads_only_the_modules_it_runs(command):
    # Each module a process imports costs its compile or unmarshal at every
    # start, so a command loads the parser and only the modules it runs.
    script = (
        "import contextlib, io, sys; from actool.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = run(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('actool.') or m == 'json'))"
    )
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src"))
    env.pop("AC_UNITS", None)
    argv = [corpus(a) if a.endswith((".acd", ".acb")) else a for a in command.split()]
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, encoding="utf-8", timeout=60
    )
    code, *modules = done.stdout.split()
    assert code == "0", done.stderr
    assert set(modules) == {"actool.cli", "actool.parser", "actool.model", "actool.diagnostics", *_LOADED[command]}


def _child(argv: list[str], stdout, unbuffered: bool = False) -> subprocess.CompletedProcess:
    """`actool ARGV` in a child process with block-buffered stdout, as a shell runs it, or unbuffered."""
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "actool.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env,
        encoding="utf-8", timeout=60,
    )


def _write_failures(tmp_path) -> list[list[str]]:
    """Short outputs, which fail only at the final flush (argparse's help
    text among them), and one larger than the stdout buffer, which fails in
    a write."""
    big = tmp_path / "big.acd"
    lines = ["case BIG kind monolithic {", '  claim R "root" root']
    lines += [f'  evidence E{i} "evidence number {i}"' for i in range(500)]
    lines += [f"  R supportedBy E{i}" for i in range(500)]
    big.write_text("\n".join(lines) + "\n}\n", encoding="utf-8")
    return [["link", corpus("bundle_mrgfus.acb")], ["fmt", corpus("tac_mrgfus.acd")], ["fmt", str(big)],
            ["--help"], ["validate", "--help"]]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2(tmp_path):
    for argv in _write_failures(tmp_path):
        with open("/dev/full", "w") as full:
            done = _child(argv, full)
        assert (done.returncode, done.stderr) == (
            2, "actool: cannot write standard output: [Errno 28] No space left on device\n"
        ), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_into_full_unbuffered_stdout_exits_2():
    # Unbuffered, the help text fails in argparse's own write, which drops the error.
    with open("/dev/full", "w") as full:
        done = _child(["--help"], full, unbuffered=True)
    assert (done.returncode, done.stderr) == (
        2, "actool: cannot write standard output: [Errno 28] No space left on device\n"
    )


def test_closed_stdout_pipe_exits_2(tmp_path):
    for argv in _write_failures(tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _child(argv, write_end)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, "actool: cannot write standard output: [Errno 32] Broken pipe\n"), argv


class _FailingStdout:
    """A stdout whose every write fails; `fileno` is a file the test owns."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text: str) -> int:
        raise OSError(28, "No space left on device")

    def flush(self) -> None:
        pass

    def fileno(self) -> int:
        return self.fd


class _FullStringIO(io.StringIO):
    """An in-memory stdout, with no descriptor, whose every write fails."""

    def write(self, text: str) -> int:
        raise OSError(28, "No space left on device")


def test_failed_write_to_a_stdout_without_a_descriptor_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStringIO())
    assert run(["fmt", corpus("tac_mrgfus.acd")]) == 2
    assert capsys.readouterr().err == "actool: cannot write standard output: [Errno 28] No space left on device\n"


def test_failed_writes_to_stdout_leave_no_descriptor_open(capsys, monkeypatch):
    def open_descriptors() -> int:
        return len(os.listdir("/dev/fd"))

    before = open_descriptors()
    for _ in range(5):
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = open(write_end, "w")
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            assert run(["fmt", corpus("tac_mrgfus.acd")]) == 2
        with pytest.raises(BrokenPipeError):  # the output `run` could not write is still the caller's
            stdout.close()
    assert open_descriptors() == before
    assert capsys.readouterr().err.count("actool: cannot write standard output: [Errno 32] Broken pipe\n") == 5


def test_a_failed_write_leaves_the_callers_stdout_descriptor_alone(capsys, monkeypatch):
    # Only `main`, whose process is about to exit, sends stdout to os.devnull.
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = open(write_end, "w", closefd=False)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            assert run(["fmt", corpus("tac_mrgfus.acd")]) == 2
        assert stat.S_ISFIFO(os.fstat(write_end).st_mode)
    finally:
        with contextlib.suppress(BrokenPipeError):
            stdout.close()
        os.close(write_end)
    assert capsys.readouterr().err == "actool: cannot write standard output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_run_pauses_the_collector_and_restores_the_callers_setting(enabled, tmp_path, capsys, monkeypatch):
    real_parse_case = cli.parse_case
    seen = []

    def parse_case_recording_the_collector(*args):
        seen.append(gc.isenabled())
        return real_parse_case(*args)

    monkeypatch.setattr(cli, "parse_case", parse_case_recording_the_collector)
    bundle = corpus("bundle_mrgfus.acb")
    runs = [
        (["validate", corpus("tac_mrgfus.acd")], 0),
        (["validate", corpus("bad_s1.acb")], 1),  # diagnostics
        (["validate", "--bogus"], 2),  # usage error
        (["--help"], 0),
        (["impact", bundle, "--changed", "TAC-1.GHOST"], 2),  # UnknownElementError
        (["impact", bundle, "--changed", "GHOST"], 2),  # a _Failure
    ]
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, code in runs:
            assert run(argv) == code, argv
            assert gc.isenabled() is enabled, argv
        with open(tmp_path / "stdout", "w") as sink:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", _FailingStdout(sink.fileno()))
                assert run(["fmt", corpus("tac_mrgfus.acd")]) == 2
            assert gc.isenabled() is enabled
        with monkeypatch.context() as patch:
            patch.setattr(cli, "parse_case", mock.Mock(side_effect=RuntimeError("escapes run")))
            with pytest.raises(RuntimeError):
                run(["fmt", corpus("tac_mrgfus.acd")])
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert "cannot write standard output: [Errno 28]" in capsys.readouterr().err
    assert seen and not any(seen)  # parse_case ran with the collector paused


_GARBLED = """case G kind technological {
  claim C1 "root" root
  claim C1 "again"
  evidence E1 "e" root
  C1 supportedBy GHOST
  @@@ claim "x
}
"""


def _cyclic_garbage(argv: list[str]) -> tuple[int, set[str]]:
    """The number of objects that one `run(argv)` leaves as cyclic garbage, and their types' modules."""
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(argv)
        gc.collect()
        return len(gc.garbage), {type(value).__module__ for value in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()  # the cleared objects still form cycles; free them before the next run


def _assert_garbage_is_not_actools_and_does_not_grow(runs: list[list[str]]) -> None:
    counts, modules = [], set()
    for argv in runs:
        count, names = _cyclic_garbage(argv)
        counts.append(count)
        modules |= names
    assert len(set(counts)) == 1, counts
    assert [name for name in modules if name.split(".")[0] == "actool"] == []


def test_a_run_leaves_cyclic_garbage_that_does_not_grow_with_its_input(tmp_path, capsys):
    # `run` pauses the collector, which is safe only while actool's own values
    # form no reference cycles: a command's cyclic garbage is argparse's alone.
    case = helpers.gen_case(random.Random(5), max_elements=800)
    assert len(case.elements) > 500
    (tmp_path / "big.acd").write_text(print_case(case), encoding="utf-8")
    (tmp_path / "garbled.acd").write_text(_GARBLED, encoding="utf-8")
    paths = (tmp_path / "big.acd", CORPUS / "tac_mrgfus.acd", tmp_path / "garbled.acd")
    _assert_garbage_is_not_actools_and_does_not_grow([["validate", str(path)] for path in paths])
    assert {"P0:", "P1:", "P2:", "P3:"} <= {line.split()[2] for line in capsys.readouterr().err.splitlines()}


def _linked_bundle() -> Bundle:
    """The first generated valid bundle whose clinical cases refer to the technological case."""
    rng = random.Random(7)
    while True:
        bundle = helpers.gen_valid_bundle(rng)
        if any(e.away_ref for cac in bundle.cacs for e in cac.elements):
            return bundle


def _write_padded_bundle(directory: Path, bundle: Bundle, padding: int) -> Path:
    """Write `bundle` with `padding` more evidence under each public claim of
    its technological case, which every bundle command then reads or copies."""
    tac = bundle.tac
    elements, edges = list(tac.elements), list(tac.edges)
    for claim in [e for e in tac.elements if e.is_public]:
        for index in range(padding):
            evidence = Element(f"{claim.id}_PAD{index}", ElementKind.EVIDENCE, f"padding {index}")
            elements.append(evidence)
            edges.append(Edge(claim.id, evidence.id, EdgeKind.SUPPORTED_BY))
    directory.mkdir()
    (directory / "tac.acd").write_text(print_case(tac._replace(elements=tuple(elements), edges=tuple(edges))),
                                       encoding="utf-8")
    lines = ['  tac "tac.acd"']
    for index, cac in enumerate(bundle.cacs):
        (directory / f"cac{index}.acd").write_text(print_case(cac), encoding="utf-8")
        lines.append(f'  cac "cac{index}.acd"')
    manifest = directory / "bundle.acb"
    manifest.write_text("bundle B {\n" + "\n".join(lines) + "\n}\n", encoding="utf-8")
    return manifest


@pytest.mark.parametrize("command", ["validate", "inline", "impact", "link", "render"])
def test_a_bundle_command_leaves_cyclic_garbage_that_does_not_grow_with_its_input(command, tmp_path, capsys):
    # The bundle commands run parse_bundle, link, analyze and render code under the paused collector too.
    bundle = _linked_bundle()
    cac, target = next((cac, e.away_ref) for cac in bundle.cacs for e in cac.elements if e.away_ref)
    options = {
        "validate": ["--json"],
        "inline": ["--cac", cac.id],
        "impact": ["--changed", ".".join(target)],
        "link": [],
        "render": ["--highlight", ".".join(target)],
    }[command]
    manifests = [_write_padded_bundle(tmp_path / f"pad{padding}", bundle, padding) for padding in (0, 2, 200)]
    for manifest in manifests:  # each run is a clean one, so the counts compare like with like
        assert run([command, str(manifest), *options]) == 0, capsys.readouterr().err
    if command in ("inline", "render"):  # the largest bundle's padding reaches the output
        assert f"{target[1]}_PAD199" in capsys.readouterr().out
    _assert_garbage_is_not_actools_and_does_not_grow([[command, str(manifest), *options] for manifest in manifests])


def test_validate_bad_s2(capsys):
    assert run(["validate", corpus("bad_s2.acb")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert [line for line in err if "error" in line and "S2" in line] == err


def test_validate_bad_s3(capsys):
    assert run(["validate", corpus("bad_s3.acb")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "S3" in err[0] and "'C4'" in err[0]


def test_validate_syntax_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.acd"
    bad.write_text("case X kind monolithic {\n  claim C1\n}\n", encoding="utf-8")
    assert run(["validate", str(bad)]) == 1
    assert "P0" in capsys.readouterr().err


def test_validate_json_report(capsys):
    assert run(["validate", "--json", corpus("bundle_mrgfus.acb")]) == 0
    out = capsys.readouterr().out
    document = json.loads(out)
    assert document["diagnostics"] == []
    assert len(document["capabilities"]) == 4


def test_validate_strict_promotes_warnings(tmp_path, capsys):
    orphan = tmp_path / "orphan.acd"
    orphan.write_text(
        'case X kind monolithic {\n  claim C1 "c" root undeveloped\n  context X1 "x"\n}\n',
        encoding="utf-8",
    )
    assert run(["validate", str(orphan)]) == 0
    assert "G6" in capsys.readouterr().err
    assert run(["validate", "--strict", str(orphan)]) == 1


def test_link_table(capsys):
    assert run(["link", corpus("bundle_mrgfus.acb")]) == 0
    assert capsys.readouterr().out == "CAC-UF.C4 -> TAC-1.C2\nCAC-UF.C5 -> TAC-1.C3\n"


def test_link_fails_on_s1(capsys):
    assert run(["link", corpus("bad_s1.acb")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "S1" in captured.err


def test_impact_output(capsys):
    assert run(["impact", corpus("bundle_mrgfus.acb"), "--changed", "TAC-1.C2"]) == 0
    assert capsys.readouterr().out == (
        "changed: TAC-1.C2\n"
        "affected:\n"
        "  CAC-UF: C1, C4, S\n"
        "  TAC-1: C1, C2, S\n"
        "affected cacs: CAC-UF\n"
    )


@pytest.mark.parametrize("spec", ["", " , "])
def test_impact_of_no_change_reports_none(spec, capsys):
    assert run(["impact", corpus("bundle_mrgfus.acb"), "--changed", spec]) == 0
    assert capsys.readouterr() == ("changed: (none)\naffected:\n  (none)\naffected cacs: (none)\n", "")


def test_impact_unknown_id(capsys):
    assert run(["impact", corpus("bundle_mrgfus.acb"), "--changed", "TAC-1.GHOST"]) == 2
    assert capsys.readouterr() == ("", "actool: unknown element id 'GHOST' in case 'TAC-1'\n")
    for spec in ("C2", ".C2", "TAC-1.", "TAC-1.C2,C4"):
        assert run(["impact", corpus("bundle_mrgfus.acb"), "--changed", spec]) == 2
        assert capsys.readouterr().err == f"actool: expected CASE.ID, got {spec.split(',')[-1]!r}\n"


def test_inline_writes_file(tmp_path, capsys):
    out = tmp_path / "inlined.acd"
    assert run(["inline", corpus("bundle_mrgfus.acb"), "--cac", "CAC-UF", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert text.startswith("case CAC-UF kind monolithic {")
    assert run(["validate", str(out)]) == 0


def test_inline_unknown_cac(capsys):
    assert run(["inline", corpus("bundle_mrgfus.acb"), "--cac", "NOPE"]) == 2
    assert capsys.readouterr() == ("", "actool: unknown clinical case id 'NOPE' in bundle\n")


def test_render_case_and_bundle(tmp_path, capsys):
    assert run(["render", corpus("tac_mrgfus.acd")]) == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "TAC-1" {')
    dot_file = tmp_path / "bundle.dot"
    assert run(["render", corpus("bundle_mrgfus.acb"), "-o", str(dot_file)]) == 0
    assert "cluster_TAC-1" in dot_file.read_text(encoding="utf-8")


def test_render_highlight(capsys):
    assert run(["render", corpus("tac_mrgfus.acd"), "--highlight", "C2"]) == 0
    assert "fillcolor=lightgray" in capsys.readouterr().out
    assert run(["render", corpus("bundle_mrgfus.acb"), "--highlight", "TAC-1.C2,CAC-UF.C4"]) == 0
    assert capsys.readouterr().out.count("fillcolor=lightgray") == 2


def test_render_highlight_unknown_id(capsys, tmp_path):
    assert run(["render", corpus("tac_mrgfus.acd"), "--highlight", "GHOST"]) == 2
    assert capsys.readouterr() == ("", "actool: unknown element id 'GHOST' in case 'TAC-1'\n")
    out = tmp_path / "never.dot"
    # The first unknown pair in command-line order is the one reported.
    assert run(["render", corpus("bundle_mrgfus.acb"), "--highlight", "TAC-1.C2,NOPE.C4,GONE.C1", "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", "actool: unknown case id 'NOPE'\n")
    assert not out.exists()


def test_metrics_table_and_json(capsys):
    assert run(["metrics", corpus("bundle_mrgfus.acb")]) == 0
    out = capsys.readouterr().out
    assert "cross links: 2" in out
    assert out.splitlines()[0].startswith("CASE")
    assert run(["metrics", "--json", corpus("tac_mrgfus.acd")]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["metrics"]["caseId"] == "TAC-1"
    assert document["metrics"]["depth"] == 5


def test_fmt_outputs_canonical_form(tmp_path, capsys):
    messy = tmp_path / "messy.acd"
    messy.write_text(
        'case X kind monolithic { claim B "b"; claim A "a" root; A supportedBy B; B undeveloped }',
        encoding="utf-8",
    )
    # 'B undeveloped' is an edge statement with a bad keyword -> P0, exit 1
    assert run(["fmt", str(messy)]) == 1
    capsys.readouterr()
    messy.write_text(
        'case X kind monolithic { claim B "b" undeveloped; claim A "a" root; A supportedBy B }',
        encoding="utf-8",
    )
    assert run(["fmt", str(messy)]) == 0
    formatted = capsys.readouterr().out
    assert formatted.index('claim A "a" root') < formatted.index('claim B "b" undeveloped')
    canonical = tmp_path / "canonical.acd"
    canonical.write_text(formatted, encoding="utf-8")
    assert run(["fmt", "--check", str(canonical)]) == 0
    assert run(["fmt", "--check", str(messy)]) == 1
    assert "not in canonical form" in capsys.readouterr().err


def test_fmt_sees_carriage_returns(tmp_path, capsys):
    # Files are read without newline translation, as `parse_case` sees them.
    canonical = print_case(parse_case((CORPUS / "tac_mrgfus.acd").read_text(encoding="utf-8"), "tac").case)
    lf, crlf = tmp_path / "lf.acd", tmp_path / "crlf.acd"
    lf.write_bytes(canonical.encode("utf-8"))
    crlf.write_bytes(canonical.replace("\n", "\r\n").encode("utf-8"))
    assert run(["fmt", "--check", str(lf)]) == 0
    assert run(["fmt", "--check", str(crlf)]) == 1
    assert "not in canonical form" in capsys.readouterr().err
    lone = tmp_path / "lone.acd"
    lone.write_bytes(b'case X kind monolithic { claim C "a\rb" root }\n')
    assert run(["fmt", str(lone)]) == 0
    assert 'claim C "a\rb" root' in capsys.readouterr().out


def test_fmt_and_validate_keep_bounds_past_the_default_exponent_range(tmp_path):
    # 1,000,001 integer digits, and a 1 at the 1,000,001st fractional place:
    # both beyond the default decimal context's Emax and Emin.
    huge, tiny = "1" + "0" * 1_000_000, "0." + "0" * 1_000_000 + "1"
    text = (
        'case X kind technological {\n  claim C "c" root undeveloped\n\n'
        f"  provides capability big unit W range [{huge}, 0]\n"
        f"  provides capability small unit W range [0, {tiny}]\n}}\n"
    )
    path = tmp_path / "wide.acd"
    path.write_text(text, encoding="utf-8")
    done = _child(["fmt", str(path)], subprocess.PIPE)
    assert (done.returncode, done.stderr, done.stdout == text) == (0, "", True)
    done = _child(["validate", str(path)], subprocess.PIPE)
    assert done.returncode == 1 and "Traceback" not in done.stderr
    assert f"error U2: capability 'big' has an empty range [{huge}, 0]" in done.stderr


def test_bundle_member_keeps_carriage_returns(tmp_path, capsys):
    (tmp_path / "tac.acd").write_bytes((CORPUS / "tac_mrgfus.acd").read_bytes())
    cac = (CORPUS / "cac_uterine_fibroids.acd").read_bytes()
    assert cac.count(b"Clinical safety:") == 1
    (tmp_path / "cac.acd").write_bytes(cac.replace(b"Clinical safety:", b"Clinical\rsafety:"))
    manifest = tmp_path / "b.acb"
    manifest.write_text('bundle B {\n  tac "tac.acd"\n  cac "cac.acd"\n}\n', encoding="utf-8")
    assert run(["inline", str(manifest), "--cac", "CAC-UF"]) == 0
    assert "Clinical\rsafety:" in capsys.readouterr().out


def test_metrics_table_for_one_case(capsys):
    assert run(["metrics", corpus("tac_mrgfus.acd")]) == 0
    assert capsys.readouterr() == (
        "CASE   KIND           ELEMS  CLAIM  STRAT  CTX  ASSUM  JUST  EVID  SUP  INCTX  DEPTH  UNDEV  COVER  SAFE  EFFECT\n"
        "TAC-1  technological  15     7      1      3    0      0     4     11   3      5      0      1.00   1     1\n",
        "",
    )


def _member_bundle(tmp_path, tac: str, cac: str) -> str:
    """A manifest in `tmp_path` over the given technological and clinical case texts."""
    (tmp_path / "tac.acd").write_text(tac, encoding="utf-8")
    (tmp_path / "cac.acd").write_text(cac, encoding="utf-8")
    manifest = tmp_path / "b.acb"
    manifest.write_text('bundle B {\n  tac "tac.acd"\n  cac "cac.acd"\n}\n', encoding="utf-8")
    return str(manifest)


def test_clinical_member_without_associates_fails_p7_and_s6(tmp_path, capsys):
    cac = (CORPUS / "cac_uterine_fibroids.acd").read_text(encoding="utf-8")
    assert cac.count("  associates TAC-1\n") == 1
    manifest = _member_bundle(
        tmp_path, (CORPUS / "tac_mrgfus.acd").read_text(encoding="utf-8"), cac.replace("  associates TAC-1\n", "")
    )
    assert run(["validate", manifest]) == 1
    assert capsys.readouterr() == (
        "",
        "cac.acd:5:6: error P7: clinical case 'CAC-UF' must declare 'associates'\n"
        "cac.acd:5:6: error S6: clinical case 'CAC-UF' declares no associated technological case\n",
    )


def test_render_draws_a_tac_self_reference_and_reports_the_link_rules(tmp_path, capsys):
    tac = (CORPUS / "tac_mrgfus.acd").read_text(encoding="utf-8")
    assert tac.count("  claim C3 ") == 1
    tac = tac.replace("  claim C3 ", '  claim C9 "refers to its own case" undeveloped awayref TAC-1.C2\n  claim C3 ')
    manifest = _member_bundle(tmp_path, tac, (CORPUS / "cac_uterine_fibroids.acd").read_text(encoding="utf-8"))
    assert run(["link", manifest]) == 0
    link_err = capsys.readouterr().err
    assert "warning S8: claim 'C9' references case 'TAC-1'" in link_err
    assert run(["render", manifest]) == 0
    out, err = capsys.readouterr()
    assert err == link_err
    dashed = [line.strip() for line in out.splitlines() if "[style=dashed]" in line]
    assert dashed == [
        '"CAC-UF.C4" -> "TAC-1.C2" [style=dashed];',
        '"CAC-UF.C5" -> "TAC-1.C3" [style=dashed];',
        '"TAC-1.C9" -> "TAC-1.C2" [style=dashed];',
    ]


@pytest.mark.parametrize("name", ["bundle_mrgfus.acb", "bad_s1.acb", "bad_s2.acb", "bad_s3.acb"])
def test_render_reports_what_link_reports(name, capsys):
    # render runs the link rules on the bundle it draws, so both print the same findings
    link_code = run(["link", corpus(name)])
    link_err = capsys.readouterr().err
    render_code = run(["render", corpus(name)])
    assert (render_code, capsys.readouterr().err) == (link_code, link_err)


def test_inline_skips_copy_names_the_clinical_case_uses(tmp_path, capsys):
    (tmp_path / "tac.acd").write_bytes((CORPUS / "tac_mrgfus.acd").read_bytes())
    cac = (CORPUS / "cac_uterine_fibroids.acd").read_text(encoding="utf-8")
    cac = cac.replace("  associates TAC-1\n", '  associates TAC-1\n  context TAC-1__C2 "x"\n')
    (tmp_path / "cac.acd").write_text(cac, encoding="utf-8")
    manifest = tmp_path / "b.acb"
    manifest.write_text('bundle B {\n  tac "tac.acd"\n  cac "cac.acd"\n}\n', encoding="utf-8")
    assert run(["inline", str(manifest), "--cac", "CAC-UF"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = captured.out
    assert 'context TAC-1__C2 "x"' in out
    assert "C4 supportedBy TAC-1__2__C2" in out
    assert "TAC-1__2__C2 supportedBy TAC-1__C2-1" in out
    assert parse_case(out, "inlined.acd").diagnostics == []


def test_ac_units_extends_table(tmp_path, capsys, monkeypatch):
    case = tmp_path / "u.acd"
    case.write_text(
        "case T kind technological {\n"
        '  claim C1 "c" root public undeveloped\n'
        "  provides capability pulse unit us range [0, 500]\n"
        "}\n",
        encoding="utf-8",
    )
    assert run(["validate", str(case)]) == 1
    assert "U1" in capsys.readouterr().err
    units = tmp_path / "extra.units"
    units.write_text("us Time 0.000001\n", encoding="utf-8")
    monkeypatch.setenv("AC_UNITS", str(units))
    assert run(["validate", str(case)]) == 0
    units.write_text("us NotADimension 0.000001\n", encoding="utf-8")
    assert run(["validate", str(case)]) == 2
    assert capsys.readouterr().err == "actool: dimension NotADimension has no base unit\n"
    units.write_text("us Time NaN\n", encoding="utf-8")
    assert run(["validate", str(case)]) == 2
    assert capsys.readouterr().err == f"actool: {units}:1: scale must be finite\n"


def _acoustic_power_bundle(tmp_path, monkeypatch, provided: str, required: str, units_text: str) -> str:
    """The corpus bundle in `tmp_path` with the acoustic power ranges `provided` and `required`
    (`unit U range [L, H]`) and `AC_UNITS` naming a file of `units_text`; the manifest's path."""
    (tmp_path / "bundle_mrgfus.acb").write_bytes((CORPUS / "bundle_mrgfus.acb").read_bytes())
    edits = [("tac_mrgfus.acd", "unit W range [0, 300]", provided),
             ("cac_uterine_fibroids.acd", "unit W range [50, 200]", required)]
    for name, old, new in edits:
        text = (CORPUS / name).read_text(encoding="utf-8")
        assert text.count(f"acoustic_power {old}") == 1
        (tmp_path / name).write_text(text.replace(f"acoustic_power {old}", f"acoustic_power {new}"), encoding="utf-8")
    units = tmp_path / "x.units"
    units.write_text(units_text, encoding="utf-8")
    monkeypatch.setenv("AC_UNITS", str(units))
    return str(tmp_path / "bundle_mrgfus.acb")


def _assert_acoustic_power_verdict(manifest: str, capsys, status: str) -> None:
    """`validate` with and without `--json` judges the acoustic power requirement `status`,
    with one S4 on stderr when it is not satisfied, and every other requirement satisfied."""
    for json_flag in ([], ["--json"]):
        assert run(["validate", *json_flag, manifest]) == (0 if status == "satisfied" else 1)
        captured = capsys.readouterr()
        if status == "satisfied":
            assert captured.err == ""
        else:
            assert captured.err.count("\n") == 1 and " error S4: " in captured.err
            assert "required capability 'acoustic_power' " in captured.err
        if json_flag:
            verdicts = {entry["name"]: entry["status"] for entry in json.loads(captured.out)["capabilities"]}
            assert verdicts.pop("acoustic_power") == status
            assert set(verdicts.values()) == {"satisfied"}
        else:
            assert captured.out == ""


def test_capability_bound_past_the_largest_decimal_exponent_gets_a_verdict(tmp_path, capsys, monkeypatch):
    # 50 xW is 5E+1000000000000000000 W, past decimal's largest exponent, and far above 300 W.
    manifest = _acoustic_power_bundle(tmp_path, monkeypatch, "unit W range [0, 300]", "unit xW range [50, 200]",
                                      "xW Power 1E+999999999999999999\n")
    _assert_acoustic_power_verdict(manifest, capsys, "rangeNotCovered")


def test_capability_bound_below_the_smallest_decimal_exponent_gets_a_verdict(tmp_path, capsys, monkeypatch):
    # 1E-10 xW is 1E-1000000000000000009 W: not 0 W, so a provided [0, 0] W does not cover it.
    manifest = _acoustic_power_bundle(tmp_path, monkeypatch, "unit W range [0, 0]",
                                      "unit xW range [0.0000000001, 0.0000000001]", "xW Power 1E-999999999999999999\n")
    _assert_acoustic_power_verdict(manifest, capsys, "rangeNotCovered")


def test_capability_bound_below_the_smallest_decimal_exponent_is_covered(tmp_path, capsys, monkeypatch):
    # 0.01 xW is 1E-1000000000000000001 W, inside [0, 300] W.
    manifest = _acoustic_power_bundle(tmp_path, monkeypatch, "unit W range [0, 300]", "unit xW range [0.01, 0.01]",
                                      "xW Power 1E-999999999999999999\n")
    _assert_acoustic_power_verdict(manifest, capsys, "satisfied")


def test_ac_units_adds_a_dimension(tmp_path, capsys, monkeypatch):
    # Absorbed dose is no built-in dimension: a `.units` file adds it by naming its base unit. The TAC provides
    # acoustic_power in Gy and the CAC requires it in cGy; each verdict is the one exact fractions give.
    dose = "Gy Dose 1\ncGy Dose 0.01\n"
    rng = random.Random(22)
    ranges = [(Decimal("1.5"), Decimal(2), Decimal(150), Decimal(200))]
    for _ in range(6):
        low, high = sorted(Decimal(rng.randint(1, 500)) / 100 for _ in range(2))
        required = sorted(bound * 100 + rng.choice((-1, 0, 0, 1)) * Decimal("0.001") for bound in (low, high))
        ranges.append((low, high, *required))
    verdicts = set()
    for index, (low, high, required_low, required_high) in enumerate(ranges):
        root = tmp_path / str(index)
        root.mkdir()
        manifest = _acoustic_power_bundle(root, monkeypatch, f"unit Gy range [{low}, {high}]",
                                          f"unit cGy range [{required_low}, {required_high}]", dose)
        covered = Fraction(low) <= Fraction(required_low) / 100 and Fraction(required_high) / 100 <= Fraction(high)
        verdicts.add(status := "satisfied" if covered else "rangeNotCovered")
        _assert_acoustic_power_verdict(manifest, capsys, status)
    assert verdicts == {"satisfied", "rangeNotCovered"}
    # Units of two dimensions never match: a cGy requirement against the corpus's W provider.
    manifest = _acoustic_power_bundle(tmp_path, monkeypatch, "unit W range [0, 300]", "unit cGy range [50, 200]", dose)
    _assert_acoustic_power_verdict(manifest, capsys, "unitMismatch")


def test_repeat_runs_byte_identical(capsys):
    commands = [
        ["validate", "--json", corpus("bundle_mrgfus.acb")],
        ["link", corpus("bundle_mrgfus.acb")],
        ["impact", corpus("bundle_mrgfus.acb"), "--changed", "TAC-1.C2"],
        ["inline", corpus("bundle_mrgfus.acb"), "--cac", "CAC-UF"],
        ["render", corpus("bundle_mrgfus.acb")],
        ["metrics", "--json", corpus("bundle_mrgfus.acb")],
        ["fmt", corpus("tac_mrgfus.acd")],
    ]
    for argv in commands:
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second, argv


def test_non_utf8_input_exits_2(tmp_path, capsys, monkeypatch):
    latin1 = 'case X kind monolithic {\n  claim C1 "caf\xe9" root undeveloped\n}\n'.encode("latin-1")
    for name in ("bad.acd", "bad.acb"):
        path = tmp_path / name
        path.write_bytes(latin1)
        assert run(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"actool: cannot read {str(path)!r}: 'utf-8' codec")
    units = tmp_path / "latin1.units"
    units.write_bytes("us Time 0.000001 # \xb5s\n".encode("latin-1"))
    monkeypatch.setenv("AC_UNITS", str(units))
    assert run(["validate", corpus("tac_mrgfus.acd")]) == 2
    assert capsys.readouterr().err.startswith(f"actool: cannot read {str(units)!r}: 'utf-8' codec")


def test_non_utf8_bundle_member_is_p6(tmp_path, capsys):
    for name in ("bundle_mrgfus.acb", "tac_mrgfus.acd"):
        (tmp_path / name).write_bytes((CORPUS / name).read_bytes())
    cac = (CORPUS / "cac_uterine_fibroids.acd").read_text(encoding="utf-8") + "// caf\xe9\n"
    (tmp_path / "cac_uterine_fibroids.acd").write_bytes(cac.encode("latin-1"))
    assert run(["validate", str(tmp_path / "bundle_mrgfus.acb")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert " error P6: cannot read case file 'cac_uterine_fibroids.acd': 'utf-8' codec" in err[0]


BUNDLE_COMMANDS = (
    ["validate"],
    ["validate", "--json"],
    ["link"],
    ["impact", "--changed", "T.C1"],
    ["inline", "--cac", "C"],
    ["render"],
    ["metrics"],
)


def test_nul_in_member_path_is_p6(tmp_path, capsys):
    manifest = tmp_path / "b.acb"
    manifest.write_text('bundle B {\n tac "t\0.acd"\n cac "c.acd"\n}\n', encoding="utf-8")
    for argv in BUNDLE_COMMANDS:
        assert run([*argv, str(manifest)]) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert f"{manifest}:2:6: error P6: cannot read case file 't\\x00.acd': embedded null byte" in err, argv


def _manifest(entries: list[tuple[str, str]]) -> bytes:
    lines = [f'  {slot} "' + path.replace("\\", "\\\\").replace('"', '\\"') + '"' for slot, path in entries]
    return ("bundle B {\n" + "\n".join(lines) + "\n}\n").encode("utf-8")


MEMBER_TEXT = st.one_of(
    st.binary(max_size=120),
    st.sampled_from(
        [
            'case T kind technological {\n  claim C1 "t" root public undeveloped\n}\n',
            'case C kind clinical {\n  associates T\n  claim C1 "c" root undeveloped awayref T.C1\n}\n',
        ]
    ).map(str.encode),
)
# Any text, with NUL, path separators, backslashes and quotes drawn often.
PATH_TEXT = st.text(st.one_of(st.sampled_from('\0./\\"'), st.characters()), max_size=8)
MEMBER_PATH = st.one_of(st.sampled_from(["t.acd", "c.acd"]), PATH_TEXT.filter(lambda p: not p.startswith("/")))


@settings(max_examples=60, deadline=None)
@given(
    case=st.binary(max_size=200),
    manifest=st.one_of(
        st.binary(max_size=120),
        st.lists(st.tuples(st.sampled_from(["tac", "cac"]), MEMBER_PATH), max_size=3).map(_manifest),
    ),
    tac=MEMBER_TEXT,
    cac=MEMBER_TEXT,
    units=st.one_of(st.none(), st.binary(max_size=40)),
)
def test_cli_exit_codes_on_arbitrary_files(case, manifest, tac, cac, units):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        for name, data in (("x.acd", case), ("b.acb", manifest), ("t.acd", tac), ("c.acd", cac), ("u.units", units)):
            if data is not None:
                (root / name).write_bytes(data)
        environment = {"AC_UNITS": "" if units is None else str(root / "u.units")}
        with mock.patch.dict(os.environ, environment), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in BUNDLE_COMMANDS:
                assert run([*argv, str(root / "b.acb")]) in (0, 1, 2), argv
            for argv in (["validate"], ["render"], ["metrics", "--json"], ["fmt"], ["fmt", "--check"]):
                assert run([*argv, str(root / "x.acd")]) in (0, 1, 2), argv


def test_output_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    for argv in (["render", corpus("tac_mrgfus.acd")], ["inline", corpus("bundle_mrgfus.acb"), "--cac", "CAC-UF"]):
        assert run([*argv, "-o", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"actool: cannot write {str(target)!r}: ")


GOLDEN_COMMANDS = {
    "tac_mrgfus.dot": ["render", corpus("tac_mrgfus.acd")],
    "bundle_mrgfus.dot": ["render", corpus("bundle_mrgfus.acb")],
    "validate_bundle.json": ["validate", "--json", corpus("bundle_mrgfus.acb")],
    "metrics_bundle.json": ["metrics", "--json", corpus("bundle_mrgfus.acb")],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs(name, capsys):
    argv = GOLDEN_COMMANDS[name]
    assert run(argv) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert out == expected


def test_render_unresolvable_bundle_falls_back(capsys):
    assert run(["render", corpus("bad_s1.acb")]) == 1
    captured = capsys.readouterr()
    assert "S1" in captured.err
    assert captured.out.startswith("digraph bundle {")
    # best-effort dashed edge for the offending reference
    assert '"TAC-1.C9" -> "CAC-UF.C6" [style=dashed];' in captured.out


def cli_transcript(commands: list[list[str]]) -> str:
    """`$ actool ARGS`, the exit code, stdout and stderr of each command, run
    in-process from the current directory."""
    parts = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        parts.append(
            f"$ actool {shlex.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        )
    return "".join(parts)


def _corpus_transcript() -> tuple[str, list[list[str]]]:
    """The golden transcript and its commands: the `$ actool` lines of the transcript itself."""
    expected = (GOLDEN / "cli_corpus.txt").read_text(encoding="utf-8")
    commands = [shlex.split(line[len("$ actool "):]) for line in expected.splitlines() if line.startswith("$ actool ")]
    return expected, commands


def test_cli_corpus_transcript(monkeypatch):
    # Paths in the transcript are relative to the repository root.
    monkeypatch.chdir(CORPUS.parent)
    expected, commands = _corpus_transcript()
    assert len(commands) == 20
    assert cli_transcript(commands) == expected


def test_no_command_depends_on_the_recursion_limit(tmp_path, monkeypatch):
    # Every corpus transcript command, and validate, metrics, fmt --check and render on a 20,000-deep chain, run
    # with 80 frames of headroom: no walk of a case recurses per element or per edge.
    monkeypatch.chdir(CORPUS.parent)
    expected, commands = _corpus_transcript()
    ids = [f"C{i}" for i in range(20000)]
    elements = [Element(node, ElementKind.CLAIM, "c", is_root=node == "C0") for node in ids]
    elements.append(Element("E", ElementKind.EVIDENCE, "e"))
    edges = [Edge(a, b, EdgeKind.SUPPORTED_BY) for a, b in zip(ids, [*ids[1:], "E"])]
    chain = tmp_path / "chain.acd"
    chain.write_text(print_case(AssuranceCase("CHAIN", CaseKind.MONOLITHIC, elements, edges)), encoding="utf-8")
    depth, frame, codes = 0, sys._getframe(), []
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 80)
    try:
        transcript = cli_transcript(commands)
        for argv in (["validate"], ["metrics"], ["fmt", "--check"], ["render"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(run([*argv, str(chain)]))
    finally:
        sys.setrecursionlimit(limit)
    assert transcript == expected
    assert codes == [0, 0, 0, 0]


def test_dispatch_by_subcommand_and_suffix(tmp_path, capsys):
    # link, impact and inline always read a manifest, whatever the suffix
    tac = corpus("tac_mrgfus.acd")
    for argv in (["link"], ["impact", "--changed", "TAC-1.C1"], ["inline", "--cac", "CAC-UF"]):
        assert run([*argv, tac]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"{tac}:5:1: error P0: expected 'bundle'\n", argv
    # validate, render and metrics read a manifest only from an `.acb` file
    manifest = tmp_path / "manifest.acd"
    manifest.write_bytes((CORPUS / "bundle_mrgfus.acb").read_bytes())
    for argv in (["validate"], ["render"], ["metrics"]):
        assert run([*argv, str(manifest)]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"{manifest}:2:1: error P0: expected 'case'\n", argv


def test_only_validate_reads_ac_units(tmp_path, monkeypatch):
    units = tmp_path / "broken.units"
    units.write_text("us NotADimension 0.000001\n", encoding="utf-8")
    bundle = corpus("bundle_mrgfus.acb")
    commands = [
        ["link", bundle],
        ["impact", bundle, "--changed", "TAC-1.C2"],
        ["inline", bundle, "--cac", "CAC-UF"],
        ["render", bundle],
        ["render", corpus("tac_mrgfus.acd"), "--highlight", "C2"],
        ["metrics", bundle],
        ["metrics", "--json", corpus("cac_uterine_fibroids.acd")],
        ["fmt", corpus("tac_mrgfus.acd")],
    ]
    monkeypatch.delenv("AC_UNITS", raising=False)
    unset = cli_transcript(commands)
    monkeypatch.setenv("AC_UNITS", str(units))
    assert cli_transcript(commands) == unset
    assert cli_transcript([["validate", bundle]]).startswith(f"$ actool validate {shlex.quote(bundle)}\nexit 2\n")
