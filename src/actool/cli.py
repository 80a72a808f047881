"""Command-line interface.

Diagnostics go to stderr in the one-line `<file>:<line>:<col>: <severity>
<RULEID>: <message>` format; artifacts (DSL, DOT, JSON, tables) go to stdout
so the tool composes in pipelines. Exit codes: 0 no errors, 1 validation
errors, 2 usage or I/O or configuration failure. `link`, `impact` and
`inline` always read a bundle manifest; `validate`, `render` and `metrics`
read one from an `.acb` file and a case file from anything else.

Set AC_UNITS to a `.units` file to extend the built-in unit table. Only
`validate` reads it, so a broken table fails `validate` alone.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

# Every command needs these; each imports the rest it calls, so it loads only the modules it runs.
from .diagnostics import Diagnostic, Severity, has_errors, sorted_diagnostics
from .model import AssuranceCase, Bundle, UnknownElementError
from .parser import parse_bundle, parse_case, print_case

if TYPE_CHECKING:
    from .analyze import CaseMetrics
    from .link import ResolvedBundle
    from .units import UnitTable


class _Failure(Exception):
    """Infrastructure failure: message to stderr, exit 2."""


def _read_text(path: str) -> str:
    """The file's text exactly as stored: no newline translation, so the
    CLI sees the same characters as `parse_case` on the file's bytes."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(f"cannot read {path!r}: {exc}") from exc


def _load_units() -> UnitTable:
    from .units import BUILTIN_UNITS, UnitError, parse_units_file
    units_path = os.environ.get("AC_UNITS")
    if not units_path:
        return BUILTIN_UNITS
    text = _read_text(units_path)
    try:
        return BUILTIN_UNITS.extended(parse_units_file(text, units_path))
    except UnitError as exc:
        raise _Failure(str(exc)) from exc


def _load(path: str, manifest: bool) -> tuple[AssuranceCase | Bundle | None, list[Diagnostic]]:
    """Parse `path` as a bundle manifest (members read relative to it) or
    as a case file."""
    text = _read_text(path)
    if not manifest:
        return parse_case(text, path)
    base = Path(path).parent
    return parse_bundle(text, lambda name: (base / name).read_bytes().decode("utf-8"), path)


def _linked(path: str) -> tuple[ResolvedBundle | None, list[Diagnostic]]:
    """Parse the manifest at `path` and resolve its links: the resolved
    bundle, or None when the manifest does not parse or S1, S2 or S5 fail."""
    from .link import resolve_links
    bundle, diagnostics = _load(path, manifest=True)
    if bundle is None:
        return None, diagnostics
    resolved, link_diagnostics = resolve_links(bundle)
    return resolved, sorted_diagnostics([*diagnostics, *link_diagnostics])


def _emit(diagnostics: Sequence[Diagnostic]) -> None:
    """Print already sorted diagnostics to stderr."""
    for diagnostic in diagnostics:
        print(diagnostic.line(), file=sys.stderr)


def _exit_code(diagnostics: Sequence[Diagnostic], strict: bool = False) -> int:
    if has_errors(diagnostics):
        return 1
    if strict and any(d.severity is Severity.WARNING for d in diagnostics):
        return 1
    return 0


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _Failure(f"cannot write {out!r}: {exc}") from exc


def _parse_pairs(spec: str, default_case: str | None = None) -> list[tuple[str, str]]:
    pairs = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        case_id, dot, element_id = item.partition(".")
        if not dot:
            case_id, element_id = default_case, item
        if not case_id or not element_id:  # no default case, or an empty half
            raise _Failure(f"expected CASE.ID, got {item!r}")
        pairs.append((case_id, element_id))
    return pairs


def _cmd_validate(args: argparse.Namespace) -> int:
    from .units import UnitError
    from .validate import _bundle_findings, validate_case
    units = _load_units()
    subject, diagnostics = _load(args.file, args.file.endswith(".acb"))
    capabilities = None
    if isinstance(subject, Bundle):
        for case in subject.cases():
            diagnostics.extend(validate_case(case, units))
        try:
            bundle_diagnostics, capabilities = _bundle_findings(subject, units)
        except UnitError as exc:  # a capability bound that overflows in its base unit
            raise _Failure(str(exc)) from exc
        diagnostics.extend(bundle_diagnostics)
    elif subject is not None:
        diagnostics.extend(validate_case(subject, units))
    diagnostics = sorted_diagnostics(diagnostics)
    _emit(diagnostics)
    if args.json:
        from .render import report_json
        sys.stdout.write(report_json(diagnostics=diagnostics, capabilities=capabilities))
    return _exit_code(diagnostics, args.strict)


def _cmd_link(args: argparse.Namespace) -> int:
    resolved, diagnostics = _linked(args.file)
    _emit(diagnostics)
    if resolved is None:
        return 1
    for source, target in sorted(resolved.resolutions.items()):
        print(f"{source[0]}.{source[1]} -> {target[0]}.{target[1]}")
    return _exit_code(diagnostics)


def _cmd_impact(args: argparse.Namespace) -> int:
    from .analyze import impact
    resolved, diagnostics = _linked(args.file)
    _emit(diagnostics)
    if resolved is None:
        return 1
    report = impact(resolved, _parse_pairs(args.changed))
    print("changed: " + (", ".join(f"{c}.{e}" for c, e in sorted(report.changed)) or "(none)"))
    print("affected:")
    printed = False
    for case_id in sorted(report.affected):
        ids = report.affected[case_id]
        if ids:
            print(f"  {case_id}: " + ", ".join(sorted(ids)))
            printed = True
    if not printed:
        print("  (none)")
    print("affected cacs: " + (", ".join(sorted(report.affected_cacs)) or "(none)"))
    return _exit_code(diagnostics)


def _cmd_inline(args: argparse.Namespace) -> int:
    from .link import inline_bundle
    resolved, diagnostics = _linked(args.file)
    _emit(diagnostics)
    if resolved is None:
        return 1
    _write_output(print_case(inline_bundle(resolved, args.cac)), args.output)
    return _exit_code(diagnostics)


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import to_dot
    subject, diagnostics = _load(args.file, args.file.endswith(".acb"))
    if isinstance(subject, Bundle):
        from .validate import link_rule_diagnostics
        diagnostics = sorted_diagnostics([*diagnostics, *link_rule_diagnostics(subject)])
    _emit(diagnostics)
    if subject is None:
        return 1
    default_case = subject.id if isinstance(subject, AssuranceCase) else None
    highlight = _parse_pairs(args.highlight or "", default_case)
    _write_output(to_dot(subject, highlight), args.output)
    return _exit_code(diagnostics)


_TABLE_COLUMNS = (
    ("CASE", lambda m: m.case_id),
    ("KIND", lambda m: m.kind.value),
    ("ELEMS", lambda m: str(m.element_total)),
    ("CLAIM", lambda m: str(m.element_counts["claim"])),
    ("STRAT", lambda m: str(m.element_counts["strategy"])),
    ("CTX", lambda m: str(m.element_counts["context"])),
    ("ASSUM", lambda m: str(m.element_counts["assumption"])),
    ("JUST", lambda m: str(m.element_counts["justification"])),
    ("EVID", lambda m: str(m.element_counts["evidence"])),
    ("SUP", lambda m: str(m.edge_counts["supportedBy"])),
    ("INCTX", lambda m: str(m.edge_counts["inContextOf"])),
    ("DEPTH", lambda m: str(m.depth)),
    ("UNDEV", lambda m: str(m.undeveloped_count)),
    ("COVER", lambda m: f"{m.evidence_coverage:.2f}"),
    ("SAFE", lambda m: str(m.concern_counts["safety"])),
    ("EFFECT", lambda m: str(m.concern_counts["effectiveness"])),
)


def _metrics_table(rows: list[CaseMetrics]) -> str:
    cells = [[header for header, _ in _TABLE_COLUMNS]]
    for row in rows:
        cells.append([extract(row) for _, extract in _TABLE_COLUMNS])
    widths = [max(len(line[i]) for line in cells) for i in range(len(_TABLE_COLUMNS))]
    lines = ["  ".join(value.ljust(width) for value, width in zip(line, widths)).rstrip() for line in cells]
    return "\n".join(lines) + "\n"


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .analyze import bundle_metrics, case_metrics
    subject, diagnostics = _load(args.file, args.file.endswith(".acb"))
    _emit(diagnostics)
    if subject is None:
        return 1
    result = bundle_metrics(subject) if isinstance(subject, Bundle) else case_metrics(subject)
    if args.json:
        from .render import report_json
        sys.stdout.write(report_json(metrics=result))
    elif isinstance(subject, Bundle):
        sys.stdout.write(_metrics_table(list(result.cases)))
        sys.stdout.write(f"cross links: {result.cross_link_count}\n")
    else:
        sys.stdout.write(_metrics_table([result]))
    return _exit_code(diagnostics)


def _cmd_fmt(args: argparse.Namespace) -> int:
    source = _read_text(args.file)
    case, diagnostics = parse_case(source, args.file)
    _emit(diagnostics)
    if case is None:
        return 1
    canonical = print_case(case)
    if args.check:
        if source != canonical:
            print(f"{args.file}: not in canonical form", file=sys.stderr)
            return 1
        return _exit_code(diagnostics)
    sys.stdout.write(canonical)
    return _exit_code(diagnostics)


# The one argparse tree, built at import: `parse_args` keeps no state on it, and building it leaves reference
# cycles that a run, which pauses the collector, would otherwise leave behind every time.
_PARSER = argparse.ArgumentParser(
    prog="actool",
    description="Validate, link, and analyze assurance cases written in the .acd DSL.",
)
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)


def _command(name: str, func: Callable[[argparse.Namespace], int], help: str) -> argparse.ArgumentParser:
    """Add the subcommand `name` to `_PARSER`: it reads a `file` argument and runs `func`."""
    command = _COMMANDS.add_parser(name, help=help)
    command.add_argument("file")
    command.set_defaults(func=func)
    return command


_validate = _command("validate", _cmd_validate, "parse a case or bundle and run the rule catalog")
_validate.add_argument("--json", action="store_true", help="write a JSON report to stdout")
_validate.add_argument("--strict", action="store_true", help="treat warnings as errors")
_command("link", _cmd_link, "resolve away references and print the resolution table")
_impact = _command("impact", _cmd_impact, "report elements affected by changing the given elements")
_impact.add_argument("--changed", required=True, metavar="CASE.ID[,CASE.ID...]")
_inline = _command("inline", _cmd_inline, "inline one clinical case into a monolithic case")
_inline.add_argument("--cac", required=True, metavar="ID")
_inline.add_argument("-o", "--output", metavar="FILE")
_render = _command("render", _cmd_render, "emit a DOT diagram")
_render.add_argument("--highlight", metavar="CASE.ID[,CASE.ID...]")
_render.add_argument("-o", "--output", metavar="FILE")
_metrics = _command("metrics", _cmd_metrics, "structural metrics as a table or JSON")
_metrics.add_argument("--json", action="store_true")
_fmt = _command("fmt", _cmd_fmt, "canonical pretty-print of a case file")
_fmt.add_argument("--check", action="store_true", help="exit 1 when the file is not canonical")


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code. The cyclic garbage collector
    is paused for the command, since actool's values form no reference cycles
    and the collector would only walk them, and is left as the caller had it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
    help_text = io.StringIO()  # argparse drops an error writing `--help`, so it is written below
    try:
        with redirect_stdout(help_text):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        args = 2 if exc.code else 0
    try:
        sys.stdout.write(help_text.getvalue())
        code = args if isinstance(args, int) else args.func(args)
        sys.stdout.flush()  # a short output may fail only here
        return code
    except (_Failure, UnknownElementError) as exc:
        print(f"actool: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Files a command names fail as a _Failure or a P6 diagnostic, so this is stdout.
        print(f"actool: cannot write standard output: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except OSError:  # what `run` reported: shutdown flushes stdout again, which would fail and exit 120
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    main()
