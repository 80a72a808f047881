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
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

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


def _linked(path: str) -> tuple[Bundle | ResolvedBundle | None, list[Diagnostic]]:
    """Parse the manifest at `path` and resolve its links: the resolved
    bundle, the bare bundle when S1, S2 or S5 fail, or None when the
    manifest does not parse."""
    from .link import resolve_links
    bundle, diagnostics = _load(path, manifest=True)
    if bundle is None:
        return None, diagnostics
    resolved, link_diagnostics = resolve_links(bundle)
    subject = resolved if resolved is not None else bundle
    return subject, sorted_diagnostics([*diagnostics, *link_diagnostics])


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
    from .validate import bundle_match_results, validate_bundle, validate_case
    units = _load_units()
    subject, diagnostics = _load(args.file, args.file.endswith(".acb"))
    capabilities = None
    if isinstance(subject, Bundle):
        for case in subject.cases():
            diagnostics.extend(validate_case(case, units))
        diagnostics.extend(validate_bundle(subject, units))
        if args.json:
            capabilities = bundle_match_results(subject, units)
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
    if resolved is None or isinstance(resolved, Bundle):
        return 1
    for source, target in sorted(resolved.resolutions.items()):
        print(f"{source[0]}.{source[1]} -> {target[0]}.{target[1]}")
    return _exit_code(diagnostics)


def _cmd_impact(args: argparse.Namespace) -> int:
    from .analyze import impact
    resolved, diagnostics = _linked(args.file)
    _emit(diagnostics)
    if resolved is None or isinstance(resolved, Bundle):
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
    if resolved is None or isinstance(resolved, Bundle):
        return 1
    _write_output(print_case(inline_bundle(resolved, args.cac)), args.output)
    return _exit_code(diagnostics)


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import to_dot
    manifest = args.file.endswith(".acb")
    subject, diagnostics = _linked(args.file) if manifest else _load(args.file, manifest=False)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actool",
        description="Validate, link, and analyze assurance cases written in the .acd DSL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a case or bundle and run the rule catalog")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="write a JSON report to stdout")
    p.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("link", help="resolve away references and print the resolution table")
    p.add_argument("file")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("impact", help="report elements affected by changing the given elements")
    p.add_argument("file")
    p.add_argument("--changed", required=True, metavar="CASE.ID[,CASE.ID...]")
    p.set_defaults(func=_cmd_impact)

    p = sub.add_parser("inline", help="inline one clinical case into a monolithic case")
    p.add_argument("file")
    p.add_argument("--cac", required=True, metavar="ID")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_inline)

    p = sub.add_parser("render", help="emit a DOT diagram")
    p.add_argument("file")
    p.add_argument("--highlight", metavar="CASE.ID[,CASE.ID...]")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("metrics", help="structural metrics as a table or JSON")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("fmt", help="canonical pretty-print of a case file")
    p.add_argument("file")
    p.add_argument("--check", action="store_true", help="exit 1 when the file is not canonical")
    p.set_defaults(func=_cmd_fmt)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a short output may fail only here
        return code
    except (_Failure, UnknownElementError) as exc:
        print(f"actool: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Files a command names fail as a _Failure or a P6 diagnostic, so this is stdout.
        print(f"actool: cannot write standard output: {exc}", file=sys.stderr)
        # Shutdown flushes stdout again: send it to os.devnull, or that fails and exits 120.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
