"""actool benchmark: seeded workloads, known-answer checks, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload case-tree --seed 1 --seconds 10 --trace 0

Each workload runs closed loop with one caller in one process: whole cycles
of its op mix, one op at a time, until `--seconds` have passed. An op is one
subcommand invocation, `actool.cli.run(argv)` in-process with stdout and
stderr captured, or one `python` process for `cli-corpus`. Every op is
checked against the known answer of its generated input; a wrong exit code,
a wrong artifact or an exception counts as a failed op.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced cycles and reports per-layer metrics from spans recorded around
the public names `actool.cli` calls, plus the tracing overhead. `--memory`
makes a separate one-cycle pass under tracemalloc. `--smoke` runs one cycle
at tiny sizes. `--workload all` runs every workload, each in its own process.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import corpus  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

# name -> (generator, full size, smoke size); cli-corpus has a fixed input.
GENERATED = {
    "case-tree": (gen.case_tree, 4000, 120),
    "case-chain": (gen.case_chain, 2000, 40),
    "bundle-wide": (gen.bundle_wide, 4000, 200),
}
WORKLOADS = (*GENERATED, "cli-corpus")
SETUP_REPEATS = 5
CHILD_RUN = "from actool.cli import main; main()"


class NotACheckout(Exception):
    pass


def _require_checkout() -> None:
    needed = ("src/actool/cli.py", "corpus/bundle_mrgfus.acb", "tests/golden/validate_bundle.json")
    missing = [path for path in needed if not (ROOT / path).is_file()]
    if missing:
        raise NotACheckout("not an actool checkout; missing " + ", ".join(missing))


def _child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    env.update(extra or {})
    return env


def _import_cli():
    """(Re-)import actool from this checkout's `src/`, executing its modules."""
    for name in [n for n in sys.modules if n == "actool" or n.startswith("actool.")]:
        del sys.modules[name]
    cli = importlib.import_module("actool.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise NotACheckout(f"actool imported from {cli.__file__}, not from this checkout")
    return cli


def _build(workload: str, seed: int, smoke: bool, workdir: Path) -> tuple[list[gen.Op], dict]:
    if workload == "cli-corpus":
        return corpus.corpus_ops(ROOT, HERE / "bench.units"), {"files": "corpus/"}
    generator, size, smoke_size = GENERATED[workload]
    inputs = generator(seed, smoke_size if smoke else size)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    for op in inputs.ops:
        op.argv = [str(workdir / a) if a in inputs.files else a for a in op.argv]
    return inputs.ops, inputs.shape


def setup(workload: str, seed: int, smoke: bool, workdir: Path):
    """Generate inputs and answers, import actool and warm up; repeated, and
    the median of the repeats is `setup_s`."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.reference_s()
        start = perf_counter()
        ops, shape = _build(workload, seed, smoke, workdir)
        cli = _import_cli()
        if workload == "cli-corpus":
            subprocess.run([sys.executable, "-c", "import actool.cli"], env=_child_env(), check=True)
        else:
            for path in sorted({a for op in ops for a in op.argv if a.endswith((".acd", ".acb"))}):
                text = Path(path).read_text(encoding="utf-8")
                if path.endswith(".acd"):
                    cli.parse_case(text, path)
                else:
                    cli.parse_bundle(text, lambda n, base=Path(path).parent: (base / n).read_text(encoding="utf-8"), path)
        seconds = perf_counter() - start
        times.append(speed.scaled(seconds, before, speed.reference_s()))
    return cli, ops, shape, statistics.median(times)


# --- one op -------------------------------------------------------------------


def call_in_process(cli, op: gen.Op) -> tuple[int | None, str, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in op.expect.get("env", {})}
    os.environ.update(op.expect.get("env", {}))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(op.argv)
        return rc, out.getvalue(), err.getvalue(), None
    except Exception as exc:  # the op failed; the benchmark records it and goes on
        return None, out.getvalue(), err.getvalue(), type(exc).__name__
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def call_child(op: gen.Op, spans: Path | None = None, op_id: int = 0):
    if spans is None:
        command = [sys.executable, "-c", CHILD_RUN, *op.argv]
    else:
        command = [sys.executable, str(HERE / "child.py"), str(spans), str(op_id), *op.argv]
    done = subprocess.run(command, cwd=ROOT, env=_child_env(op.expect.get("env")),
                          capture_output=True, encoding="utf-8", timeout=120)
    error = None if done.returncode in (0, 1, 2) else f"exit status {done.returncode}"
    return done.returncode, done.stdout, done.stderr, error


_DIAG = re.compile(r"^\S.*?: (?:error|warning) (\w+): ", re.M)
_DOT_NODE = re.compile(r'^\s*"([^"]+)" \[shape=', re.M)
_DOT_EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)"(?: \[(\w+)=(\w+)\])?;$', re.M)
_DSL_ELEMENT = re.compile(r"^  (?:claim|strategy|context|assumption|justification|evidence) (\S+) ", re.M)
_DSL_EDGE = re.compile(r"^  \S+ (?:supportedBy|inContextOf) \S+$", re.M)
_S4_NAME = re.compile(r"required capability '([^']*)'")


def check(op: gen.Op, rc: int | None, out: str, err: str) -> str | None:
    """None when the op's output matches its known answer, else the reason."""
    want = op.expect
    if rc != want["exit"]:
        return f"exit code {rc}, expected {want['exit']}"
    for stream, text in (("stdout", out), ("stderr", err)):
        if stream in want and text != want[stream]:
            return f"{stream} differs from the known answer"
    if "stderr_rules" in want and sorted(_DIAG.findall(err)) != want["stderr_rules"]:
        return f"diagnostic rules {sorted(_DIAG.findall(err))}, expected {want['stderr_rules']}"
    if "findings" in want:
        diagnostics = json.loads(out)["diagnostics"]
        findings, s4 = set(), set()
        for d in diagnostics:
            if d["ruleId"] == "S4":
                s4.add((d["file"], _S4_NAME.search(d["message"]).group(1)))
            else:
                findings.add((d["ruleId"], d["elements"][0]["caseId"], d["elements"][0]["elementId"]))
        if findings != want["findings"] or s4 != want["s4"] or len(diagnostics) != len(findings) + len(s4):
            return "diagnostics differ from the known answer"
        expected_rules = sorted([rule for rule, _, _ in want["findings"]] + ["S4"] * len(want["s4"]))
        if sorted(_DIAG.findall(err)) != expected_rules:
            return "stderr diagnostics differ from the known answer"
        if "capabilities" in want and json.loads(out)["capabilities"] != want["capabilities"]:
            return "capability verdicts differ from the known answer"
    for key in ("metrics", "bundle_metrics"):
        if key in want and json.loads(out)["metrics"] != want[key]:
            return "metrics differ from the known answer"
    if "nodes" in want:
        if set(_DOT_NODE.findall(out)) != want["nodes"]:
            return "DOT nodes differ from the known answer"
        edges = _DOT_EDGE.findall(out)
        if "edges" in want:
            kinds = {"": "supportedBy", "onormal": "inContextOf"}
            if {(s, t, kinds.get(value, value)) for s, t, _, value in edges} != want["edges"] or len(edges) != len(want["edges"]):
                return "DOT edges differ from the known answer"
        if "cross" in want and sum(1 for *_, value in edges if value == "dashed") != want["cross"]:
            return "DOT cross-case edges differ from the known answer"
    if "ids" in want:
        if set(_DSL_ELEMENT.findall(out)) != want["ids"] or len(_DSL_ELEMENT.findall(out)) != len(want["ids"]):
            return "inlined elements differ from the known answer"
        if len(_DSL_EDGE.findall(out)) != want["edge_count"]:
            return "inlined edge count differs from the known answer"
    if "inline_lines" in want:
        lines = out.replace("TAC-1__", "").splitlines()
        body = sorted(line for line in lines[1:] if line.strip() and line != "}")
        if lines[0] != want["header"] or body != want["inline_lines"]:
            return "inlined case differs from monolithic_mrgfus.acd"
    return None


# --- loops --------------------------------------------------------------------


class Recorder:
    """Per op: name, wall seconds, seconds at nominal speed, input elements."""

    def __init__(self):
        self.samples: list[tuple[str, float, float, int]] = []
        self.failures: list[str] = []

    def run(self, op: gen.Op, call) -> None:
        gc.collect()
        before = speed.reference_s()
        start = perf_counter()
        rc, out, err, error = call(op)
        seconds = perf_counter() - start
        after = speed.reference_s()
        reason = error or check(op, rc, out, err)
        if reason is not None:
            self.failures.append(f"{op.name} {' '.join(Path(a).name for a in op.argv[1:])}: {reason}")
        self.samples.append((op.name, seconds, speed.scaled(seconds, before, after), op.elements))


def _done(start: float, lap: float, seconds: float) -> bool:
    """Whole cycles only; stop when one more would end nearer past the
    deadline than this one ends before it."""
    return perf_counter() - start + lap / 2 >= seconds


def timed(ops, call, seconds: float, smoke: bool) -> Recorder:
    recorder = Recorder()
    start = perf_counter()
    while True:
        lap = perf_counter()
        for op in ops:
            recorder.run(op, call)
        if smoke or _done(start, perf_counter() - lap, seconds):
            return recorder


def traced(cli, ops, seconds: float, smoke: bool, in_process: bool, spans_dir: Path):
    """Untraced and traced cycles alternate (ABBA), so drift hits both."""
    plain, marked = Recorder(), Recorder()
    tracer = tracing.Tracer()
    op_ids = iter(range(1 << 62))
    start = perf_counter()
    rounds = 0

    def traced_call(op):
        op_id = next(op_ids)
        if in_process:
            with tracer.op(op_id, op.name):
                return call_in_process(cli, op)
        spans_file = spans_dir / f"spans-{op_id}.json"
        result = call_child(op, spans_file, op_id)
        offset = len(tracer.spans)
        for span in json.loads(spans_file.read_text(encoding="utf-8")):
            span["parent"] = None if span["parent"] is None else span["parent"] + offset
            tracer.spans.append(span)
        spans_file.unlink()
        return result

    untraced_call = (lambda op: call_in_process(cli, op)) if in_process else call_child
    while True:
        lap = perf_counter()
        order = ("plain", "traced") if rounds % 2 == 0 else ("traced", "plain")
        for side in order:
            if side == "plain":
                for op in ops:
                    plain.run(op, untraced_call)
            else:
                if in_process:
                    tracer.install(cli)
                try:
                    for op in ops:
                        marked.run(op, traced_call)
                finally:
                    if in_process:
                        tracer.uninstall()
        rounds += 1
        if smoke or _done(start, perf_counter() - lap, seconds):
            return plain, marked, tracer, rounds


def memory_pass(cli, ops) -> tuple[Recorder, dict]:
    tracer = tracing.MemoryTracer()
    recorder = Recorder()
    tracer.install(cli)
    tracemalloc.start()
    try:
        for op in ops:
            recorder.run(op, lambda o: call_in_process(cli, o))
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    return recorder, {f"{name}.peak_kib": kib for name, kib in sorted(tracer.peak_kib.items())}


# --- metrics ------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; the maximum when there are too few samples."""
    ordered = sorted(times)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def end_to_end(recorder: Recorder, setup_s: float, children: bool) -> tuple[dict, list[str]]:
    times = [s for _, _, s, _ in recorder.samples]
    validate = [s for name, _, s, _ in recorder.samples if name == "validate"]
    wall = [s for _, s, _, _ in recorder.samples]
    percentile, tail_s = tail(times)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "validate_p50_s": (statistics.median(validate), "s"),
        "elements_per_s": (sum(n for *_, n in recorder.samples) / sum(times), "1/s"),
        "peak_rss_mib": (usage.ru_maxrss / 1024, "MiB"),
    }
    failed = len(recorder.failures)
    notes = [
        f"times are at nominal speed; wall op_p50_s {statistics.median(wall):.6g} s; "
        f"the reference loop ran at {statistics.median(w / s for w, s in zip(wall, times)):.3f}x its nominal time",
        f"op_tail_s is p{percentile:.1f} of n={len(times)} ops",
        f"failed_ratio {failed / len(times):.6f} ({failed}/{len(times)})",
    ]
    return metrics, notes


def _emit(recorder: Recorder, metrics: dict, notes: list[str]) -> None:
    for failure in sorted(set(recorder.failures)):
        print(f"FAILED {failure} (x{recorder.failures.count(failure)})")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not recorder.failures,
        "attempted": len(recorder.samples),
        "failed": len(recorder.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def _interpreter_and_import(repeats: int) -> tuple[float, float]:
    def median_run(code: str) -> float:
        times = []
        for _ in range(repeats):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True)
            times.append(perf_counter() - start)
        return statistics.median(times)

    bare = median_run("pass")
    return bare, median_run("import actool.cli") - bare


def run_one(args) -> int:
    _require_checkout()
    in_process = args.workload != "cli-corpus"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli, ops, shape, setup_s = setup(args.workload, args.seed, args.smoke, workdir)
        print(f"workload {args.workload} seed {args.seed} shape {json.dumps(shape, sort_keys=True)}")
        if args.memory:
            recorder, peaks = memory_pass(cli, ops)
            _emit(recorder, {name: (kib, "KiB") for name, kib in peaks.items()}, [])
        elif args.trace:
            workdir.mkdir(parents=True, exist_ok=True)
            plain, marked, tracer, rounds = traced(cli, ops, args.seconds, args.smoke, in_process, workdir)
            layers = tracing.per_layer(tracer.spans, rounds)
            if args.spans:
                Path(args.spans).write_text(json.dumps(tracer.spans), encoding="utf-8")
            untraced_p50 = statistics.median(s for _, _, s, _ in plain.samples)
            layers["trace.overhead_s"] = statistics.median(s for _, _, s, _ in marked.samples) - untraced_p50
            interpreter_s, import_s = _interpreter_and_import(3 if args.smoke else 7)
            layers["cli.interpreter_s"], layers["cli.import_s"] = interpreter_s, import_s
            recorder = Recorder()
            recorder.samples = plain.samples + marked.samples
            recorder.failures = plain.failures + marked.failures
            _emit(recorder, {name: (value, unit_of(name)) for name, value in sorted(layers.items())}, [])
        else:
            recorder = timed(ops, (lambda op: call_in_process(cli, op)) if in_process else call_child,
                             args.seconds, args.smoke)
            metrics, notes = end_to_end(recorder, setup_s, children=not in_process)
            _emit(recorder, metrics, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith(".bytes_per_s"):
        return "B/s"
    if metric.endswith(".peak_kib"):
        return "KiB"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    summary = []
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        print(f"== {workload}", flush=True)
        done = subprocess.run(command, capture_output=True, encoding="utf-8")
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        summary.append({"workload": workload, **{k: result[k] for k in ("correct", "attempted", "failed")}})
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory", action="store_true", help="one cycle under tracemalloc: <layer>.peak_kib")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one cycle")
    parser.add_argument("--spans", metavar="FILE", help="with --trace 1, write the raw spans as JSON")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except NotACheckout as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
