"""Seeded input generators and their known answers.

Every input is written as DSL text directly from the generator's own records,
never through actool's printer, so the parser reads text that does not depend
on the code under test. The known answers (rule histograms, metrics, link
tables, impact sets, inline sizes, capability verdicts) are derived from the
same records by small independent oracles in this file; nothing here imports
actool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

ELEMENT_KINDS = ("claim", "strategy", "context", "assumption", "justification", "evidence")
CONTEXT_KINDS = ("context", "assumption", "justification")
EDGE_KINDS = ("supportedBy", "inContextOf")
CONCERNS = ("safety", "effectiveness")
FLAG_ORDER = ("root", "public", "undeveloped", "module", "concern", "awayref")

WORDS = (
    "the system output power beam focal depth tolerance hazard operator treatment "
    "sonication frequency calibrated verified monitored within specified limits "
    "control stop latency thermal dose target tissue margin interference shield "
    "temperature cooling transducer element array steering accuracy report test"
).split()

# (dimension, scale to the dimension's base unit), restated from FORMATS.md.
UNITS = {
    "W": ("Power", Fraction(1)),
    "mW": ("Power", Fraction(1, 1000)),
    "kW": ("Power", Fraction(1000)),
    "J": ("Energy", Fraction(1)),
    "kJ": ("Energy", Fraction(1000)),
    "s": ("Time", Fraction(1)),
    "ms": ("Time", Fraction(1, 1000)),
    "min": ("Time", Fraction(60)),
    "Hz": ("Frequency", Fraction(1)),
    "kHz": ("Frequency", Fraction(1000)),
    "MHz": ("Frequency", Fraction(1000000)),
    "m": ("Length", Fraction(1)),
    "mm": ("Length", Fraction(1, 1000)),
    "cm": ("Length", Fraction(1, 100)),
    "degC": ("Temperature", Fraction(1)),
    "W_per_cm2": ("Intensity", Fraction(1)),
}


def statement(rng: random.Random) -> str:
    words = [rng.choice(WORDS) for _ in range(rng.randint(6, 14))]
    if rng.random() < 0.05:
        words.insert(rng.randrange(len(words)), '"quoted"')
    return " ".join(words).capitalize() + "."


def quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def decimal_text(tenths: int) -> str:
    """Plain decimal text for tenths >= 0, without trailing zeros."""
    whole, frac = divmod(tenths, 10)
    return str(whole) if frac == 0 else f"{whole}.{frac}"


@dataclass
class Case:
    """One case as the generator's own records."""

    case_id: str
    kind: str
    associates: str | None = None
    elements: dict[str, tuple[str, str, tuple[str, ...]]] = field(default_factory=dict)
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    capabilities: list[tuple[str, str, str, str, str]] = field(default_factory=list)

    def add(self, element_id: str, kind: str, text: str, *flags: str) -> str:
        """Record an element; flags are kept in the order `fmt` prints them."""
        ordered = tuple(sorted(flags, key=lambda f: FLAG_ORDER.index(f.split()[0])))
        self.elements[element_id] = (kind, text, ordered)
        return element_id

    def edge(self, source: str, kind: str, target: str) -> None:
        self.edges.append((source, kind, target))

    def sort(self) -> None:
        """Put edges and capabilities in the order FORMATS.md calls canonical."""
        self.edges.sort()
        self.capabilities.sort(key=lambda c: (c[0], c[1], c[2], Fraction(c[3]), Fraction(c[4])))

    def text(self) -> str:
        """Canonical DSL text, as FORMATS.md specifies it for `fmt`."""
        sections = []
        if self.associates is not None:
            sections.append([f"  associates {self.associates}"])
        sections.append(
            [
                f"  {kind} {eid} {quote(text)}" + "".join(" " + f for f in flags)
                for eid, (kind, text, flags) in sorted(self.elements.items())
            ]
        )
        if self.edges:
            sections.append([f"  {s} {k} {t}" for s, k, t in self.edges])
        if self.capabilities:
            sections.append(
                [f"  {d} capability {n} unit {u} range [{lo}, {hi}]" for d, n, u, lo, hi in self.capabilities]
            )
        body = "\n\n".join("\n".join(lines) for lines in sections)
        return f"case {self.case_id} kind {self.kind} {{\n{body}\n}}\n"

    def away_refs(self) -> dict[str, tuple[str, str]]:
        refs = {}
        for eid, (_, _, flags) in self.elements.items():
            for flag in flags:
                if flag.startswith("awayref "):
                    case_id, target = flag[len("awayref ") :].split(".", 1)
                    refs[eid] = (case_id, target)
        return refs


# --- oracles -----------------------------------------------------------------


def _out(case: Case, kind: str | None = None) -> dict[str, list[str]]:
    adjacency: dict[str, list[str]] = {eid: [] for eid in case.elements}
    for source, edge_kind, target in case.edges:
        if kind is None or edge_kind == kind:
            adjacency[source].append(target)
    return adjacency


def supported_by_depth(case: Case) -> int:
    """Longest supportedBy path in nodes, by an explicit-stack post-order walk."""
    adjacency = _out(case, "supportedBy")
    depth: dict[str, int] = {}
    for start in case.elements:
        stack = [start]
        while stack:
            node = stack[-1]
            if node in depth:
                stack.pop()
                continue
            pending = [t for t in adjacency[node] if t not in depth]
            if pending:
                stack.extend(pending)
            else:
                depth[node] = 1 + max((depth[t] for t in adjacency[node]), default=0)
                stack.pop()
    return max(depth.values(), default=0)


def leaf_claims(case: Case) -> list[str]:
    support = _out(case, "supportedBy")
    return [
        eid
        for eid, (kind, _, _) in case.elements.items()
        if kind == "claim" and not any(case.elements[t][0] in ("claim", "strategy") for t in support[eid])
    ]


def case_metrics(case: Case) -> dict:
    """The per-case object of `metrics --json`, as FORMATS.md defines it."""
    elements = {kind: 0 for kind in ELEMENT_KINDS}
    concerns = {c: 0 for c in CONCERNS}
    undeveloped = 0
    for kind, _, flags in case.elements.values():
        elements[kind] += 1
        undeveloped += "undeveloped" in flags
        for c in CONCERNS:
            concerns[c] += f"concern {c}" in flags
    edges = {kind: 0 for kind in EDGE_KINDS}
    for _, kind, _ in case.edges:
        edges[kind] += 1
    support = _out(case, "supportedBy")
    leaves = leaf_claims(case)
    covered = sum(1 for leaf in leaves if any(case.elements[t][0] == "evidence" for t in support[leaf]))
    return {
        "caseId": case.case_id,
        "kind": case.kind,
        "elements": {**elements, "total": len(case.elements)},
        "edges": {**edges, "total": len(case.edges)},
        "depth": supported_by_depth(case),
        "undeveloped": undeveloped,
        "evidenceCoverage": covered / len(leaves) if leaves else 1.0,
        "concerns": concerns,
    }


def g_findings(case: Case) -> set[tuple[str, str]]:
    """(rule, element id) for G5, G6 and G7, restated from RULES.md."""
    findings = set()
    support = _out(case, "supportedBy")
    for leaf in leaf_claims(case):
        _, _, flags = case.elements[leaf]
        has_evidence = any(case.elements[t][0] == "evidence" for t in support[leaf])
        if not (has_evidence or "undeveloped" in flags or any(f.startswith("awayref ") for f in flags)):
            findings.add(("G5", leaf))
    roots = [eid for eid, (_, _, flags) in case.elements.items() if "root" in flags]
    if len(roots) == 1:
        both = _out(case)
        seen = {roots[0]}
        stack = [roots[0]]
        while stack:
            for target in both[stack.pop()]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        findings |= {("G6", eid) for eid in case.elements if eid not in seen}
    for eid, (kind, _, _) in case.elements.items():
        if kind == "strategy" and not support[eid]:
            findings.add(("G7", eid))
    return findings


def reachable(both: dict[str, list[str]], start: str) -> set[str]:
    """Ids reachable from `start` in the adjacency map, `start` included."""
    seen = {start}
    stack = [start]
    while stack:
        for target in both[stack.pop()]:
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def match_capabilities(tac: Case, cac: Case) -> list[dict]:
    """`validate --json` capability entries for one clinical case, in declaration
    order, decided with exact rational arithmetic."""
    provided = [c for c in tac.capabilities if c[0] == "provides"]
    results = []
    for _, name, unit, low, high in (c for c in cac.capabilities if c[0] == "requires"):
        entry = {"caseId": cac.case_id, "name": name, "unit": unit, "low": low, "high": high, "provider": None}
        dimension, scale = UNITS[unit]
        candidates = [p for p in provided if p[1] == name]
        same = [p for p in candidates if UNITS[p[2]][0] == dimension]
        lo, hi = Fraction(low) * scale, Fraction(high) * scale
        match = next(
            (p for p in same if Fraction(p[3]) * UNITS[p[2]][1] <= lo and hi <= Fraction(p[4]) * UNITS[p[2]][1]),
            None,
        )
        if not candidates:
            entry["status"] = "missing"
        elif not same:
            entry["status"] = "unitMismatch"
        elif match is None:
            entry["status"] = "rangeNotCovered"
        else:
            entry["status"] = "satisfied"
            entry["provider"] = {"name": match[1], "unit": match[2], "low": match[3], "high": match[4]}
        results.append(entry)
    return results


def s3_findings(cac: Case) -> set[str]:
    """Away-claims with no inContextOf edge to a context node."""
    documented = {s for s, k, t in cac.edges if k == "inContextOf" and cac.elements[t][0] == "context"}
    return {eid for eid in cac.away_refs() if eid not in documented}


def affected(cases: list[Case], changed: set[tuple[str, str]]) -> dict[str, set[str]]:
    """Reverse reachability over the union graph by fixpoint relaxation."""
    edges = [((c.case_id, s), (c.case_id, t)) for c in cases for s, _, t in c.edges]
    for c in cases:
        edges.extend(((c.case_id, away), target) for away, target in c.away_refs().items())
    hit = set(changed)
    grew = True
    while grew:
        grew = False
        for upper, lower in edges:
            if lower in hit and upper not in hit:
                hit.add(upper)
                grew = True
    result: dict[str, set[str]] = {c.case_id: set() for c in cases}
    for case_id, element_id in hit:
        result[case_id].add(element_id)
    return result


# --- shapes ------------------------------------------------------------------


def _tree(
    rng: random.Random,
    case: Case,
    size: int,
    *,
    g5: int = 0,
    g7: int = 0,
    orphans: int = 0,
    public_share: float = 0.0,
) -> list[list[str]]:
    """A GSN tree of about `size` elements, claim -> strategy -> 4 sub-claims,
    grown breadth first. Leaves carry evidence, except `g5` unsupported ones,
    `g7` that hang an empty strategy and a few marked undeveloped. Returns
    the claim ids per level."""
    contexts = size // 50
    expansions = max(1, (size - 2 + g5 - contexts - orphans) // 8)
    levels = [[case.add("C00000", "claim", statement(rng), "root", *(["public"] if public_share else []))]]
    counter = 1
    queue = [(levels[0][0], 0)]
    head = 0
    for _ in range(expansions):
        parent, level = queue[head]
        head += 1
        strategy = case.add(f"S{counter:05d}", "strategy", statement(rng))
        counter += 1
        case.edge(parent, "supportedBy", strategy)
        if len(levels) == level + 1:
            levels.append([])
        for _ in range(4):
            flags = []
            if rng.random() < public_share:
                flags.append("public")
            if level == 0:
                flags.append("module")
            if rng.random() < 0.1:
                flags.append(f"concern {rng.choice(CONCERNS)}")
            claim = case.add(f"C{counter:05d}", "claim", statement(rng), *flags)
            counter += 1
            case.edge(strategy, "supportedBy", claim)
            levels[level + 1].append(claim)
            queue.append((claim, level + 1))
    leaves = [claim for claim, _ in queue[head:]]
    special = rng.sample(leaves, g5 + g7 + len(leaves) // 40)
    for index, leaf in enumerate(special):
        kind, text, flags = case.elements[leaf]
        if index < g5:
            continue
        if index < g5 + g7:
            strategy = case.add(f"S{counter:05d}", "strategy", statement(rng))
            counter += 1
            case.edge(leaf, "supportedBy", strategy)
        else:
            case.add(leaf, kind, text, "undeveloped", *flags)
    special_set = set(special)
    for leaf in leaves:
        if leaf not in special_set:
            evidence = case.add(f"E{counter:05d}", "evidence", statement(rng))
            counter += 1
            case.edge(leaf, "supportedBy", evidence)
    holders = [eid for eid, (kind, _, _) in case.elements.items() if kind in ("claim", "strategy")]
    for _ in range(contexts):
        context = case.add(f"X{counter:05d}", rng.choice(CONTEXT_KINDS), statement(rng))
        counter += 1
        case.edge(rng.choice(holders), "inContextOf", context)
    for index in range(orphans):
        case.add(f"X{counter:05d}", "context" if index % 2 else "evidence", statement(rng))
        counter += 1
    return levels


@dataclass
class Op:
    """One subcommand invocation and the facts its output must show."""

    name: str
    argv: list[str]
    elements: int
    expect: dict


@dataclass
class Inputs:
    files: dict[str, str]
    ops: list[Op]
    shape: dict


def _exit_code(findings: set[tuple[str, str, str]], s4: set) -> int:
    return 1 if s4 or any(rule != "G6" for rule, _, _ in findings) else 0


def _single_case_ops(case: Case, path: str) -> list[Op]:
    findings = {(rule, case.case_id, eid) for rule, eid in g_findings(case)}
    size = len(case.elements)
    return [
        Op("validate", ["validate", "--json", path], size,
           {"exit": _exit_code(findings, set()), "findings": findings, "s4": set()}),
        Op("validate", ["validate", path], size,
           {"exit": _exit_code(findings, set()), "stdout": "", "stderr_rules": sorted(r for r, _, _ in findings)}),
        Op("metrics", ["metrics", "--json", path], size, {"exit": 0, "stderr": "", "metrics": case_metrics(case)}),
        Op("render", ["render", path], size,
           {"exit": 0, "stderr": "", "nodes": set(case.elements), "edges": {(s, t, k) for s, k, t in case.edges}}),
        Op("fmt", ["fmt", "--check", path], size, {"exit": 0, "stdout": "", "stderr": ""}),
    ]


def case_tree(seed: int, size: int = 4000) -> Inputs:
    """One technological case shaped as a fan-out-4 GSN tree with seeded G5,
    G6 and G7 violations."""
    rng = random.Random(seed)
    case = Case("TREE-1", "technological")
    levels = _tree(rng, case, size, g5=8, g7=4, orphans=6, public_share=0.05)
    case.sort()
    path = "tree.acd"
    shape = {"elements": len(case.elements), "edges": len(case.edges), "depth": supported_by_depth(case),
             "claim_levels": len(levels), "findings": len(g_findings(case))}
    return Inputs({path: case.text()}, _single_case_ops(case, path), shape)


def case_chain(seed: int, depth: int = 2000) -> Inputs:
    """One monolithic case: a supportedBy chain of `depth` claims ending in
    evidence, with a context at every level."""
    rng = random.Random(seed)
    case = Case("CHAIN-1", "monolithic")
    previous = None
    for level in range(depth):
        claim = case.add(f"K{level:05d}", "claim", statement(rng), *(["root"] if level == 0 else []))
        context = case.add(f"X{level:05d}", "context", statement(rng))
        case.edge(claim, "inContextOf", context)
        if previous is not None:
            case.edge(previous, "supportedBy", claim)
        previous = claim
    evidence = case.add("E00000", "evidence", statement(rng))
    case.edge(previous, "supportedBy", evidence)
    case.sort()
    path = "chain.acd"
    shape = {"elements": len(case.elements), "edges": len(case.edges), "depth": supported_by_depth(case)}
    return Inputs({path: case.text()}, _single_case_ops(case, path), shape)


# name -> unit, low, high (tenths) of the technological case's providers; the
# second acoustic_power provider exercises first-provider-wins in kW.
PROVIDED = (
    ("acoustic_power", "W", 0, 3000),
    ("acoustic_power", "kW", 5, 8),
    ("standby_power", "mW", 0, 50000),
    ("focal_depth", "mm", 300, 1200),
    ("aperture", "cm", 50, 300),
    ("sonication_duration", "s", 10, 300),
    ("pulse_width", "ms", 1, 5000),
    ("sonication_frequency", "MHz", 5, 20),
    ("modulation", "kHz", 10, 1000),
    ("bath_temperature", "degC", 150, 250),
    ("spatial_peak", "W_per_cm2", 0, 20000),
    ("dose_energy", "kJ", 0, 500),
)
SAME_DIMENSION = {
    "W": ("W", "kW", "mW"), "kW": ("W", "kW", "mW"), "mW": ("W", "mW"),
    "mm": ("mm", "cm"), "cm": ("mm", "cm"), "s": ("s", "ms"), "ms": ("ms",),
    "MHz": ("MHz", "kHz"), "kHz": ("kHz",), "degC": ("degC",), "W_per_cm2": ("W_per_cm2",),
    "kJ": ("kJ", "J"),
}


def _required(rng: random.Random, name: str, unit: str, low: int, high: int, verdict: str) -> tuple:
    """A requirement on provider `name` that is satisfied or, for
    verdict='range', reaches past the provider's high bound."""
    want = rng.choice(SAME_DIMENSION[unit])
    scale = UNITS[unit][1] / UNITS[want][1]
    lo10 = -(-Fraction(low) * scale // 1)
    hi10 = Fraction(high) * scale // 1
    a, b = sorted(rng.randint(int(lo10), int(hi10)) for _ in range(2))
    if verdict == "range":
        b = int(hi10) + rng.randint(1, 40)
    return ("requires", name, want, decimal_text(a), decimal_text(b))


def bundle_wide(seed: int, tac_size: int = 4000, cacs: int = 8) -> Inputs:
    """A technological case with many public claims and `cacs` clinical
    cases holding tac_size/4 away-claims, each documented by a context,
    except a seeded few (S3); a seeded few requirements fail S4."""
    rng = random.Random(seed)
    away_total = tac_size // 4
    tac = Case("TAC-1", "technological")
    levels = _tree(rng, tac, tac_size, public_share=0.6)
    tac.capabilities = [("provides", n, u, decimal_text(lo), decimal_text(hi)) for n, u, lo, hi in PROVIDED]
    tac.sort()
    # Away-claims alternate between public claims whose subtree has exactly 2
    # and exactly 10 elements, so the inlined size does not depend on the seed.
    tac_out = _out(tac)
    public = [c for level in levels[3:] for c in level if "public" in tac.elements[c][2]]
    targets = [[c for c in public if len(reachable(tac_out, c)) == size] for size in (2, 10)]
    per_cac = away_total // cacs
    undocumented = set(rng.sample(range(away_total), 6))
    s4 = dict(zip(rng.sample(range(cacs * 6), 5), ("range", "range", "range", "missing", "unit")))
    files = {}
    members = []
    for index in range(1, cacs + 1):
        cac = Case(f"CAC-{index}", "clinical", associates=tac.case_id)
        cac.add("C1", "claim", statement(rng), "root")
        cac.add("X0", "context", statement(rng))
        cac.edge("C1", "inContextOf", "X0")
        for group in range((per_cac + 24) // 25):
            strategy = cac.add(f"S{group:02d}", "strategy", statement(rng))
            cac.edge("C1", "supportedBy", strategy)
            clinical = cac.add(f"K{group:02d}", "claim", statement(rng), f"concern {rng.choice(CONCERNS)}")
            cac.edge(strategy, "supportedBy", clinical)
            cac.edge(clinical, "supportedBy", cac.add(f"E{group:02d}", "evidence", statement(rng)))
            for slot in range(group * 25, min(per_cac, group * 25 + 25)):
                target = rng.choice(targets[slot % 2])
                away = cac.add(f"A{slot:03d}", "claim", tac.elements[target][1], "undeveloped",
                               f"awayref {tac.case_id}.{target}")
                cac.edge(strategy, "supportedBy", away)
                if (index - 1) * per_cac + slot not in undocumented:
                    cac.edge(away, "inContextOf", cac.add(f"D{slot:03d}", "context", statement(rng)))
        for slot, (name, unit, low, high) in enumerate(rng.sample(PROVIDED[2:], 6)):
            verdict = s4.get((index - 1) * 6 + slot, "ok")
            if verdict == "missing":
                cac.capabilities.append(("requires", "coupling_gain", unit, "0", "1"))
            elif verdict == "unit":
                cac.capabilities.append(("requires", name, "J" if unit != "kJ" else "W", "0", "1"))
            else:
                cac.capabilities.append(_required(rng, name, unit, low, high, verdict))
        cac.capabilities.append(_required(rng, "acoustic_power", "W", 0, 3000, "ok"))
        cac.sort()
        files[f"cac_{index}.acd"] = cac.text()
        members.append(cac)
    files["tac.acd"] = tac.text()
    manifest = "bundle WIDE-1 {\n  tac \"tac.acd\"\n" + "".join(f'  cac "cac_{i}.acd"\n' for i in range(1, cacs + 1)) + "}\n"
    files["bundle.acb"] = manifest
    ops = _bundle_ops(rng, tac, members, "bundle.acb")
    shape = {"tac_elements": len(tac.elements), "tac_edges": len(tac.edges),
             "cac_elements": sum(len(c.elements) for c in members),
             "away_claims": sum(len(c.away_refs()) for c in members),
             "inlined_elements": sum(len(op.expect["ids"]) for op in ops if op.name == "inline"),
             "depth": supported_by_depth(tac)}
    return Inputs(files, ops, shape)


def _bundle_ops(rng: random.Random, tac: Case, cacs: list[Case], path: str) -> list[Op]:
    cases = [tac, *cacs]
    size = sum(len(c.elements) for c in cases)
    findings = {(g, c.case_id, e) for c in cases for g, e in g_findings(c)}
    findings |= {("S3", c.case_id, e) for c in cacs for e in s3_findings(c)}
    capabilities = [entry for c in cacs for entry in match_capabilities(tac, c)]
    s4 = {(f"cac_{i}.acd", e["name"]) for i, c in enumerate(cacs, 1)
          for e in capabilities if e["caseId"] == c.case_id and e["status"] != "satisfied"}
    links = sorted((c.case_id, away, *target) for c in cacs for away, target in c.away_refs().items())
    changed = {(tac.case_id, eid) for eid in rng.sample(sorted(tac.elements), 3)}
    hit = affected(cases, changed)
    ops = [
        Op("validate", ["validate", "--json", path], size,
           {"exit": _exit_code(findings, s4), "findings": findings, "s4": s4, "capabilities": capabilities}),
        Op("validate", ["validate", path], size,
           {"exit": _exit_code(findings, s4), "stdout": "",
            "stderr_rules": sorted([r for r, _, _ in findings] + ["S4"] * len(s4))}),
        Op("link", ["link", path], size,
           {"exit": 0, "stderr": "", "stdout": "".join(f"{c}.{a} -> {tc}.{te}\n" for c, a, tc, te in links)}),
        Op("impact", ["impact", path, "--changed", ",".join(f"{c}.{e}" for c, e in sorted(changed))], size,
           {"exit": 0, "stderr": "", "stdout": impact_text(changed, hit, [c.case_id for c in cacs])}),
    ]
    tac_out = _out(tac)
    for cac in cacs:
        copies: dict[str, int] = {}
        for _, target in cac.away_refs().values():
            for node in reachable(tac_out, target):
                copies[node] = copies.get(node, 0) + 1
        ids = set(cac.elements) | {
            f"{tac.case_id}__{node}" if n == 1 else f"{tac.case_id}__{n}__{node}"
            for node, count in copies.items() for n in range(1, count + 1)
        }
        edges = len(cac.edges) + len(cac.away_refs())
        edges += sum(count * len(tac_out[node]) for node, count in copies.items())
        ops.append(Op("inline", ["inline", path, "--cac", cac.case_id], size,
                      {"exit": 0, "stderr": "", "ids": ids, "edge_count": edges}))
    ops.append(Op("metrics", ["metrics", "--json", path], size,
                  {"exit": 0, "stderr": "", "bundle_metrics": bundle_metrics(tac, cacs)}))
    ops.append(Op("render", ["render", path], size,
                  {"exit": 0, "stderr": "", "nodes": {f"{c.case_id}.{e}" for c in cases for e in c.elements},
                   "cross": len(links)}))
    return ops


def impact_text(changed: set[tuple[str, str]], hit: dict[str, set[str]], cac_ids: list[str]) -> str:
    """`actool impact` stdout, as the README shows it."""
    lines = ["changed: " + (", ".join(f"{c}.{e}" for c, e in sorted(changed)) or "(none)"), "affected:"]
    rows = [f"  {case_id}: " + ", ".join(sorted(ids)) for case_id, ids in sorted(hit.items()) if ids]
    lines.extend(rows or ["  (none)"])
    lines.append("affected cacs: " + (", ".join(sorted(c for c in cac_ids if hit[c])) or "(none)"))
    return "\n".join(lines) + "\n"


def bundle_metrics(tac: Case, cacs: list[Case]) -> dict:
    cases = [case_metrics(c) for c in (tac, *cacs)]

    def total(key: str) -> dict:
        return {k: sum(c[key][k] for c in cases) for k in cases[0][key]}

    return {
        "cases": cases,
        "totals": {"elements": total("elements"), "edges": total("edges"),
                   "undeveloped": sum(c["undeveloped"] for c in cases), "concerns": total("concerns")},
        "crossLinks": sum(len(c.away_refs()) for c in cacs),
    }
