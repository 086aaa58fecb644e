"""The four pipeline stages, run through the public API as a user runs them.

apply      parse the task text, typecheck it, transform, elaborate, ccheck,
           compare the derived leaves with the transformation's tasks
           (what `certforge transform` does before it writes anything)
serialize  cert_dumps
verify     cert_loads, ccheck, compare leaves (what `certforge check` does)
export     emit_module on the checked application

Beside verify, each certificate is forged once and must be refused; that
check is timed on its own so that early exits do not pull verify's
latency down.

Spans are recorded only around the benchmark's own calls into a module,
never inside certforge.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from certforge import cert, sexpr
from certforge.cert import CertError, cert_dumps, cert_loads, elaborate
from certforge.checker import ccheck, check_application
from certforge.core import subterms
from certforge.lp_export import emit_module
from certforge.task import task_list_alpha_equal, well_typed
from certforge.transforms import TransformError
from pace import Pace

_NULL = contextlib.nullcontext()


class Tracer:
    """In-memory spans: (app, span, parent, name, start, end)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.app = 0
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self, pace: Pace) -> dict[str, tuple[float, int]]:
        """Per span name: (paced duration minus child spans, count)."""
        child: Counter = Counter()
        for _app, _sid, parent, _name, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for _app, sid, _parent, name, t0, t1 in self.spans:
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += ((t1 - t0) - child[sid]) * pace.scale(t0)
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else None
        self.sid = len(tr.spans) + len(tr._stack)
        tr._stack.append(self.sid)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((tr.app, self.sid, self.parent, self.name,
                         self.t0, t1))
        return False


@dataclass
class Tally:
    """Everything one round measured and counted."""

    # (start, seconds) per sample, scaled by the pace afterwards
    apply_s: list[tuple[float, float]] = field(default_factory=list)
    verify_s: list[tuple[float, float]] = field(default_factory=list)
    export_s: list[tuple[float, float]] = field(default_factory=list)
    forged_s: list[tuple[float, float]] = field(default_factory=list)
    busy_s: list[tuple[float, float]] = field(default_factory=list)
    completed: int = 0           # applications through all four stages
    attempted: int = 0
    failed: int = 0
    # deterministic per round
    counts: Counter = field(default_factory=Counter)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"failed: {what}", file=sys.stderr, flush=True)


# Premise-reference fields of each kernel rule: renaming one to a name no
# task uses makes the rule look for a premise that is not there.
_REFS = {
    "KTrivial": ("name",), "KAxiom": ("hyp", "goal"), "KSplit": ("name",),
    "KDestruct": ("name",), "KClear": ("name",), "KSwapNeg": ("name",),
    "KIntroImp": ("name",), "KSplitImp": ("name",), "KUnfoldIff": ("name",),
    "KRevert": ("hyp", "goal"), "KIntroQuant": ("name",),
    "KInstQuant": ("name",), "KIntroType": ("name",), "KInstType": ("name",),
    "KEqRefl": ("name",), "KRewrite": ("name", "eq_name"),
    "KInduction": ("goal_name",),
}
# Recorded formulas each rule matches against a premise of the task:
# negating one breaks the match.
_MATCHED = {
    "KAxiom": ("formula",), "KSplit": ("left", "right"),
    "KDestruct": ("left", "right"), "KClear": ("formula",),
    "KSwapNeg": ("formula",), "KIntroImp": ("left", "right"),
    "KSplitImp": ("left", "right"), "KUnfoldIff": ("left", "right"),
    "KRevert": ("hyp_formula", "goal_formula"), "KIntroQuant": ("pred",),
    "KInstQuant": ("pred",), "KIntroType": ("formula",),
    "KInstType": ("formula",), "KEqRefl": ("term",),
    "KRewrite": ("left", "right"), "KInduction": ("context",),
}
FORGERIES = ("rename", "swap", "drop")


KERNEL = {cls.__name__: cls for cls in cert.KernelCert.__subclasses__()}


def _fields(rule: str) -> list[dataclasses.Field]:
    return dataclasses.fields(KERNEL[rule])


def forge(text: str, rng: random.Random) -> str:
    """One mutation of a serialized kernel certificate at a seeded depth.

    rename: a premise the node refers to gets a name no task has.
    swap:   a formula the node matches against the task is negated.
    drop:   the node loses its last payload, so it no longer parses.
    Where the node has nothing to rename or swap, it is dropped.
    """
    root = sexpr.loads(text)
    levels: list[list] = []
    todo = [(root, 0)]
    while todo:
        node, depth = todo.pop()
        if len(levels) == depth:
            levels.append([])
        levels[depth].append(node)
        for fld, value in zip(_fields(node[0]), node[1:]):
            if fld.type == "KernelCert":
                todo.append((value, depth + 1))
    node = rng.choice(levels[rng.randrange(len(levels))])
    kind = rng.choice(FORGERIES)
    rule, names = node[0], [f.name for f in _fields(node[0])]
    if rule == "KHole":
        task = node[1]
        premises = task[3][1:] + task[4][1:]
        if kind != "drop" and premises:
            p = rng.choice(premises)
            if kind == "rename":
                p[0] = "forged_premise"
            else:
                p[1] = ["not", p[1]]
            return sexpr.dumps(root)
    elif kind == "rename" and rule in _REFS:
        node[1 + names.index(rng.choice(_REFS[rule]))] = "forged_premise"
        return sexpr.dumps(root)
    elif kind == "swap" and rule in _MATCHED:
        i = 1 + names.index(rng.choice(_MATCHED[rule]))
        node[i] = ["not", node[i]]
        return sexpr.dumps(root)
    node.pop()
    return sexpr.dumps(root)


def kernel_rules(k) -> Counter:
    """Kernel nodes per rule, walked with cert_children."""
    out: Counter = Counter()
    todo = [k]
    while todo:
        node = todo.pop()
        out[type(node).__name__] += 1
        todo.extend(cert.cert_children(node))
    return out


def formula_nodes(T) -> int:
    return sum(1 for p in T.premises() for _ in subterms(p.formula))


def run_step(text: str, step, tracer: Tracer, tally: Tally,
             rng: random.Random, pace: Pace):
    """One application through every stage; returns its resulting tasks.

    None means the script cannot go on: the transformation refused, or an
    operation failed. Failures are counted, never raised.
    """
    span = tracer.span
    pace.tick()
    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        with span("apply"):
            with span("sexpr.parse"):
                T = sexpr.task_from_sexpr(sexpr.loads(text))
            with span("task.well_typed"):
                typed = well_typed(T)
            if not typed:
                tally.fail(f"{step.kind}: the input task is ill-typed")
                return None
            try:
                with span("transforms.apply"):
                    tasks, s = step.apply(T)
                with span("cert.elaborate"):
                    k = elaborate(s, T)
            except (TransformError, CertError):
                tasks = None
            if tasks is not None:
                with span("checker.ccheck"):
                    report = ccheck(k, T)
                with span("task.alpha_equal"):
                    same = report.ok and task_list_alpha_equal(
                        report.derived_leaves, tasks)
        t1 = time.perf_counter()
    except Exception:
        tally.fail(f"{step.kind} apply raised\n{traceback.format_exc()}")
        return None
    tally.busy_s.append((t0, t1 - t0))
    tally.counts["task.formula_nodes"] += formula_nodes(T)
    tally.counts["task.premises"] += len(T.premises())
    try:
        problem = step.check(T, tasks)
    except Exception:
        problem = f"checking the outcome raised\n{traceback.format_exc()}"
    if problem is not None:
        tally.fail(f"{step.kind}: {problem}")
        return None
    if tasks is None:
        # a refusal costs busy time but is no application to take the
        # latency of
        tally.counts["transforms.rejected"] += 1
        return None
    if not same:
        tally.fail(f"{step.kind}: ccheck refused or derived other leaves")
        return None
    tally.apply_s.append((t0, t1 - t0))
    tally.counts["task.premises"] += sum(len(t.premises()) for t in tasks)
    rules = kernel_rules(k)
    tally.counts["cert.kernel_nodes"] += sum(rules.values())
    for rule, n in rules.items():
        tally.counts[f"checker.nodes.{rule}"] += n

    tally.attempted += 3
    try:
        t1 = time.perf_counter()
        with span("serialize"):
            with span("cert.dumps"):
                wire = cert_dumps(k)
        t2 = time.perf_counter()
        with span("verify"):
            with span("cert.loads"):
                k2 = cert_loads(wire)
            with span("checker.verify_ccheck"):
                report2 = ccheck(k2, T)
            with span("task.alpha_equal"):
                same = report2.ok and task_list_alpha_equal(
                    report2.derived_leaves, tasks)
        t3 = time.perf_counter()
        with span("export"):
            with span("lp_export.emit"):
                module = emit_module(T, report.derived_leaves, k)
        t4 = time.perf_counter()
    except Exception:
        tally.fail(f"{step.kind} serialize/verify/export raised\n"
                   f"{traceback.format_exc()}")
        return None
    if not same:
        tally.fail(f"{step.kind}: the loaded certificate did not verify")
        return None
    tally.verify_s.append((t2, t3 - t2))
    tally.export_s.append((t3, t4 - t3))
    tally.busy_s.append((t1, t4 - t1))
    tally.completed += 1
    tally.counts["cert_bytes"] += len(wire.encode("utf-8"))
    tally.counts["lp_bytes"] += len(module.encode("utf-8"))

    try:
        forged = forge(wire, rng)
        t5 = time.perf_counter()
        with span("checker.forged"):
            try:
                accepted = check_application(T, tasks, cert_loads(forged))
            except CertError:
                accepted = False
        t6 = time.perf_counter()
    except Exception:
        tally.fail(f"{step.kind} forging or its check raised\n"
                   f"{traceback.format_exc()}")
        return tasks
    if accepted:
        tally.fail(f"{step.kind}: a forged certificate was accepted")
    else:
        tally.forged_s.append((t5, t6 - t5))
        tally.counts["checker.forged_rejected"] += 1
    return tasks


def run_round(scripts, seed_key: str, tracer: Tracer, pace: Pace) -> Tally:
    """Every script of a round, in order; forgeries seeded per step."""
    tally = Tally()
    for i, script in enumerate(scripts):
        text = script.text
        for j, step in enumerate(script.steps):
            tracer.app += 1
            rng = random.Random(f"{seed_key}:{i}:{j}")
            tasks = run_step(text, step, tracer, tally, rng, pace)
            if tasks is None:
                break
            if j + 1 < len(script.steps):
                text = sexpr.dumps(sexpr.task_to_sexpr(tasks[step.feed]))
    return tally
