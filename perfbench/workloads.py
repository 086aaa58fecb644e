"""Seeded inputs for the three workloads, and the references that judge them.

A workload is a list of scripts per round. A script is the text of one
input task and the applications to run on it in order; each later
application takes one task the previous one produced, as a user chaining
`certforge transform` calls would. Every script carries its own
expectation, computed here and never by the code under test.

The round's contents are fixed by the seed. Input sizes are stratified
(fixed ladders and quotas, seeded contents and order) so that the latency
percentiles of two seeds estimate the same quantity.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass

from certforge import sexpr
from certforge import transforms as tr
from certforge.core import (
    PROP,
    BinOp,
    Bottom,
    IntLit,
    Not,
    TApp,
    Top,
    Var,
    conj,
    disj,
    ident,
    iff,
    imp,
    var,
)
from certforge.task import Premise, Task, gen_chain_task


@dataclass(frozen=True)
class Step:
    """One application: the transformation and what its outcome must be.

    `check(T, tasks)` gets the parsed input task and the resulting tasks,
    or None when the transformation refused, and returns an error message
    or None. `feed` is the index of the resulting task the next step of
    the script takes.
    """

    kind: str
    apply: Callable
    check: Callable
    feed: int = 0


@dataclass(frozen=True)
class Script:
    text: str
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[random.Random], list[Script]]
    warmup: Callable[[random.Random], list[Script]]


def task_text(T: Task) -> str:
    return sexpr.dumps(sexpr.task_to_sexpr(T))


# ---------------------------------------------------------------------------
# Truth-table oracle, independent of certforge's own validity oracle and of
# t_blast.

def _eval(t, env: dict) -> bool:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Top):
        return True
    if isinstance(t, Bottom):
        return False
    if isinstance(t, Not):
        return not _eval(t.body, env)
    if isinstance(t, BinOp):
        a, b = _eval(t.left, env), _eval(t.right, env)
        return {"and": a and b, "or": a or b, "imp": (not a) or b,
                "iff": a == b}[t.op]
    raise ValueError(f"not propositional: {t!r}")


def _atoms(t, out: set) -> set:
    if isinstance(t, Var):
        out.add(t.name)
    elif isinstance(t, Not):
        _atoms(t.body, out)
    elif isinstance(t, BinOp):
        _atoms(t.left, out)
        _atoms(t.right, out)
    return out


def valid(T: Task) -> bool:
    """Every assignment satisfying all hypotheses satisfies some goal."""
    atoms: set = set()
    for p in T.premises():
        _atoms(p.formula, atoms)
    order = sorted(atoms, key=str)
    for bits in itertools.product((False, True), repeat=len(order)):
        env = dict(zip(order, bits))
        if all(_eval(p.formula, env) for p in T.hyps) \
                and not any(_eval(p.formula, env) for p in T.goals):
            return False
    return True


# ---------------------------------------------------------------------------
# chain: gen_chain_task(n) closed by t_blast

# One round runs each n three times. The ladder is fixed so that the
# latency percentiles do not move with the seed; the seed orders the round
# and picks each certificate's forgery. An odd number of sizes with many
# samples each puts the median inside one size's samples, not between two.
# Past n=26 one application takes over half a second at this commit, too
# slow for a hundred samples per run.
CHAIN_LADDER = (10, 14, 18, 22, 26) * 3


def _closed(T, tasks):
    if tasks is None:
        return "t_blast refused a valid chain task"
    if tasks:
        return f"t_blast left {len(tasks)} task(s) open on a valid chain task"
    return None


def _chain_script(n: int) -> Script:
    return Script(task_text(gen_chain_task(n)),
                  (Step("blast", tr.t_blast, _closed),))


def _chain_rounds(rng: random.Random) -> list[Script]:
    ns = list(CHAIN_LADDER)
    rng.shuffle(ns)
    return [_chain_script(n) for n in ns]


CHAIN = Workload("chain", _chain_rounds, lambda rng: [_chain_script(8)])


# ---------------------------------------------------------------------------
# prop_mix: small random propositional tasks, one application each

_ATOMS = tuple(var(c) for c in "abcdef")
_SIG = tuple((a.name, PROP) for a in _ATOMS)


def _sized(rng: random.Random, n: int, depth: int):
    """A random formula of exactly n nodes and depth at most `depth`."""
    if n == 1:
        return rng.choice(_ATOMS + (Top(), Bottom()))
    below = 2 ** depth - 1          # most nodes a subformula can have
    splits = [k for k in range(1, n - 1) if k <= below and n - 1 - k <= below]
    if n - 1 <= below and (not splits or rng.random() < 0.2):
        return Not(_sized(rng, n - 1, depth - 1))
    k = rng.choice(splits)
    op = rng.choice((conj, disj, imp, iff))
    return op(_sized(rng, k, depth - 1), _sized(rng, n - 1 - k, depth - 1))


def _sized_task(rng: random.Random, n: int, depth: int) -> Task:
    """Six atoms, at most two hypotheses, one or two goals, n nodes in all."""
    most = 2 ** (depth + 1) - 1
    while True:
        h, g = rng.randrange(3), rng.randrange(1, 3)
        cuts = sorted(rng.sample(range(1, n), h + g - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        if all(p <= most for p in parts):
            break
    fs = [_sized(rng, p, depth) for p in parts]
    return Task(sig=_SIG,
                hyps=tuple(Premise(ident(f"H{i}"), f)
                           for i, f in enumerate(fs[:h])),
                goals=tuple(Premise(ident(f"G{i}"), f)
                            for i, f in enumerate(fs[h:], 1)))


def _top(p: Premise) -> str:
    f = p.formula
    if isinstance(f, BinOp):
        return f.op
    return type(f).__name__


# Top connective a premise needs, on the goal side and the hypothesis side.
_SHAPE = {"split": ("and", "or"), "destruct": ("or", "and"),
          "trivial": ("Top", "Bottom")}


def _targets(T: Task, kind: str) -> tuple[list, list]:
    """Arguments the kind's precondition accepts, and ones it refuses."""
    if kind == "construct":
        return ([(a.name, b.name) for side in (T.hyps, T.goals)
                 for a, b in itertools.combinations(side, 2)],
                [(h.name, g.name) for h in T.hyps for g in T.goals])
    if kind == "assert":
        # a fresh name, or one a premise already has
        return [None], [p.name for p in T.premises()]
    goal_top, hyp_top = _SHAPE[kind]
    fit = [p.name for p in T.goals if _top(p) == goal_top] \
        + [p.name for p in T.hyps if _top(p) == hyp_top]
    return fit, [p.name for p in T.premises() if p.name not in fit]


def _precondition(fit: bool):
    """Arguments that fit must be accepted, soundly; others refused."""
    def check(T, tasks):
        if tasks is None:
            return "refused arguments that fit its precondition" \
                if fit else None
        if not fit:
            return "accepted arguments that do not fit its precondition"
        if all(valid(t) for t in tasks) and not valid(T):
            return "valid resulting tasks from an invalid input"
        return None
    return check


def _blast_check(T, tasks):
    if valid(T):
        if tasks is None:
            return "t_blast refused a valid task"
        if tasks:
            return "t_blast left a valid task open"
    elif tasks is not None:
        return "t_blast closed or reduced an invalid task"
    return None


def _prop_application(rng: random.Random, kind: str, target,
                      fit: bool) -> Step:
    fresh = (ident(f"N{i}") for i in itertools.count(1))
    if kind == "blast":
        return Step(kind, tr.t_blast, _blast_check)
    check = _precondition(fit)
    if kind == "split":
        return Step(kind, lambda T: tr.t_split(T, target), check)
    if kind == "destruct":
        A, B = next(fresh), next(fresh)
        return Step(kind, lambda T: tr.t_destruct(T, target, A, B), check)
    if kind == "construct":
        C = next(fresh)
        return Step(kind, lambda T: tr.t_construct(T, *target, C), check)
    if kind == "trivial":
        return Step(kind, lambda T: tr.t_trivial(T, target), check)
    if kind == "assert":
        A, f = target or next(fresh), _sized(rng, 7, 3)
        return Step(kind, lambda T: tr.t_assert(T, A, f), check)
    # compose: split, then assert a fresh formula on each resulting task
    extra = [(next(fresh), _sized(rng, 3, 2)) for _ in range(2)]
    composed = tr.compose_transforms(
        tr.transform(tr.t_split, target),
        lambda i, t: tr.transform(tr.t_assert, *extra[i]))
    return Step(kind, composed.apply, check)


PROP_KINDS = ("split", "destruct", "construct", "trivial", "assert",
              "compose", "blast")
# Per round and kind, two tasks of each size: the sizes (formula nodes) are
# fixed so that two seeds draw the same mix of small and large tasks. Every
# fourth application gets arguments its precondition refuses; for blast,
# those are the invalid tasks.
PROP_SIZES = tuple(range(6, 54, 3)) * 2
# t_blast's tableau is exponential: on random depth-5 tasks one application
# took over 30 s at this commit; on small depth-3 tasks it stays in
# milliseconds.
BLAST_SIZES, BLAST_DEPTH = tuple(range(4, 12)) * 4, 3


def _prop_script(rng: random.Random, kind: str, size: int,
                 fit: bool) -> Script:
    while True:
        T = _sized_task(rng, size, BLAST_DEPTH if kind == "blast" else 5)
        if kind == "blast":
            if valid(T) != fit:
                continue
            target = None
        else:
            options = _targets(T, "split" if kind == "compose" else kind)
            if not options[not fit]:
                continue
            target = rng.choice(options[not fit])
        return Script(task_text(T),
                      (_prop_application(rng, kind, target, fit),))


def _prop_rounds(rng: random.Random) -> list[Script]:
    out = [_prop_script(rng, kind, size, j % 4 != 3)
           for kind in PROP_KINDS
           for j, size in enumerate(BLAST_SIZES if kind == "blast"
                                    else PROP_SIZES)]
    rng.shuffle(out)
    return out


def _prop_warmup(rng: random.Random) -> list[Script]:
    return [_prop_script(rng, kind, 9, True) for kind in PROP_KINDS]


PROP_MIX = Workload("prop_mix", _prop_rounds, _prop_warmup)


# ---------------------------------------------------------------------------
# fol: wide first-order tasks, one scripted sequence each

# One round runs each width three times; the width is the number of extra
# quantified hypotheses that every kernel step carries along unchanged. As
# for chain, few sizes with many samples each keep the percentiles steady.
FOL_WIDTHS = (4, 7, 10, 13, 16) * 3

_FOL_EXTRA = (
    "(forall (z (int)) (imp (<= z {a}) (p (+ (* z {b}) {c}))))",
    "(forall (z (int)) (exists (v (int)) (= (f v) (+ z {a}))))",
    "(pi b (forall (u b) (q (wrap u))))",
    "(forall (e (elem)) (imp (q (wrap e)) (p (f {a}))))",
    "(forall (z (int)) (iff (p z) (p (- z {a}))))",
    "(forall (s (box (elem))) (imp (q s) (exists (k (int)) (> k {b}))))",
)


def _fol_text(rng: random.Random, width: int, k: list[int]) -> str:
    # the same templates for every seed at one width; the seed picks
    # their order and constants
    shapes = [_FOL_EXTRA[j % len(_FOL_EXTRA)] for j in range(width)]
    rng.shuffle(shapes)
    extra = " ".join(
        f"(W{j} " + shape.format(a=rng.randrange(-20, 20),
                                 b=rng.randrange(1, 9),
                                 c=rng.randrange(0, 30)) + ")"
        for j, shape in enumerate(shapes))
    return f"""(task (types (box 1) (elem 0))
  (sig (f (-> (int) (int))) (p (-> (int) prop))
       (wrap (-> a (box a))) (q (-> (box a) prop))
       (e0 (elem)) (c0 (int)) (c1 (int)))
  (hyps
    (Hpoly (pi a (forall (x a) (q (wrap x)))))
    (Hall (forall (k (int)) (imp (>= k c0) (p (+ k {k[0]})))))
    (Heq (forall (y (int)) (imp (>= y {k[1]}) (= (f y) (+ y {k[2]})))))
    {extra})
  (goals (G (forall (n (int)) (p (f n))))))"""


def _count(want: int):
    def check(T, tasks):
        if tasks is None:
            return "the scripted step was refused"
        if len(tasks) != want:
            return f"expected {want} resulting task(s), got {len(tasks)}"
        return None
    return check


def _opened(T: Task):
    """The int variable t_intro put in the signature."""
    return T.sig[-1][0]


def _goals(want):
    """The last goal of each resulting task, as s-expressions.

    `want(n)` gives them for n, the variable the intro step opened.
    """
    def check(T, tasks):
        if tasks is None:
            return "the scripted step was refused"
        got = [sexpr.term_to_sexpr(t.goals[-1].formula) for t in tasks]
        n = str(_opened(tasks[0]))
        if got != want(n):
            return f"expected goals {want(n)}, got {got}"
        return None
    return check


def _fol_script(rng: random.Random, width: int) -> Script:
    k = [rng.randrange(1, 50) for _ in range(3)]
    text = _fol_text(rng, width, k)
    G, inst = ident("G"), sexpr.term_from_sexpr(
        sexpr.loads(f"(+ c1 {rng.randrange(0, 9)})"))
    bound = IntLit(rng.randrange(-3, 4))
    steps = (
        Step("intro", lambda T: tr.t_intro(T, G),
             _goals(lambda n: [["p", ["f", n]]])),
        Step("inst_type", lambda T: tr.t_inst_type(
            T, ident("Hpoly"), TApp(ident("elem"), ())), _count(1)),
        Step("instantiate", lambda T: tr.t_instantiate(
            T, ident("Hall"), inst), _count(1)),
        # the condition becomes task 0; the rewritten goal is task 1
        Step("rewrite", lambda T: tr.t_rewrite(T, ident("Heq"), G),
             _goals(lambda n: [[">=", n, k[1]], ["p", ["+", n, k[2]]]]),
             feed=1),
        Step("induction", lambda T: tr.t_induction(
            T, G, _opened(T), bound), _count(2)),
    )
    return Script(text, steps)


def _fol_rounds(rng: random.Random) -> list[Script]:
    widths = list(FOL_WIDTHS)
    rng.shuffle(widths)
    return [_fol_script(rng, w) for w in widths]


FOL = Workload("fol", _fol_rounds, lambda rng: [_fol_script(rng, 4)])

WORKLOADS = {w.name: w for w in (CHAIN, PROP_MIX, FOL)}
