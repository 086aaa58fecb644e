"""Kernel certificate replay.

step() applies one kernel rule to a well-typed task and either returns the
child tasks or raises CheckError naming the violated side condition.
ccheck() and the λΠ exporter both replay through derive(), the one walker:
it judges the initial task with well_typed, then walks the certificate with
step(), which also checks each KHole's stored task against the task at hand.

Every task a rule produces is judged by well_typed on the spot, one typing
rule for all children. well_typed is incremental through the task's typing
context: a child that keeps its parent's declarations (edited by
Task.replace/append) shares the parent's context, where the parent's
premise formulas, and every operand along their negation/connective spines,
are already recorded as of type prop for as long as any task holds the
context: same declarations, same judgment. So a
formula is typed only if the rule built it anew (an asserted formula, an
instantiated body, a rewritten premise) or it is KIntroImp's: a rule leaves
the matched premise's operands, found recorded, but KIntroImp the node's.
Those are the premise's own objects when the certificate was elaborated on
the task, or loaded while the task it is checked against, read from text,
was alive (sexpr shares what it reads), so they too are found recorded,
and the next node matches them by identity, not by a walk. A
child whose declarations grew by one name keeps only the judgments the name
cannot change: a kept premise that mentions it is typechecked again (a
binder may not shadow a declared symbol; see well_typed). By induction from
the initial task, every task of the replay is well-typed, so a defect in the
rule logic fails at the offending node instead of as a bogus derived leaf.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from . import cert
from .core import (
    INT,
    RESERVED,
    Bottom,
    Exists,
    Forall,
    Ident,
    Lam,
    Not,
    PiType,
    TApp,
    Term,
    Top,
    TypingError,
    Var,
    all_idents,
    alpha_equal,
    annotate,
    app,
    check_type,
    conj,
    disj,
    eq,
    free_vars,
    fresh_ident,
    iff,
    imp,
    subst_term,
    subst_type,
    type_equal,
    var,
)
from .task import (Premise, Task, TaskError, ill_typed_reason,
                   task_alpha_equal, task_list_alpha_equal, well_typed)


@dataclass(frozen=True, slots=True)
class CheckFailure:
    rule: str
    path: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.rule} at {list(self.path)}: {self.message}"


@dataclass(frozen=True, slots=True)
class CheckReport:
    ok: bool
    derived_leaves: list[Task]
    failure: CheckFailure | None = None


class CheckError(Exception):
    def __init__(self, failure: CheckFailure):
        super().__init__(str(failure))
        self.failure = failure


def _apply_context(ctx: Lam, arg: Term) -> Term:
    """The t[u] notation of the quantifier, rewrite and induction rules:
    ctx = lam x. t applied to u is t[x -> u]. Every caller has checked
    that ctx is a lambda abstraction."""
    return subst_term(ctx.body, ctx.var, arg)


class _Refused(Exception):
    """A side condition of the rule at hand failed; step names the node."""


def _find(T: Task, name: Ident, goal: bool | None) -> tuple[bool, int, Premise]:
    found = T.find(name)
    if found is None:
        raise _Refused(f"no premise named {name}")
    if goal is not None and found[0] != goal:
        raise _Refused(f"{name} is not a {'goal' if goal else 'hypothesis'}")
    return found


def _fresh_premise(T: Task, name: Ident) -> None:
    if name in T.premise_names():
        raise _Refused(f"premise name {name} is already used")


def _match(actual: Term, expected: Term, what: str) -> None:
    if not alpha_equal(actual, expected):
        raise _Refused(f"{what} does not match the task")


def _quantified(T: Task, node, make) -> tuple[bool, int]:
    """The side and index of the premise a quantifier rule opens: node's
    predicate is a lambda over its ground carried type, and the premise
    reads make(var, type, body) of it."""
    if not isinstance(node.pred, Lam):
        raise _Refused("the predicate is not a lambda abstraction")
    if not type_equal(node.pred.ty, node.ty):
        raise _Refused("the predicate's annotation differs from the carried type")
    check_type(T.types_map(), node.ty, allow_vars=False)
    side, idx, prem = _find(T, node.name, node.goal)
    _match(prem.formula, make(node.pred.var, node.ty, node.pred.body),
           f"premise {node.name}")
    return side, idx


def step(T: Task, node: cert.KernelCert, path: tuple[int, ...]) -> list[Task]:
    """One rule application: the tasks the node's children must discharge.

    T must be well-typed (see well_typed); ccheck establishes this for the
    initial task and step preserves it for every child it returns. Every
    refusal raises CheckError with the rule, the path and the message.
    """
    try:
        children = _apply(T, node)
        if not all(map(well_typed, children)):
            raise _Refused("produced an ill-typed task: "
                           + ill_typed_reason(children))
    except (_Refused, TaskError, TypingError) as e:
        raise CheckError(CheckFailure(type(node).__name__, path, str(e))) from e
    return children


def _apply(T: Task, node: cert.KernelCert) -> list[Task]:
    if isinstance(node, cert.KHole):
        # a hole closes the task it stores, which must be the task at hand
        if not task_alpha_equal(node.task, T):
            raise _Refused("stored task differs from the derived one")
        return []

    if isinstance(node, cert.KTrivial):
        _, _, prem = _find(T, node.name, node.goal)
        want = Top if node.goal else Bottom
        if not isinstance(prem.formula, want):
            raise _Refused(f"{node.name} is not {'truth' if node.goal else 'falsity'}")
        return []

    if isinstance(node, cert.KAxiom):
        _, _, hyp = _find(T, node.hyp, False)
        _, _, goal = _find(T, node.goal, True)
        _match(hyp.formula, node.formula, f"hypothesis {node.hyp}")
        _match(goal.formula, node.formula, f"goal {node.goal}")
        return []

    if isinstance(node, cert.KEqRefl):
        _, _, goal = _find(T, node.name, True)
        _match(goal.formula, eq(node.term, node.term), f"goal {node.name}")
        return []

    if isinstance(node, cert.KAssert):
        _fresh_premise(T, node.name)
        p = Premise(node.name, node.formula)
        goal_side = T.append(True, p)
        if not well_typed(goal_side):
            ty = annotate(T.types_map(), T.sig_map(), node.formula, None).type
            raise _Refused(f"asserted formula has type {ty}, not prop")
        return [goal_side, T.append(False, p)]

    if isinstance(node, cert.KSplit):
        side, idx, prem = _find(T, node.name, node.goal)
        make = conj if node.goal else disj
        _match(prem.formula, make(node.left, node.right), f"premise {node.name}")
        return [T.replace(side, idx, (Premise(node.name, prem.formula.left),)),
                T.replace(side, idx, (Premise(node.name, prem.formula.right),))]

    if isinstance(node, cert.KDestruct):
        side, idx, prem = _find(T, node.name, node.goal)
        make = disj if node.goal else conj
        _match(prem.formula, make(node.left, node.right), f"premise {node.name}")
        if node.left_name == node.right_name:
            raise _Refused("the two part names coincide")
        _fresh_premise(T, node.left_name)
        _fresh_premise(T, node.right_name)
        return [T.replace(side, idx, (Premise(node.left_name, prem.formula.left),
                                      Premise(node.right_name, prem.formula.right)))]

    if isinstance(node, cert.KClear):
        side, idx, prem = _find(T, node.name, node.goal)
        _match(prem.formula, node.formula, f"premise {node.name}")
        return [T.replace(side, idx, ())]

    if isinstance(node, cert.KSwapNeg):
        side, idx, prem = _find(T, node.name, node.goal)
        _match(prem.formula, Not(node.formula), f"premise {node.name}")
        moved = Premise(node.name, prem.formula.body)
        return [T.replace(side, idx, ()).append(not side, moved)]

    if isinstance(node, cert.KIntroImp):
        _, idx, prem = _find(T, node.name, True)
        _match(prem.formula, imp(node.left, node.right), f"goal {node.name}")
        _fresh_premise(T, node.hyp_name)
        t = T.replace(True, idx, (Premise(node.name, node.right),))
        return [t.append(False, Premise(node.hyp_name, node.left))]

    if isinstance(node, cert.KSplitImp):
        _, idx, prem = _find(T, node.name, False)
        _match(prem.formula, imp(node.left, node.right),
               f"hypothesis {node.name}")
        _fresh_premise(T, node.goal_name)
        t_side = T.replace(False, idx, ()).append(
            True, Premise(node.goal_name, prem.formula.left))
        t_rest = T.replace(False, idx, (Premise(node.name, prem.formula.right),))
        return [t_side, t_rest]

    if isinstance(node, cert.KUnfoldIff):
        side, idx, prem = _find(T, node.name, node.goal)
        _match(prem.formula, iff(node.left, node.right), f"premise {node.name}")
        unfolded = conj(imp(node.left, node.right), imp(node.right, node.left))
        return [T.replace(side, idx, (Premise(node.name, unfolded),))]

    if isinstance(node, cert.KRevert):
        _, hidx, hyp = _find(T, node.hyp, False)
        _, gidx, goal = _find(T, node.goal, True)
        _match(hyp.formula, node.hyp_formula, f"hypothesis {node.hyp}")
        _match(goal.formula, node.goal_formula, f"goal {node.goal}")
        merged = Premise(node.goal, imp(node.hyp_formula, node.goal_formula))
        return [T.replace(False, hidx, ()).replace(True, gidx, (merged,))]

    if isinstance(node, cert.KIntroQuant):
        side, idx = _quantified(T, node, Forall if node.goal else Exists)
        y = node.fresh
        if y.name in RESERVED:
            raise _Refused(f"{y} is interpreted and reserved")
        if y in T.formula_idents():
            raise _Refused(f"{y} is not fresh for the task")
        opened = Premise(node.name, _apply_context(node.pred, Var(y)))
        return [T.extend_sig(y, node.ty).replace(side, idx, (opened,))]

    if isinstance(node, cert.KInstQuant):
        side, idx = _quantified(T, node, Exists if node.goal else Forall)
        _fresh_premise(T, node.inst_name)
        annotate(T.types_map(), T.sig_map(), node.witness, node.ty)
        inst = Premise(node.inst_name, _apply_context(node.pred, node.witness))
        return [T.append(side, inst)]

    if isinstance(node, cert.KIntroType):
        _, idx, prem = _find(T, node.name, True)
        if not isinstance(node.formula, PiType):
            raise _Refused("the carried formula is not type-quantified")
        _match(prem.formula, node.formula, f"goal {node.name}")
        if node.iota in T.types_map() or node.iota.name in RESERVED \
                or node.iota.name == "prop":
            raise _Refused(f"type name {node.iota} is not fresh")
        fixed = subst_type(node.formula.body, node.formula.var,
                           TApp(node.iota, ()))
        t = T.extend_types(node.iota, 0)
        return [t.replace(True, idx, (Premise(node.name, fixed),))]

    if isinstance(node, cert.KInstType):
        _, idx, prem = _find(T, node.name, False)
        if not isinstance(node.formula, PiType):
            raise _Refused("the carried formula is not type-quantified")
        _match(prem.formula, node.formula, f"hypothesis {node.name}")
        check_type(T.types_map(), node.ty, allow_vars=False)
        _fresh_premise(T, node.inst_name)
        inst = subst_type(node.formula.body, node.formula.var, node.ty)
        return [T.append(False, Premise(node.inst_name, inst))]

    if isinstance(node, cert.KRewrite):
        _, _, heq = _find(T, node.eq_name, False)
        _match(heq.formula, eq(node.left, node.right),
               f"hypothesis {node.eq_name}")
        if not isinstance(node.context, Lam):
            raise _Refused("the rewriting context is not a lambda abstraction")
        check_type(T.types_map(), node.context.ty, allow_vars=False)
        annotate(T.types_map(), T.sig_map(), node.left, node.context.ty)
        annotate(T.types_map(), T.sig_map(), node.right, node.context.ty)
        side, idx, prem = _find(T, node.name, node.goal)
        _match(prem.formula, _apply_context(node.context, node.left),
               f"premise {node.name}")
        rewritten = Premise(node.name,
                            _apply_context(node.context, node.right))
        return [T.replace(side, idx, (rewritten,))]

    if isinstance(node, cert.KInduction):
        i = node.var
        if T.sig_map().get(i) != INT:
            raise _Refused(f"{i} is not declared with type int")
        annotate(T.types_map(), T.sig_map(), node.bound, INT)
        if i in free_vars(node.bound):
            raise _Refused(f"the bound mentions {i}")
        if not isinstance(node.context, Lam):
            raise _Refused("the induction context is not a lambda abstraction")
        if node.context.ty != INT:
            raise _Refused("the induction context does not abstract an int")
        if i in free_vars(node.context):
            raise _Refused(f"the context must abstract every occurrence of {i}")
        _, _, goal = _find(T, node.goal_name, True)
        _match(goal.formula, _apply_context(node.context, Var(i)),
               f"goal {node.goal_name}")
        for p in T.premises():
            if p.name != node.goal_name and i in free_vars(p.formula):
                raise _Refused(f"{i} occurs free in premise {p.name}")
        if node.hyp_name == node.rec_name:
            raise _Refused("the two hypothesis names coincide")
        _fresh_premise(T, node.hyp_name)
        _fresh_premise(T, node.rec_name)
        base_t = T.append(False, Premise(
            node.hyp_name, app(var("<="), Var(i), node.bound)))
        m = fresh_ident("n", all_idents(node.context.body)
                        | {i, node.context.var})
        below = subst_term(node.context.body, node.context.var, Var(m))
        rec_f = Forall(m, INT, imp(app(var("<"), Var(m), Var(i)), below))
        rec_t = T.append(False, Premise(
            node.hyp_name, app(var(">"), Var(i), node.bound)))
        rec_t = rec_t.append(False, Premise(node.rec_name, rec_f))
        return [base_t, rec_t]

    raise _Refused(f"unknown kernel certificate {type(node).__name__}")


def derive(c: cert.KernelCert, T: Task) -> Iterator[
        tuple[tuple[int, ...], cert.KernelCert, Task]]:
    """Replay c against T: each node with its path and the task it applies
    to, depth-first, left to right, so the KHole nodes come in leaf order.
    Raises CheckError if T is not well-typed, or at the first node that fails.
    """
    if not well_typed(T):
        raise CheckError(CheckFailure(
            type(c).__name__, (), "the initial task is not well-typed"))
    todo: list[tuple[cert.KernelCert, Task, tuple[int, ...]]] = [(c, T, ())]
    while todo:
        node, task, path = todo.pop()
        tasks = step(task, node, path)
        children = cert.cert_children(node)
        if len(children) != len(tasks):
            raise CheckError(CheckFailure(
                type(node).__name__, path,
                f"{len(children)} subcertificates for {len(tasks)} tasks"))
        for i in range(len(children) - 1, -1, -1):
            todo.append((children[i], tasks[i], path + (i,)))
        yield path, node, task


def ccheck(c: cert.KernelCert, T: Task) -> CheckReport:
    """Replay c against T; collect the tasks at the holes, in order."""
    try:
        leaves = [task for _, node, task in derive(c, T)
                  if isinstance(node, cert.KHole)]
    except CheckError as e:
        return CheckReport(False, [], e.failure)
    return CheckReport(True, leaves, None)


def check_application(T: Task, L, c: cert.KernelCert) -> bool:
    """Does c certify that transforming T produced exactly the tasks L?"""
    report = ccheck(c, T)
    return report.ok and task_list_alpha_equal(report.derived_leaves, list(L))
