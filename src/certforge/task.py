"""Proof tasks: sequents I | Sigma | Gamma |- Delta with named premises.

Gamma and Delta are ordered so serialization and export are deterministic;
set semantics is recovered by name-keyed lookup wherever equality matters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from .core import (
    PROP,
    RESERVED,
    App,
    BinOp,
    Exists,
    Forall,
    Ident,
    Lam,
    Not,
    PiType,
    TVar,
    Term,
    Type,
    Typing,
    TypingError,
    Var,
    all_idents,
    alpha_equal,
    annotate,
    check_signature,
    free_vars,
    ident,
    imp,
    subst_in_type,
    type_heads,
    type_vars,
    var,
)


class TaskError(Exception):
    """Malformed task: duplicate or reserved declarations, duplicate premise names."""


@dataclass(frozen=True, slots=True)
class Premise:
    name: Ident
    formula: Term


class _TypingContext:
    """Typing facts about one (types, sig) pair of tuples.

    Every task derived by Task.replace/append keeps its parent's tuples and
    shares its parent's context, so a fact recorded here holds for all of
    them: same tuples, same judgment. The memo lives as long as the context.
    """

    __slots__ = ("types_map", "sig_map", "sig_checked", "props", "paths")

    def __init__(self, types_map: dict[Ident, int],
                 sig_map: dict[Ident, Type]) -> None:
        self.types_map: Mapping[Ident, int] = MappingProxyType(types_map)
        self.sig_map: Mapping[Ident, Type] = MappingProxyType(sig_map)
        self.sig_checked = False
        # id of a formula judged prop -> the premise it was judged as, and
        # the Typing annotate gave that premise: the premise is the formula
        # itself, or the one along whose connective spine it is an operand
        # (see well_typed); holding the premise keeps the ids of its
        # subterms from being reused while the context lives
        self.props: dict[int, tuple[Term, Typing]] = {}
        # id of a formula in props -> the Typing it was judged under and its
        # path there (see typing_of), filled one premise spine at a time
        self.paths: dict[int, tuple[Typing, tuple[int, ...]]] = {}


@dataclass(frozen=True, slots=True)
class Task:
    types: tuple[tuple[Ident, int], ...] = ()
    sig: tuple[tuple[Ident, Type], ...] = ()
    hyps: tuple[Premise, ...] = ()
    goals: tuple[Premise, ...] = ()
    _ctx: _TypingContext = field(init=False, repr=False, compare=False)
    _names: frozenset[Ident] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        types: dict[Ident, int] = {}
        for name, arity in self.types:
            if name.name in RESERVED:
                raise TaskError(f"type symbol {name} is interpreted and reserved")
            if name in types:
                raise TaskError(f"type symbol {name} declared twice")
            if arity < 0:
                raise TaskError(f"negative arity for {name}")
            types[name] = arity
        sig: dict[Ident, Type] = {}
        for name, ty in self.sig:
            if name.name in RESERVED:
                raise TaskError(f"symbol {name} is interpreted and reserved")
            if name in sig:
                raise TaskError(f"symbol {name} declared twice")
            sig[name] = ty
        names: set[Ident] = set()
        for p in itertools.chain(self.hyps, self.goals):
            if p.name in names:
                raise TaskError(f"premise name {p.name} used twice")
            names.add(p.name)
        object.__setattr__(self, "_ctx", _TypingContext(types, sig))
        object.__setattr__(self, "_names", frozenset(names))

    # -- lookups ------------------------------------------------------------

    def types_map(self) -> Mapping[Ident, int]:
        """The type signature as a read-only mapping."""
        return self._ctx.types_map

    def sig_map(self) -> Mapping[Ident, Type]:
        """The signature as a read-only mapping."""
        return self._ctx.sig_map

    def premises(self) -> tuple[Premise, ...]:
        return self.hyps + self.goals

    def premise_names(self) -> frozenset[Ident]:
        return self._names

    def find(self, name: Ident | str) -> tuple[bool, int, Premise] | None:
        """Locate a premise by name; the bool is True for a goal."""
        name = ident(name)
        for i, p in enumerate(self.hyps):
            if p.name == name:
                return False, i, p
        for i, p in enumerate(self.goals):
            if p.name == name:
                return True, i, p
        return None

    # -- functional edits (used by replay and by the transformations) -------
    #
    # replace and append keep this task's types and sig tuples, so the task
    # they build shares this task's typing context (see well_typed) and only
    # the premise names they add are checked. extend_sig and extend_types
    # change a tuple: they build the task with Task(...), which validates it
    # in full and gives it a fresh context.

    def replace(self, is_goal: bool, index: int, new: tuple[Premise, ...]) -> Task:
        """Splice `new` in place of the premise at `index` on the given side."""
        side = self.goals if is_goal else self.hyps
        spliced = side[:index] + new + side[index + 1:]
        names = self._names - {side[index].name}
        if is_goal:
            return self._derive(self.hyps, spliced, names, new)
        return self._derive(spliced, self.goals, names, new)

    def append(self, is_goal: bool, p: Premise) -> Task:
        if is_goal:
            return self._derive(self.hyps, self.goals + (p,), self._names, (p,))
        return self._derive(self.hyps + (p,), self.goals, self._names, (p,))

    def _derive(self, hyps: tuple[Premise, ...], goals: tuple[Premise, ...],
                names: frozenset[Ident], added: tuple[Premise, ...]) -> Task:
        """This task's declarations over new premises: `names` are those of
        the premises kept from this task, `added` the premises new to it."""
        for p in added:
            if p.name in names:
                raise TaskError(f"premise name {p.name} used twice")
            names = names | {p.name}
        out = object.__new__(Task)
        for attr, value in (("types", self.types), ("sig", self.sig),
                            ("hyps", hyps), ("goals", goals),
                            ("_ctx", self._ctx), ("_names", names)):
            object.__setattr__(out, attr, value)
        return out

    def extend_sig(self, name: Ident, ty: Type) -> Task:
        return replace(self, sig=self.sig + ((name, ty),))

    def extend_types(self, name: Ident, arity: int) -> Task:
        return replace(self, types=self.types + ((name, arity),))

    # -- ident pools ---------------------------------------------------------

    def formula_idents(self) -> frozenset[Ident]:
        """Free variables of every premise formula plus the signature domain.

        This is the pool the freshness side conditions check against; premise
        names live in their own namespace.
        """
        out: set[Ident] = set(name for name, _ in self.sig)
        for p in self.premises():
            out |= free_vars(p.formula)
        return frozenset(out)

    def every_ident(self) -> frozenset[Ident]:
        """Everything in sight, for generating names that collide with nothing."""
        out: set[Ident] = set(name for name, _ in self.types)
        out |= set(name for name, _ in self.sig)
        out |= self.premise_names()
        for p in self.premises():
            out |= all_idents(p.formula)
        return frozenset(out)


def well_typed(T: Task) -> bool:
    """True iff Sigma is well-formed under I and every premise has type prop.

    Each premise is judged against prop (annotate with expected=PROP), so a
    premise such as `choose` with choose : 'a is prop at the instance prop,
    not ill-typed at the defaulted instance int.

    Incremental through T's typing context, which the tasks replace and
    append derive share since they keep the same types and sig tuples: the
    signature is checked once per context, and each formula object is typed
    once per context. Same tuples, same judgment; the memo lives as long as
    the context. A task built by Task(...), extend_sig or extend_types has
    a fresh context and is judged in full.

    A premise judged prop keeps the Typing annotate gave it, and records
    every operand along its Not/BinOp spine, stopping at binders and type
    quantifiers, as judged with it; nothing is built per operand. Such an
    operand is prop under the same declarations with no binder above it,
    and the whole formula shares no metavariable between operands, so
    typing the operand alone against prop picks the instances typing the
    whole picks: the ones the premise's Typing holds at the operand's
    path. A rule that leaves an operand as a new premise (KIntroImp,
    KSplit, KDestruct, ...) finds it recorded, and typing_of answers how
    any recorded formula was typed, so no caller types it again.
    """
    ctx = T._ctx
    I, sig = ctx.types_map, ctx.sig_map
    if not ctx.sig_checked:
        try:
            check_signature(I, sig)
        except TypingError:
            return False
        ctx.sig_checked = True
    for p in T.premises():
        f = p.formula
        if id(f) in ctx.props:
            continue
        try:
            judged = (f, annotate(I, sig, f, PROP))
        except TypingError:
            return False
        todo = [f]
        while todo:
            g = todo.pop()
            if id(g) not in ctx.props:
                ctx.props[id(g)] = judged
                if isinstance(g, Not):
                    todo.append(g.body)
                elif isinstance(g, BinOp):
                    todo += (g.left, g.right)
    return True


def typing_of(T: Task, f: Term) -> tuple[Typing, tuple[int, ...]] | None:
    """The Typing under which T's typing context judged f prop, and f's
    path in the premise it was judged as; None if the context never did.

    f is judged when well_typed judged it as a premise or recorded it as
    an operand on a premise's Not/BinOp spine (see well_typed): its
    instances are those the Typing holds at the path. The first question
    about a premise's spine walks that spine once and keeps every
    operand's path in the context.
    """
    ctx = T._ctx
    if id(f) not in ctx.paths:
        if id(f) not in ctx.props:
            return None
        premise, info = ctx.props[id(f)]
        todo: list[tuple[Term, tuple[int, ...]]] = [(premise, ())]
        while todo:
            g, path = todo.pop()
            if id(g) not in ctx.paths:
                ctx.paths[id(g)] = (info, path)
                if isinstance(g, Not):
                    todo.append((g.body, path + (0,)))
                elif isinstance(g, BinOp):
                    todo += ((g.left, path + (0,)), (g.right, path + (1,)))
    return ctx.paths[id(f)]


# ---------------------------------------------------------------------------
# Alpha-equality of whole tasks

def _scheme_canon(ty: Type) -> Type:
    """Rename type variables in first-occurrence order for comparison."""
    return subst_in_type(ty, {v: TVar(Ident("a", i + 1))
                              for i, v in enumerate(type_vars(ty))})


def used_declarations(T: Task) -> tuple[tuple[tuple[Ident, int], ...],
                                         tuple[tuple[Ident, Type], ...]]:
    """The (types, sig) entries T's premises use, in declaration order.

    A symbol is used when it occurs free in some premise; a type symbol
    when it heads a type in the scheme of a used symbol or in a binder
    annotation of some premise.
    """
    used: set[Ident] = set()
    heads: set[Ident] = set()
    # one explicit-stack walk of the premises; an Ident on the stack closes
    # the binder of that name, and bound counts the open binders of each
    bound: dict[Ident, int] = {}
    todo: list[Term | Ident] = [p.formula for p in T.premises()]
    while todo:
        t = todo.pop()
        if isinstance(t, Ident):
            bound[t] -= 1
        elif isinstance(t, Var):
            if not bound.get(t.name):
                used.add(t.name)
        elif isinstance(t, (Not, PiType)):
            todo.append(t.body)
        elif isinstance(t, BinOp):
            todo += (t.left, t.right)
        elif isinstance(t, App):
            todo += (t.fn, t.arg)
        elif isinstance(t, (Lam, Exists, Forall)):
            heads |= type_heads(t.ty)
            bound[t.var] = bound.get(t.var, 0) + 1
            todo += (t.var, t.body)
    ssyms = tuple(e for e in T.sig if e[0] in used)
    for _, scheme in ssyms:
        heads |= type_heads(scheme)
    return tuple(e for e in T.types if e[0] in heads), ssyms


def task_alpha_equal(T1: Task, T2: Task) -> bool:
    """Name-keyed, support-based task equality.

    Premises must match by name with alpha-equal formulas (order within a
    side is irrelevant); signatures and type signatures must agree on the
    symbols the formulas actually use. Unused declarations are ignored.
    """
    h1 = {p.name: p.formula for p in T1.hyps}
    h2 = {p.name: p.formula for p in T2.hyps}
    g1 = {p.name: p.formula for p in T1.goals}
    g2 = {p.name: p.formula for p in T2.goals}
    if set(h1) != set(h2) or set(g1) != set(g2):
        return False
    for name in h1:
        if not alpha_equal(h1[name], h2[name]):
            return False
    for name in g1:
        if not alpha_equal(g1[name], g2[name]):
            return False
    # alpha-equal premises use the same declarations of equal tuples
    if T1.types == T2.types and T1.sig == T2.sig:
        return True
    types1, sig1 = used_declarations(T1)
    types2, sig2 = used_declarations(T2)
    if dict(types1) != dict(types2):
        return False
    s1, s2 = dict(sig1), dict(sig2)
    return s1.keys() == s2.keys() and all(
        _scheme_canon(s1[name]) == _scheme_canon(s2[name]) for name in s1)


def task_list_alpha_equal(L1: list[Task] | tuple[Task, ...], L2: list[Task] | tuple[Task, ...]) -> bool:
    return len(L1) == len(L2) and all(task_alpha_equal(a, b) for a, b in zip(L1, L2))


# ---------------------------------------------------------------------------
# Benchmark family

def gen_chain_task(n: int) -> Task:
    """The n-variable implication chain: |- p1 => (p1=>p2) => ... => pn."""
    if n < 1:
        raise ValueError("chain task needs n >= 1")
    ps = [var(f"p{i}") for i in range(1, n + 1)]
    links = [ps[0]] + [imp(ps[i], ps[i + 1]) for i in range(n - 1)] + [ps[n - 1]]
    formula = imp(*links)
    return Task(
        sig=tuple((p.name, PROP) for p in ps),
        goals=(Premise(ident("G"), formula),),
    )
