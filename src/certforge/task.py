"""Proof tasks: sequents I | Sigma | Gamma |- Delta with named premises.

Gamma and Delta are ordered so serialization and export are deterministic;
set semantics is recovered by name-keyed lookup wherever equality matters.

A task built by Task(...) starts from the judgments of a live task with the
same declarations: same declarations, same judgment. One table of weak
references (_CONTEXTS) maps a declaration list to the last typing context
that began judging a task with it (well_typed registers each context once).
Task(...) looks its declarations up and starts a context of its own; on a
hit, when well_typed or typing_of first asks that context, it takes the
found context's judgments of the task's premises and of the operands along
their spines, if the found context still lives. So a task read again from its
text while a judged task holding those formulas is alive (sexpr's reader
shares what it reads) finds them judged; and the leaf tasks a certificate
stores, read while the task it is checked against lives, find that task's
judgments of the premises they keep. A task that is never asked, such as a
leaf that ccheck only compares, takes nothing. The table's key lists each
type declaration as (name, uid, arity) and each signature entry as (name,
uid, id of its type), in order.

Taking a found context's judgments is sound. A judgment (see well_typed)
depends only on the declarations and on the formula object. Two keys are
equal only for equal declarations: the names, uids and arities are compared
as values, and a signature entry's type by identity. The context's sig_map
holds each keyed type, so while the context a key maps to is alive, each id
in that key names the very type declared. The table holds contexts weakly:
a dead context reads as a miss, so an id reused after its death never
matches. And a context's props holds each judged premise, so the formula
ids it is keyed on stay valid while it lives; the taking context then holds
the judgments it took.

A context takes only what its own premises need, not the found context, so
a chain of readings, each judged while the one before lives, keeps about
one step's judgments alive instead of every step's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import KeysView, Mapping
from weakref import ReferenceType, ref

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
    type_equal,
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
    """Typing facts about one list of declarations.

    Every task derived by Task.replace/append keeps its parent's
    declarations and shares its parent's context, so a fact recorded here
    holds for all of them: same declarations, same judgment. The memo lives
    as long as any task holding the context. A context that Task(...)
    starts takes the judgments of its premises that a live context of the
    same declarations holds (see the module docstring); one that
    Task.extend_sig/extend_types starts for one declaration more begins
    with the judgments of its parent's context that the new declaration
    cannot change (see well_typed).
    """

    __slots__ = ("key", "types_map", "sig_map", "sig_checked", "props",
                 "paths", "mentions", "pending", "registered", "__weakref__")

    def __init__(self, key: tuple, types_map: dict[Ident, int],
                 sig_map: dict[Ident, Type]) -> None:
        self.key = key  # of these declarations in _CONTEXTS (see _decl_key)
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
        # id of a premise in props -> every ident it mentions and the iotas
        # its Typing picked, filled when a declaration extends the context
        self.mentions: dict[int, frozenset[Ident]] = {}
        # a weak reference to a context of the same declarations and the
        # premises of the task that started this one: the judgments of them
        # to take from it when well_typed or typing_of first asks (see take)
        self.pending: tuple[ReferenceType, tuple[Premise, ...]] | None = None
        # set once well_typed has first judged a task of this context and
        # entered it in _CONTEXTS (see _register)
        self.registered = False

    def take(self) -> None:
        """Take the pending judgments, if their context still lives."""
        source, premises = self.pending
        self.pending = None
        found = source()
        if found is not None:
            found.carry(self, premises)

    def carry(self, out: _TypingContext, premises: tuple[Premise, ...],
              name: Ident | None = None) -> None:
        """Record in out, a context for these declarations or for these and
        name, this context's judgments of premises, and of the operands
        along their spines, whose judged premise neither mentions name nor
        picked it as an iota (see well_typed); with no name, all of them
        and the signature check."""
        if name is None and self.sig_checked:
            out.sig_checked = True
        todo = [p.formula for p in premises]
        while todo:
            g = todo.pop()
            judged = self.props.get(id(g))
            if judged is None or id(g) in out.props:
                continue
            if name is not None:
                root, info = judged
                mentions = self.mentions.get(id(root))
                if mentions is None:
                    mentions = all_idents(root).union(info.iotas)
                    self.mentions[id(root)] = mentions
                if name in mentions:
                    continue
                out.mentions[id(root)] = mentions
            out.props[id(g)] = judged
            if isinstance(g, Not):
                todo.append(g.body)
            elif isinstance(g, BinOp):
                todo += (g.left, g.right)


# declaration key (see _decl_key) -> a weak reference, with no callback, to
# the last context that began judging a task with those declarations. A dead
# reference reads as a miss; _register drops the dead entries once the table
# has doubled in size since the last sweep, as sexpr's tables do.
_CONTEXTS: dict[tuple, ReferenceType] = {}
_SWEEP_FLOOR = 1024
_sweep_at = _SWEEP_FLOOR


def _register(ctx: _TypingContext) -> None:
    """Make ctx the context Task(...) finds for its declarations."""
    global _sweep_at
    ctx.registered = True
    _CONTEXTS[ctx.key] = ref(ctx)
    if len(_CONTEXTS) >= _sweep_at:
        for key in [k for k, r in _CONTEXTS.items() if r() is None]:
            del _CONTEXTS[key]
        _sweep_at = max(2 * len(_CONTEXTS), _SWEEP_FLOOR)


def _decl_key(types: tuple[tuple[Ident, int], ...],
              sig: tuple[tuple[Ident, Type], ...]) -> tuple:
    """The key of these declarations in _CONTEXTS, built from each name's
    fields so that no Ident is hashed."""
    return (tuple([(n.name, n.uid, arity) for n, arity in types]),
            tuple([(n.name, n.uid, id(ty)) for n, ty in sig]))


def _check_decl(sig: Mapping[Ident, Type], name: Ident) -> None:
    if name.name in RESERVED:
        raise TaskError(f"symbol {name} is interpreted and reserved")
    if name.name in ("true", "false") and not name.uid:
        # no formula could name it: the reader reads true and false as
        # the constants
        raise TaskError(f"symbol {name} names a constant")
    if name in sig:
        raise TaskError(f"symbol {name} declared twice")


def _check_type_decl(types: Mapping[Ident, int], name: Ident,
                     arity: int) -> None:
    if name.name in RESERVED:
        raise TaskError(f"type symbol {name} is interpreted and reserved")
    if name.name == "prop":
        raise TaskError(f"type symbol {name} names the type of formulas")
    if name in types:
        raise TaskError(f"type symbol {name} declared twice")
    if arity < 0:
        raise TaskError(f"negative arity for {name}")


@dataclass(frozen=True, slots=True)
class Task:
    types: tuple[tuple[Ident, int], ...] = ()
    sig: tuple[tuple[Ident, Type], ...] = ()
    hyps: tuple[Premise, ...] = ()
    goals: tuple[Premise, ...] = ()
    _ctx: _TypingContext = field(init=False, repr=False, compare=False)
    # premise name -> (is it a goal, the premise); never mutated, so a task
    # with the same premises shares it
    _by_name: Mapping[Ident, tuple[bool, Premise]] = field(
        init=False, repr=False, compare=False)
    # the premises well_typed has yet to judge: every other premise's
    # formula is recorded in _ctx (see well_typed)
    _unjudged: tuple[Premise, ...] = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self) -> None:
        types: dict[Ident, int] = {}
        for name, arity in self.types:
            _check_type_decl(types, name, arity)
            types[name] = arity
        sig: dict[Ident, Type] = {}
        for name, ty in self.sig:
            _check_decl(sig, name)
            sig[name] = ty
        by_name: dict[Ident, tuple[bool, Premise]] = {}
        for is_goal, side in ((False, self.hyps), (True, self.goals)):
            for p in side:
                if p.name in by_name:
                    raise TaskError(f"premise name {p.name} used twice")
                by_name[p.name] = (is_goal, p)
        premises = self.hyps + self.goals
        key = _decl_key(self.types, self.sig)
        ctx = _TypingContext(key, types, sig)
        found = _CONTEXTS.get(key)
        if found is not None:
            ctx.pending = (found, premises)
        object.__setattr__(self, "_ctx", ctx)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_unjudged", premises)

    # -- lookups ------------------------------------------------------------

    def types_map(self) -> Mapping[Ident, int]:
        """The type signature as a read-only mapping."""
        return self._ctx.types_map

    def sig_map(self) -> Mapping[Ident, Type]:
        """The signature as a read-only mapping."""
        return self._ctx.sig_map

    def premises(self) -> tuple[Premise, ...]:
        return self.hyps + self.goals

    def premise_names(self) -> KeysView[Ident]:
        return self._by_name.keys()

    def find(self, name: Ident | str) -> tuple[bool, int, Premise] | None:
        """Locate a premise by name; the bool is True for a goal."""
        found = self._by_name.get(ident(name))
        if found is None:
            return None
        is_goal, p = found
        side = self.goals if is_goal else self.hyps
        # by identity, in C: tuple.index would call Premise.__eq__ on every
        # premise before p
        return is_goal, list(map(id, side)).index(id(p)), p

    # -- functional edits (used by replay and by the transformations) -------
    #
    # replace and append keep this task's types and sig tuples, so the task
    # they build shares this task's typing context (see well_typed) and only
    # the premise names they add are checked. extend_sig and extend_types
    # add one declaration: the task they build keeps this task's premises
    # and starts a context of its own with the judgments the new
    # declaration cannot change.

    def replace(self, is_goal: bool, index: int, new: tuple[Premise, ...]) -> Task:
        """Splice `new` in place of the premise at `index` on the given side."""
        side = self.goals if is_goal else self.hyps
        spliced = side[:index] + new + side[index + 1:]
        if is_goal:
            return self._derive(self.hyps, spliced, is_goal, side[index], new)
        return self._derive(spliced, self.goals, is_goal, side[index], new)

    def append(self, is_goal: bool, p: Premise) -> Task:
        if is_goal:
            return self._derive(self.hyps, self.goals + (p,), is_goal, None, (p,))
        return self._derive(self.hyps + (p,), self.goals, is_goal, None, (p,))

    def _derive(self, hyps: tuple[Premise, ...], goals: tuple[Premise, ...],
                is_goal: bool, removed: Premise | None,
                added: tuple[Premise, ...]) -> Task:
        """This task's declarations over new premises: this task's without
        `removed`, and `added` on the given side."""
        by_name = dict(self._by_name)
        unjudged = self._unjudged
        if removed is not None:
            del by_name[removed.name]
            if unjudged:
                unjudged = tuple(p for p in unjudged if p is not removed)
        for p in added:
            if p.name in by_name:
                raise TaskError(f"premise name {p.name} used twice")
            by_name[p.name] = (is_goal, p)
        return _build(self.types, self.sig, hyps, goals, self._ctx, by_name,
                      unjudged + added)

    def extend_sig(self, name: Ident, ty: Type) -> Task:
        _check_decl(self._ctx.sig_map, name)
        return self._extend(self.types, self.sig + ((name, ty),), name)

    def extend_types(self, name: Ident, arity: int) -> Task:
        _check_type_decl(self._ctx.types_map, name, arity)
        return self._extend(self.types + ((name, arity),), self.sig, name)

    def _extend(self, types: tuple[tuple[Ident, int], ...],
                sig: tuple[tuple[Ident, Type], ...], name: Ident) -> Task:
        """These premises under declarations that add name to this task's."""
        premises = self.premises()
        # not looked up in _CONTEXTS: a live context of these declarations
        # may hold other Typings of the kept premises than the ones carried
        # over, and the exporter encodes once per Typing
        ctx = _TypingContext(_decl_key(types, sig), dict(types), dict(sig))
        self._ctx.carry(ctx, premises, name)
        unjudged = tuple(p for p in premises if id(p.formula) not in ctx.props)
        return _build(types, sig, self.hyps, self.goals, ctx, self._by_name,
                      unjudged)

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


def _build(types: tuple[tuple[Ident, int], ...],
           sig: tuple[tuple[Ident, Type], ...], hyps: tuple[Premise, ...],
           goals: tuple[Premise, ...], ctx: _TypingContext,
           by_name: Mapping[Ident, tuple[bool, Premise]],
           unjudged: tuple[Premise, ...]) -> Task:
    """A Task from parts an edit has already validated."""
    out = object.__new__(Task)
    for attr, value in (("types", types), ("sig", sig), ("hyps", hyps),
                        ("goals", goals), ("_ctx", ctx),
                        ("_by_name", by_name), ("_unjudged", unjudged)):
        object.__setattr__(out, attr, value)
    return out


def well_typed(T: Task) -> bool:
    """True iff Sigma is well-formed under I and every premise has type prop.

    Each premise is judged against prop (annotate with expected=PROP), so a
    premise such as `choose` with choose : 'a is prop at the instance prop,
    which the requirement fixes. A premise with an instance nothing fixes,
    such as `r c c` with c : 'a and r : 'a -> 'a -> prop, is ill-typed:
    annotate refuses the ambiguity instead of guessing an instance, which
    is what lets the kernel's substitutions keep every premise's instances
    (see annotate).

    Incremental in two ways, so a derived task pays for what its edit
    added. First, through T's typing context, which the tasks replace and
    append derive share since they keep T's declarations, and which for a
    task built by Task(...) first takes the judgments of its premises that
    the last context that began judging a task with those declarations
    holds, if it lives (see the module docstring; a context is registered
    when a task of it is first judged). The signature is checked once per context, and each formula
    object is typed once per context. Same declarations, same judgment; the
    memo lives as long as any task holding the context. Second, T knows
    which of its premises may be unrecorded in that context: all of them
    for a task built by Task(...), none once well_typed(T) has held, and
    for a task replace or append derived, its parent's unrecorded premises
    it keeps plus the ones the edit added. So only those are looked at,
    and one found recorded is skipped; a kept premise is the same object
    under the same declarations, recorded when the parent was judged.

    extend_sig and extend_types add one declaration of a name x and start
    a context of their own, which begins with every judgment of the
    parent's context whose judged premise mentions x nowhere (free, bound,
    or as a type head or type variable) and whose Typing did not pick x as
    an iota; every other premise is judged again. Such a judgment is
    annotate's own under the new declarations. annotate reads the
    signature only to look up a variable the premise mentions and to
    refuse a binder of a declared name, so a new symbol x changes neither.
    It reads the type signature to check the arity of a type head the
    premise mentions, and to rename a type prefix to the first names not
    declared: a new type symbol x moves that choice only if x was chosen.
    So the typing, its instances and its iotas are the same, and the
    operands along the premise's spine keep theirs. A kept premise that
    binds x is judged again and refused, as a binder may not shadow a
    declared symbol; KIntroQuant's freshness check looks only at free
    names and the signature, so this case is real.

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
    if ctx.pending is not None:
        ctx.take()
    I, sig = ctx.types_map, ctx.sig_map
    if not ctx.sig_checked:
        try:
            check_signature(I, sig)
        except TypingError:
            return False
        ctx.sig_checked = True
    if not T._unjudged:
        return True
    for p in T._unjudged:
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
    object.__setattr__(T, "_unjudged", ())
    if not ctx.registered:
        _register(ctx)
    return True


def typing_of(T: Task, f: Term) -> tuple[Typing, tuple[int, ...]] | None:
    """The Typing under which T's typing context judged f prop, and f's
    path in the premise it was judged as; None if the context never did.

    f is judged when well_typed judged it as a premise or recorded it as
    an operand on a premise's Not/BinOp spine (see well_typed), for T, for
    a task sharing T's context, or for a task with T's declarations whose
    judgment T's context took: its instances are those the Typing
    holds at the path. The first question about a premise's spine walks
    that spine once and keeps every operand's path in the context, as long
    as any task holds it.
    """
    ctx = T._ctx
    if id(f) not in ctx.paths:
        if id(f) not in ctx.props and ctx.pending is not None:
            ctx.take()
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


def ill_typed_reason(tasks) -> str:
    """Why the first of tasks that well_typed refuses is ill-typed, found
    by typing it again once: the signature's fault, or the first premise
    that is not prop, with the type it has instead or, when no type is
    determined, why (say, `premise G: instance of f at [0] is ambiguous`).
    For a refusal's message only; well_typed is the judgment."""
    T = next(t for t in tasks if not well_typed(t))
    I, sig = T.types_map(), T.sig_map()
    try:
        check_signature(I, sig)
    except TypingError as e:
        return str(e)
    for p in T.premises():
        try:
            annotate(I, sig, p.formula, PROP)
            continue
        except TypingError as e:
            refusal = e
        try:
            ty = annotate(I, sig, p.formula).type
        except TypingError as e:
            return f"premise {p.name}: {e}"
        if ty != PROP:
            return f"premise {p.name} has type {ty}, not prop"
        return f"premise {p.name}: {refusal}"
    return "task is not well-typed"


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
    if T1.types == T2.types and _same_sig(T1.sig, T2.sig):
        return True
    types1, sig1 = used_declarations(T1)
    types2, sig2 = used_declarations(T2)
    if dict(types1) != dict(types2):
        return False
    s1, s2 = dict(sig1), dict(sig2)
    return s1.keys() == s2.keys() and all(
        type_equal(_scheme_canon(s1[name]), _scheme_canon(s2[name]))
        for name in s1)


def _same_sig(s1: tuple[tuple[Ident, Type], ...],
              s2: tuple[tuple[Ident, Type], ...]) -> bool:
    """s1 == s2, with each declared type compared by type_equal."""
    return s1 is s2 or len(s1) == len(s2) and all(
        e1 is e2 or e1[0] == e2[0] and type_equal(e1[1], e2[1])
        for e1, e2 in zip(s1, s2))


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
