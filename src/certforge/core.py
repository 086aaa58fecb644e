"""Object-language syntax and the typing judgment.

Types and terms of a higher-order logic with prenex type quantification.
Type symbols are always fully applied; arrows associate right; binders carry
explicit (variable-free) type annotations. The type quantifier Pi may only
appear in prenex position and only over formulas. Equality and integer
arithmetic are interpreted: their typing is fixed here, not declared by tasks.

Everything here is immutable and hashable; all operations are pure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Mapping


class TypingError(Exception):
    """Raised when a term has no derivation in the typing rules."""


# ---------------------------------------------------------------------------
# Identifiers

@dataclass(frozen=True, slots=True)
class Ident:
    """A named identifier with a numeric disambiguator.

    Two idents are equal iff both name and uid are equal; uid 0 prints
    as the bare name.
    """

    name: str
    uid: int = 0

    def __str__(self) -> str:
        return self.name if self.uid == 0 else f"{self.name}#{self.uid}"


def ident(name: str | Ident) -> Ident:
    if isinstance(name, Ident):
        return name
    if "#" in name:
        base, _, tail = name.rpartition("#")
        if base and tail.isascii() and tail.isdigit():
            return Ident(base, int(tail))
    return Ident(name)


def fresh_ident(base: str | Ident, avoid: frozenset[Ident] | set[Ident]) -> Ident:
    """First ident not in `avoid`: the base itself, else base#1, base#2, ...

    Deterministic in (base, avoid); takes the avoid set explicitly so there
    is no hidden counter state.
    """
    base = ident(base)
    if base not in avoid:
        return base
    k = 1
    while True:
        cand = Ident(base.name, k)
        if cand not in avoid:
            return cand
        k += 1


# ---------------------------------------------------------------------------
# Types

class Type:
    # weakly referable, so that sexpr can share what it reads across reads
    __slots__ = ("__weakref__",)

    def __str__(self) -> str:
        """The type in task-file syntax, printed by sexpr without recursion;
        no name is refused, so a message that quotes a type never raises."""
        from .sexpr import _text  # sexpr imports this module
        return _text(self, None, False)


@dataclass(frozen=True, slots=True)
class TVar(Type):
    name: Ident


@dataclass(frozen=True, slots=True)
class Prop(Type):
    """The type of formulas."""


@dataclass(frozen=True, slots=True)
class Arrow(Type):
    left: Type
    right: Type


@dataclass(frozen=True, slots=True)
class TApp(Type):
    head: Ident
    args: tuple[Type, ...] = ()


PROP = Prop()
INT = TApp(Ident("int"), ())


def arrow(*types: Type) -> Type:
    """Right-fold arrow: arrow(a, b, c) == Arrow(a, Arrow(b, c))."""
    if not types:
        raise ValueError("arrow needs at least one type")
    out = types[-1]
    for ty in reversed(types[:-1]):
        out = Arrow(ty, out)
    return out


# type_vars, type_heads and free_vars walk in module functions that take
# their state as arguments: a nested function that calls itself is a
# reference cycle, which only the cycle collector frees, on every call.

def type_vars(ty: Type) -> tuple[Ident, ...]:
    """Type variables of `ty` in order of first occurrence."""
    out: list[Ident] = []
    _type_vars(ty, out)
    return tuple(out)


def _type_vars(t: Type, out: list[Ident]) -> None:
    if isinstance(t, TVar):
        if t.name not in out:
            out.append(t.name)
    elif isinstance(t, Arrow):
        _type_vars(t.left, out)
        _type_vars(t.right, out)
    elif isinstance(t, TApp):
        for a in t.args:
            _type_vars(a, out)


def type_heads(ty: Type) -> set[Ident]:
    """Heads of the type-symbol applications in `ty`, (int) included."""
    out: set[Ident] = set()
    _type_heads(ty, out)
    return out


def _type_heads(t: Type, out: set[Ident]) -> None:
    if isinstance(t, Arrow):
        _type_heads(t.left, out)
        _type_heads(t.right, out)
    elif isinstance(t, TApp):
        out.add(t.head)
        for a in t.args:
            _type_heads(a, out)


def subst_in_type(ty: Type, mapping: Mapping[Ident, Type]) -> Type:
    if isinstance(ty, TVar):
        return mapping.get(ty.name, ty)
    if isinstance(ty, Arrow):
        return Arrow(subst_in_type(ty.left, mapping), subst_in_type(ty.right, mapping))
    if isinstance(ty, TApp):
        return TApp(ty.head, tuple(subst_in_type(a, mapping) for a in ty.args))
    return ty


# ---------------------------------------------------------------------------
# Terms

class Term:
    __slots__ = ("__weakref__",)

    def __str__(self) -> str:
        """The term in task-file syntax, printed by sexpr without recursion;
        no name is refused, so a message that quotes a term never raises."""
        from .sexpr import _text  # sexpr imports this module
        return _text(self, None, False)


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: Ident


@dataclass(frozen=True, slots=True)
class IntLit(Term):
    value: int


@dataclass(frozen=True, slots=True)
class Top(Term):
    """The formula true."""


@dataclass(frozen=True, slots=True)
class Bottom(Term):
    """The formula false."""


@dataclass(frozen=True, slots=True)
class Not(Term):
    body: Term


AND, OR, IMP, IFF = "and", "or", "imp", "iff"
BINOPS = (AND, OR, IMP, IFF)


@dataclass(frozen=True, slots=True)
class BinOp(Term):
    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in BINOPS:
            raise ValueError(f"unknown connective {self.op!r}")


@dataclass(frozen=True, slots=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Lam(Term):
    var: Ident
    ty: Type
    body: Term


@dataclass(frozen=True, slots=True)
class Exists(Term):
    var: Ident
    ty: Type
    body: Term


@dataclass(frozen=True, slots=True)
class Forall(Term):
    var: Ident
    ty: Type
    body: Term


@dataclass(frozen=True, slots=True)
class PiType(Term):
    """Prenex quantification over a type variable."""

    var: Ident
    body: Term


# Smart constructors used throughout the package and the tests.

def var(name: str | Ident) -> Var:
    return Var(ident(name))


def app(fn: Term, *args: Term) -> Term:
    out = fn
    for a in args:
        out = App(out, a)
    return out


def conj(a: Term, b: Term) -> Term:
    return BinOp(AND, a, b)


def disj(a: Term, b: Term) -> Term:
    return BinOp(OR, a, b)


def imp(*terms: Term) -> Term:
    if not terms:
        raise ValueError("imp needs at least one term")
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = BinOp(IMP, t, out)
    return out


def iff(a: Term, b: Term) -> Term:
    return BinOp(IFF, a, b)


_EQ = Ident("=")


def eq(a: Term, b: Term) -> Term:
    return app(Var(_EQ), a, b)


def eq_sides(t: Term) -> tuple[Term, Term] | None:
    """(a, b) when t is the equation eq(a, b), else None."""
    if (isinstance(t, App) and isinstance(t.fn, App)
            and isinstance(t.fn.fn, Var) and t.fn.fn.name == _EQ):
        return t.fn.arg, t.arg
    return None


# ---------------------------------------------------------------------------
# Syntactic audits

def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, Not):
        yield from subterms(t.body)
    elif isinstance(t, BinOp):
        yield from subterms(t.left)
        yield from subterms(t.right)
    elif isinstance(t, App):
        yield from subterms(t.fn)
        yield from subterms(t.arg)
    elif isinstance(t, (Lam, Exists, Forall, PiType)):
        yield from subterms(t.body)


def strip_prenex(t: Term) -> tuple[tuple[Ident, ...], Term]:
    alphas: list[Ident] = []
    while isinstance(t, PiType):
        alphas.append(t.var)
        t = t.body
    return tuple(alphas), t


def free_vars(t: Term) -> frozenset[Ident]:
    """Free term variables (interpreted symbols included when they occur)."""
    out: set[Ident] = set()
    _free_vars(t, frozenset(), out)
    return frozenset(out)


def _free_vars(t: Term, bound: frozenset[Ident], out: set[Ident]) -> None:
    if isinstance(t, Var):
        if t.name not in bound:
            out.add(t.name)
    elif isinstance(t, Not):
        _free_vars(t.body, bound, out)
    elif isinstance(t, BinOp):
        _free_vars(t.left, bound, out)
        _free_vars(t.right, bound, out)
    elif isinstance(t, App):
        _free_vars(t.fn, bound, out)
        _free_vars(t.arg, bound, out)
    elif isinstance(t, (Lam, Exists, Forall)):
        _free_vars(t.body, bound | {t.var}, out)
    elif isinstance(t, PiType):
        _free_vars(t.body, bound, out)


def all_idents(t: Term) -> frozenset[Ident]:
    """Every ident occurring anywhere in t, bound or free, term or type level."""
    out: set[Ident] = set()
    for s in subterms(t):
        if isinstance(s, Var):
            out.add(s.name)
        elif isinstance(s, (Lam, Exists, Forall)):
            out.add(s.var)
            out.update(type_vars(s.ty))
            _type_heads(s.ty, out)
        elif isinstance(s, PiType):
            out.add(s.var)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Substitution

def subst_term(t: Term, x: Ident, u: Term) -> Term:
    """Capture-avoiding substitution t[x -> u]."""
    return _subst_term(t, x, u, free_vars(u))


def _subst_term(t: Term, x: Ident, u: Term, fvu: frozenset[Ident]) -> Term:
    """t[x -> u], where fvu holds u's free variables."""
    if isinstance(t, Var):
        return u if t.name == x else t
    if isinstance(t, (Top, Bottom, IntLit)):
        return t
    if isinstance(t, Not):
        return Not(_subst_term(t.body, x, u, fvu))
    if isinstance(t, BinOp):
        return BinOp(t.op, _subst_term(t.left, x, u, fvu),
                     _subst_term(t.right, x, u, fvu))
    if isinstance(t, App):
        return App(_subst_term(t.fn, x, u, fvu), _subst_term(t.arg, x, u, fvu))
    if isinstance(t, (Lam, Exists, Forall)):
        cls = type(t)
        if t.var == x:
            return t  # shadowed, no free x below
        if t.var in fvu and x in free_vars(t.body):
            avoid = fvu | free_vars(t.body) | {x}
            v2 = fresh_ident(t.var, avoid)
            body2 = subst_term(t.body, t.var, Var(v2))
            return cls(v2, t.ty, _subst_term(body2, x, u, fvu))
        return cls(t.var, t.ty, _subst_term(t.body, x, u, fvu))
    if isinstance(t, PiType):
        return PiType(t.var, _subst_term(t.body, x, u, fvu))
    raise TypeError(f"unknown term node {t!r}")


def subst_type(t: Term, alpha: Ident, tau: Type) -> Term:
    """Type substitution t[alpha -> tau] over annotations and type applications."""
    return _subst_type(t, alpha, {alpha: tau})


def _subst_type(t: Term, alpha: Ident, mapping: Mapping[Ident, Type]) -> Term:
    """t with mapping, which maps alpha alone, applied to its annotations."""
    if isinstance(t, (Var, Top, Bottom, IntLit)):
        return t
    if isinstance(t, Not):
        return Not(_subst_type(t.body, alpha, mapping))
    if isinstance(t, BinOp):
        return BinOp(t.op, _subst_type(t.left, alpha, mapping),
                     _subst_type(t.right, alpha, mapping))
    if isinstance(t, App):
        return App(_subst_type(t.fn, alpha, mapping),
                   _subst_type(t.arg, alpha, mapping))
    if isinstance(t, (Lam, Exists, Forall)):
        return type(t)(t.var, subst_in_type(t.ty, mapping),
                       _subst_type(t.body, alpha, mapping))
    if isinstance(t, PiType):
        if t.var == alpha:
            return t  # shadowed
        return PiType(t.var, _subst_type(t.body, alpha, mapping))
    raise TypeError(f"unknown term node {t!r}")


# ---------------------------------------------------------------------------
# Alpha-equivalence

# a binder map of alpha_equal: each bound name to the depth that bound it,
# None for a name no binder in scope binds
_Depths = dict[Ident, int | None]


def _type_alpha(a: Type, b: Type, ta: _Depths, tb: _Depths, same: bool) -> bool:
    """a and b are one type up to each side's binder map of type variables
    (see _alpha, whose same this is), compared on an explicit stack."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y and same:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, TApp):
            if x.head != y.head or len(x.args) != len(y.args):
                return False
            todo += zip(x.args, y.args)
        elif isinstance(x, Arrow):
            todo += ((x.left, y.left), (x.right, y.right))
        elif isinstance(x, TVar):
            lx, ly = ta.get(x.name), tb.get(y.name)
            if lx != ly or lx is None and x.name != y.name:
                return False
        elif not isinstance(x, Prop):
            return False
    return True


def type_equal(a: Type, b: Type) -> bool:
    """a == b, on an explicit stack: the dataclass __eq__ recurses through
    C, so comparing two deep types that way overflows the interpreter's
    stack under a raised recursion limit."""
    return _type_alpha(a, b, {}, {}, True)


def alpha_equal(t1: Term, t2: Term) -> bool:
    """Equality up to renaming of bound term and type variables."""
    return _alpha(t1, t2, {}, {}, {}, {}, 0, True)


def _alpha(a: Term, b: Term, va: _Depths, vb: _Depths, ta: _Depths,
           tb: _Depths, depth: int, same: bool) -> bool:
    """alpha_equal below binders: va/vb (ta/tb) are each side's binder maps
    of term (type) variables above a and b. A binder sets its entry and
    restores the one it shadowed, so the maps are never copied. same:
    every binder pair entered so far binds one name on both sides, so the
    maps are equal and a term is alpha-equal to itself."""
    if a is b and same:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        la, lb = va.get(a.name), vb.get(b.name)
        if la is None and lb is None:
            return a.name == b.name
        return la is not None and la == lb
    if isinstance(a, IntLit):
        return a.value == b.value
    if isinstance(a, (Top, Bottom)):
        return True
    if isinstance(a, Not):
        return _alpha(a.body, b.body, va, vb, ta, tb, depth, same)
    if isinstance(a, BinOp):
        return a.op == b.op \
            and _alpha(a.left, b.left, va, vb, ta, tb, depth, same) \
            and _alpha(a.right, b.right, va, vb, ta, tb, depth, same)
    if isinstance(a, App):
        return _alpha(a.fn, b.fn, va, vb, ta, tb, depth, same) \
            and _alpha(a.arg, b.arg, va, vb, ta, tb, depth, same)
    if isinstance(a, (Lam, Exists, Forall)):
        if not _type_alpha(a.ty, b.ty, ta, tb, same):
            return False
        da, db = va, vb
    elif isinstance(a, PiType):
        da, db = ta, tb
    else:
        raise TypeError(f"unknown term node {a!r}")
    x, y = a.var, b.var
    old_x, old_y = da.get(x), db.get(y)
    da[x] = db[y] = depth
    ok = _alpha(a.body, b.body, va, vb, ta, tb, depth + 1, same and x == y)
    da[x], db[y] = old_x, old_y
    return ok


# ---------------------------------------------------------------------------
# Typing

# Signatures are mappings; entry types may contain type variables and are read
# as quantified over all of them (instance typing at each occurrence).
TypeSignature = Mapping[Ident, int]
Signature = Mapping[Ident, Type]

# The interpreted signature: equality and integer arithmetic belong to the
# typing judgment itself. Their symbols resolve against these tables, never
# against a task's signature, and no task may declare a name in RESERVED.
_A = TVar(Ident("a"))
INTERPRETED_TYPES: dict[Ident, int] = {INT.head: 0}
INTERPRETED: dict[Ident, Type] = {
    _EQ: arrow(_A, _A, PROP),
    Ident("+"): arrow(INT, INT, INT),
    Ident("*"): arrow(INT, INT, INT),
    Ident("-"): arrow(INT, INT, INT),
    Ident(">"): arrow(INT, INT, PROP),
    Ident("<"): arrow(INT, INT, PROP),
    Ident(">="): arrow(INT, INT, PROP),
    Ident("<="): arrow(INT, INT, PROP),
}
RESERVED = frozenset(i.name for i in (*INTERPRETED_TYPES, *INTERPRETED))


@dataclass(frozen=True, slots=True)
class _Meta(Type):
    """Inference-internal metavariable; never escapes this module."""

    id: int

    def __str__(self) -> str:
        return f"?{self.id}"


@dataclass(frozen=True, slots=True)
class Typing:
    """Result of annotate(): the derived type plus per-occurrence instances.

    A prenex prefix is typed by renaming each of its type variables to a
    fresh arity-0 type symbol; iotas lists those symbols in prefix order and
    body is the formula below the prefix with the renaming applied (the
    term itself when there is no prefix). inst maps the path of each Var
    node of body (tuple of child indices from its root) to the instance
    types chosen for the type variables of its signature scheme, in scheme
    order.
    """

    type: Type
    inst: dict[tuple[int, ...], tuple[Type, ...]]
    iotas: tuple[Ident, ...]
    body: Term


class _Unifier:
    """The state of one annotate call: the metavariables and their
    bindings, and what _infer keeps as it walks the term. _infer takes it
    as an argument: a nested walker that calls itself would be a reference
    cycle, which only the cycle collector frees, on every call."""

    def __init__(self, I: TypeSignature, sig: Signature) -> None:
        self.next_id = 0
        self.bind: dict[int, Type] = {}
        self.I, self.sig = I, sig
        # each polymorphic occurrence's name and the instances picked for
        # it, as metas resolved when the walk ends
        self.inst: dict[tuple[int, ...], tuple[Ident, tuple[Type, ...]]] = {}
        # the occurrence path of the node at hand: _infer extends it by a
        # child index before descending and cuts it back after, and takes
        # a tuple of it only where it records an instance
        self.path: list[int] = []
        # each name met so far with its scheme and the scheme's type
        # variables, so a scheme's variables are found once per call, not
        # at every occurrence. A binder's entry (its ground type, no
        # variables) is set on entering it and deleted on leaving it; it
        # hides no other entry, as a binder may not reuse a name in scope
        # or declared
        self.scope: dict[Ident, tuple[Type, tuple[Ident, ...]]] = {}

    def fresh(self) -> _Meta:
        self.next_id += 1
        return _Meta(self.next_id)

    def walk(self, ty: Type) -> Type:
        """ty with the bindings at its head followed; its parts are left
        as they are, so nothing is built."""
        while isinstance(ty, _Meta) and ty.id in self.bind:
            ty = self.bind[ty.id]
        return ty

    def resolve(self, ty: Type) -> Type:
        """ty with every binding followed; a meta left unbound stays a
        meta, and nothing is bound (see the note on ambiguity in annotate).
        A part without a bound meta is returned as it is, not rebuilt."""
        ty = self.walk(ty)
        if isinstance(ty, Arrow):
            l, r = self.resolve(ty.left), self.resolve(ty.right)
            return ty if l is ty.left and r is ty.right else Arrow(l, r)
        if isinstance(ty, TApp):
            args = tuple(map(self.resolve, ty.args))
            return ty if all(map(operator.is_, args, ty.args)) else TApp(ty.head, args)
        return ty

    def occurs(self, m: _Meta | None, ty: Type) -> bool:
        """m occurs in ty, its bindings followed; any unbound meta does,
        when m is None."""
        ty = self.walk(ty)
        if isinstance(ty, _Meta):
            return m is None or ty.id == m.id
        if isinstance(ty, Arrow):
            return self.occurs(m, ty.left) or self.occurs(m, ty.right)
        if isinstance(ty, TApp):
            return any(self.occurs(m, a) for a in ty.args)
        return False

    def unify(self, a: Type, b: Type, where: str) -> None:
        # bindings are followed one level at a time, at the head of each
        # part compared: no resolved copy of either side is built. Only
        # fresh makes a _Meta, so a meta is one object, and a type unifies
        # with itself binding nothing
        a, b = self.walk(a), self.walk(b)
        if a is b:
            return
        if isinstance(a, _Meta):
            if self.occurs(a, b):
                raise TypingError(f"occurs check failed in {where}")
            self.bind[a.id] = b
            return
        if isinstance(b, _Meta):
            self.unify(b, a, where)
            return
        if isinstance(a, Prop) and isinstance(b, Prop):
            return
        if isinstance(a, TVar) and isinstance(b, TVar) and a.name == b.name:
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.left, b.left, where)
            self.unify(a.right, b.right, where)
            return
        if isinstance(a, TApp) and isinstance(b, TApp) and a.head == b.head \
                and len(a.args) == len(b.args):
            for x, y in zip(a.args, b.args):
                self.unify(x, y, where)
            return
        raise TypingError(f"cannot unify {self.resolve(a)} with "
                          f"{self.resolve(b)} in {where}")


def check_type(I: TypeSignature, ty: Type, *, allow_vars: bool) -> None:
    """Well-formedness of a type against the type signature.

    Type symbols must be declared (int is interpreted) and fully applied at
    their declared arity; with allow_vars=False the type must be ground.
    The parts are checked left to right on an explicit stack, so a deep
    declared type is no deeper a recursion.
    """
    todo = [ty]
    while todo:
        ty = todo.pop()
        if isinstance(ty, TApp):
            arity = INTERPRETED_TYPES.get(ty.head)
            if arity is None:
                arity = I.get(ty.head)
            if arity is None:
                raise TypingError(f"undeclared type symbol {ty.head}")
            if arity != len(ty.args):
                raise TypingError(
                    f"type symbol {ty.head} has arity {arity}, applied to {len(ty.args)}")
            todo += ty.args[::-1]
        elif isinstance(ty, Arrow):
            todo += (ty.right, ty.left)
        elif isinstance(ty, TVar):
            if not allow_vars:
                raise TypingError(f"type variable {ty.name} not allowed here")
        elif not isinstance(ty, Prop):
            raise TypingError(f"malformed type {ty!r}")


def annotate(I: TypeSignature, sig: Signature, t: Term,
             expected: Type | None = None) -> Typing:
    """Typecheck t and record the instance choices made at each occurrence.

    Implements the typing rules: a prenex Pi prefix is replaced by fresh
    arity-0 type symbols and the body must be prop; a variable's type is a
    ground instance of its scheme; binder annotations are variable-free,
    and a binder may shadow neither the signature nor an outer binder.

    Ambiguity is a type error. Every instance must be fixed by the
    constraints of t (and `expected`, when given, which the result must
    unify with): annotate refuses the first occurrence, in walk order,
    whose instance is still open, with "instance of <symbol> at [<path>]
    is ambiguous"; no instance is guessed. Every meta of the result's type
    occurs in some instance, so a result with no open instance is ground.

    This is what makes substitution keep instances, in the kernel rules
    that substitute a term u for x : tau in a body (KInstQuant, KRewrite,
    KIntroQuant, KInduction). The substituted formula's constraints are
    those of the body with x : tau plus those of u at tau, as the two
    share no meta. The redex's instances (the body typed with x : tau and
    u typed at tau) satisfy them. If annotate accepts the substituted
    formula, no instance is open, so its instances are the unique
    solution of its constraints, and they coincide with the redex's: a
    rule cannot change which instance a premise means.

    An application checks its argument where the head's type is known and
    infers only where it is not. _infer types the head, then the
    argument (type a), then walks the head's type. If that is an arrow
    d -> c, it unifies d with a, unless they are one object, and the
    application has type c. Otherwise it unifies the head's type with
    a -> ?r for a fresh meta ?r, and the application has type ?r.

    This is the unification the rule "unify the head's type with a -> ?r"
    makes for every application, in the same order, with one step left
    out. Given an arrow d -> c, unify first unifies d with a. It then
    unifies c with ?r, which cannot fail, as ?r is fresh and occurs
    nowhere: it binds ?r to c, or, when c walks to an unbound meta m,
    binds m to ?r. Typing the application as c instead of ?r only merges
    the two names of one type, so every later unification succeeds or
    fails as before, in the same order. The mgu is the same up to that
    renaming, so resolving the result and the instances at the end picks
    the same types, and leaves the same instances open. A refusal is
    raised at the same step with the same message, up to the numbers of
    the unresolved metas it prints. A variable's type is still a fresh
    instance of its scheme at each occurrence; only the scheme's type
    variables are found once per call.

    The signature itself is taken as well-formed under I; check it once
    with check_signature, as task.well_typed does.
    """
    alphas, body = strip_prenex(t)
    iotas: list[Ident] = []
    if alphas:
        if len(set(alphas)) != len(alphas):
            raise TypingError("duplicate type variable in prenex prefix")
        I = dict(I)
        taken = set(I) | set(INTERPRETED_TYPES) | all_idents(body) | set(alphas)
        for a in alphas:
            iota = fresh_ident(a, frozenset(taken))
            taken.add(iota)
            I[iota] = 0
            iotas.append(iota)
            body = subst_type(body, a, TApp(iota, ()))

    st = _Unifier(I, sig)
    top = _infer(body, st)
    if alphas:
        st.unify(top, PROP, "type quantifier body")
    if expected is not None:
        st.unify(top, expected, "required type")
    inst = {p: tuple(map(st.resolve, metas)) for p, (_, metas) in st.inst.items()}
    if len(st.bind) < st.next_id:  # a meta is unbound: is an instance open?
        for p, (name, metas) in st.inst.items():
            if any(st.occurs(None, m) for m in metas):
                raise TypingError(f"instance of {name} at {list(p)} is ambiguous")
    return Typing(st.resolve(top), inst, tuple(iotas), body)


def _infer(t: Term, st: _Unifier) -> Type:
    """The type of t, a node below annotate's prenex prefix."""
    if isinstance(t, Var):
        entry = st.scope.get(t.name)
        if entry is None:
            scheme = st.sig.get(t.name, INTERPRETED.get(t.name))
            if scheme is None:
                raise TypingError(f"unbound variable {t.name}")
            entry = st.scope[t.name] = (scheme, type_vars(scheme))
        scheme, tvs = entry
        if not tvs:
            return scheme
        metas = {v: st.fresh() for v in tvs}
        st.inst[tuple(st.path)] = (t.name, tuple(metas.values()))
        return subst_in_type(scheme, metas)
    if isinstance(t, App):
        st.path.append(0)
        tf = _infer(t.fn, st)
        st.path[-1] = 1
        ta = _infer(t.arg, st)
        st.path.pop()
        tf = st.walk(tf)
        if isinstance(tf, Arrow):
            if tf.left is not ta:
                st.unify(tf.left, ta, "application")
            return tf.right
        res = st.fresh()
        st.unify(tf, Arrow(ta, res), "application")
        return res
    if isinstance(t, IntLit):
        return INT
    if isinstance(t, (Top, Bottom)):
        return PROP
    if isinstance(t, Not):
        st.path.append(0)
        st.unify(_infer(t.body, st), PROP, "negation")
        st.path.pop()
        return PROP
    if isinstance(t, BinOp):
        st.path.append(0)
        st.unify(_infer(t.left, st), PROP, f"{t.op} left")
        st.path[-1] = 1
        st.unify(_infer(t.right, st), PROP, f"{t.op} right")
        st.path.pop()
        return PROP
    if isinstance(t, (Lam, Exists, Forall)):
        check_type(st.I, t.ty, allow_vars=False)
        if t.var in st.scope or t.var in st.sig or t.var in INTERPRETED:
            raise TypingError(f"binder {t.var} shadows a declared symbol")
        st.scope[t.var] = (t.ty, ())
        st.path.append(0)
        tb = _infer(t.body, st)
        st.path.pop()
        del st.scope[t.var]
        if isinstance(t, Lam):
            return Arrow(t.ty, tb)
        st.unify(tb, PROP, "quantifier body")
        return PROP
    if isinstance(t, PiType):
        raise TypingError("type quantifier occurs under another constructor")
    raise TypeError(f"unknown term node {t!r}")


def check_signature(I: TypeSignature, sig: Signature) -> None:
    """Every signature scheme is a well-formed type under I (variables allowed)."""
    for scheme in sig.values():
        check_type(I, scheme, allow_vars=True)
