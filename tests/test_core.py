from __future__ import annotations

import gc
import itertools
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import typing_cases
from typing_cases import typecheck
from certforge import sexpr
from certforge.core import (
    INT,
    PROP,
    App,
    Arrow,
    BinOp,
    Bottom,
    Exists,
    Forall,
    Ident,
    IntLit,
    Lam,
    Not,
    PiType,
    TApp,
    TVar,
    Top,
    TypingError,
    Var,
    alpha_equal,
    annotate,
    app,
    arrow,
    conj,
    eq,
    free_vars,
    fresh_ident,
    ident,
    imp,
    subst_in_type,
    subst_term,
    subst_type,
    type_vars,
    var,
)
from oracles import db_term

# ---------------------------------------------------------------------------
# Identifiers


def test_ident_parsing():
    assert ident("x") == Ident("x", 0)
    assert str(ident("x")) == "x"
    assert ident("x#3") == Ident("x", 3)
    assert str(Ident("x", 3)) == "x#3"
    # a non-numeric tail is just part of the name
    assert ident("x#y") == Ident("x#y", 0)
    # and so is a tail of digits that are not ASCII, which int() refuses
    assert ident("x#\u00b2") == Ident("x#\u00b2", 0)
    i = Ident("z", 1)
    assert ident(i) is i


def test_fresh_ident_progression():
    assert fresh_ident("x", frozenset()) == Ident("x", 0)
    assert fresh_ident("x", {Ident("x", 0)}) == Ident("x", 1)
    assert fresh_ident("x", {Ident("x", 0), Ident("x", 1)}) == Ident("x", 2)


@given(st.sets(st.integers(min_value=0, max_value=30), max_size=20))
def test_fresh_ident_avoids(uids):
    avoid = {Ident("v", u) for u in uids}
    got = fresh_ident("v", avoid)
    assert got not in avoid
    assert got.name == "v"


# ---------------------------------------------------------------------------
# Term strategy for property tests

_names = [ident(n) for n in ("x", "y", "z", "w")]
_tnames = [ident(n) for n in ("a", "b")]
_anns = [INT, PROP, Arrow(INT, PROP), TVar(_tnames[0]), TVar(_tnames[1])]

_leaf = st.one_of(
    st.sampled_from([Top(), Bottom(), IntLit(0), IntLit(1)]),
    st.sampled_from(_names).map(Var),
)


def _extend(inner):
    binder = st.tuples(st.sampled_from(_names), st.sampled_from(_anns), inner)
    return st.one_of(
        inner.map(Not),
        st.tuples(st.sampled_from(["and", "or", "imp", "iff"]), inner, inner)
          .map(lambda t: BinOp(*t)),
        st.tuples(inner, inner).map(lambda t: App(*t)),
        binder.map(lambda t: Lam(*t)),
        binder.map(lambda t: Forall(*t)),
        binder.map(lambda t: Exists(*t)),
        st.tuples(st.sampled_from(_tnames), inner).map(lambda t: PiType(*t)),
    )


terms = st.recursive(_leaf, _extend, max_leaves=12)


def rename_bound(t, vmap=None, tmap=None, counter=None):
    """Structurally rename every binder to a fresh name; free names unchanged."""
    vmap = vmap or {}
    tmap = tmap or {}
    counter = counter if counter is not None else itertools.count(1)

    def fresh():
        return Ident(f"r{next(counter)}")

    def retype(ty):
        if isinstance(ty, TVar):
            return TVar(tmap.get(ty.name, ty.name))
        if isinstance(ty, Arrow):
            return Arrow(retype(ty.left), retype(ty.right))
        if isinstance(ty, TApp):
            return TApp(ty.head, tuple(retype(a) for a in ty.args))
        return ty

    if isinstance(t, Var):
        return Var(vmap.get(t.name, t.name))
    if isinstance(t, (Top, Bottom, IntLit)):
        return t
    if isinstance(t, Not):
        return Not(rename_bound(t.body, vmap, tmap, counter))
    if isinstance(t, BinOp):
        return BinOp(t.op, rename_bound(t.left, vmap, tmap, counter),
                     rename_bound(t.right, vmap, tmap, counter))
    if isinstance(t, App):
        return App(rename_bound(t.fn, vmap, tmap, counter),
                   rename_bound(t.arg, vmap, tmap, counter))
    if isinstance(t, (Lam, Exists, Forall)):
        new = fresh()
        inner = dict(vmap)
        inner[t.var] = new
        return type(t)(new, retype(t.ty),
                       rename_bound(t.body, inner, tmap, counter))
    if isinstance(t, PiType):
        new = fresh()
        inner = dict(tmap)
        inner[t.var] = new
        return PiType(new, rename_bound(t.body, vmap, inner, counter))
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# Alpha equivalence


def test_alpha_hand_cases():
    a, b = ident("a"), ident("b")
    assert alpha_equal(Lam(ident("x"), INT, var_x := Var(ident("x"))),
                       Lam(ident("y"), INT, Var(ident("y"))))
    assert not alpha_equal(Lam(ident("x"), INT, var_x),
                           Lam(ident("y"), PROP, Var(ident("y"))))
    # free variables must match by name
    assert not alpha_equal(Var(ident("x")), Var(ident("y")))
    # bound type variables match positionally
    assert alpha_equal(
        PiType(a, Forall(ident("x"), TVar(a), eq(Var(ident("x")), Var(ident("x"))))),
        PiType(b, Forall(ident("y"), TVar(b), eq(Var(ident("y")), Var(ident("y"))))))
    assert not alpha_equal(
        PiType(a, Forall(ident("x"), TVar(a), Top())),
        PiType(b, Forall(ident("x"), INT, Top())))


def test_alpha_shadowing():
    x = ident("x")
    t1 = Lam(x, INT, Lam(x, INT, Var(x)))
    t2 = Lam(ident("u"), INT, Lam(ident("v"), INT, Var(ident("v"))))
    t3 = Lam(ident("u"), INT, Lam(ident("v"), INT, Var(ident("u"))))
    assert alpha_equal(t1, t2)
    assert not alpha_equal(t1, t3)
    # one body object under binders of different names: x, or the type
    # variable a, is bound on one side only, so the same object on both
    # sides is not alpha-equal to itself there
    a, body = ident("a"), Var(x)
    assert not alpha_equal(Lam(x, INT, body), Lam(ident("y"), INT, body))
    assert alpha_equal(Lam(x, INT, body), Lam(x, INT, body))
    pbody = Forall(x, TVar(a), Top())
    assert not alpha_equal(PiType(a, pbody), PiType(ident("b"), pbody))


def _binder_nest(depth, name, leaf_names):
    """Two type binders over depth term binders, cycling lam/forall/exists
    at int and the outer type variable; name(i) names the i-th binder and
    the leaf equates the variables leaf_names names, and a free c."""
    ta, tb = name("T", 0), name("T", 1)
    kinds = (Lam, Forall, Exists)
    t = conj(eq(Var(ident("c")), Var(ident("c"))),
             app(*(Var(n) for n in leaf_names)))
    for i in reversed(range(depth)):
        t = kinds[i % 3](name("x", i), INT if i % 2 else TVar(ta), t)
    return PiType(ta, PiType(tb, t))


def test_alpha_compares_a_deep_binder_nest():
    # binder maps are set and restored in place, not copied per binder;
    # one side reuses seven names, so each binder shadows an outer one
    depth = 2000
    last = {i % 7: i for i in range(depth)}

    def reused(prefix, i):
        return ident(f"{prefix}{i % 7}")

    def fresh(prefix, i):
        return ident(f"{prefix.lower()}_{i}")

    a = _binder_nest(depth, reused, [reused("x", k) for k in range(7)])
    b = _binder_nest(depth, fresh, [fresh("x", last[k]) for k in range(7)])
    changed = [fresh("x", last[k]) for k in range(7)]
    changed[3] = fresh("x", last[3] - 7)
    c = _binder_nest(depth, fresh, changed)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * depth))
    try:
        outcomes = [alpha_equal(a, b), alpha_equal(b, a),
                    alpha_equal(a, c), alpha_equal(c, b)]
    finally:
        sys.setrecursionlimit(old)
    assert outcomes == [True, True, False, False]


@settings(max_examples=200, deadline=None)
@given(terms)
def test_alpha_reflexive(t):
    assert alpha_equal(t, t)


@settings(max_examples=200, deadline=None)
@given(terms)
def test_alpha_rename_invariant(t):
    r = rename_bound(t)
    assert db_term(t) == db_term(r)
    assert alpha_equal(t, r)
    assert alpha_equal(r, t)


@settings(max_examples=400, deadline=None)
@given(terms, terms)
def test_alpha_agrees_with_debruijn_oracle(t1, t2):
    assert alpha_equal(t1, t2) == (db_term(t1) == db_term(t2))


# ---------------------------------------------------------------------------
# Substitution


def _times(a, b):
    return app(Var(ident("*")), a, b)


def _plus(a, b):
    return app(Var(ident("+")), a, b)


def test_subst_instantiation_example():
    # p (4*i+1) with i := x*x+x gives p (4*(x*x+x)+1)
    i, x, p = ident("i"), ident("x"), ident("p")
    body = app(Var(p), _plus(_times(IntLit(4), Var(i)), IntLit(1)))
    witness = _plus(_times(Var(x), Var(x)), Var(x))
    got = subst_term(body, i, witness)
    want = app(Var(p), _plus(_times(IntLit(4), witness), IntLit(1)))
    assert alpha_equal(got, want)
    sig = {p: arrow(INT, PROP), x: INT}
    assert typecheck({}, sig, got) == PROP


def test_subst_avoids_capture():
    x, y = ident("x"), ident("y")
    t = Forall(y, INT, eq(Var(x), Var(y)))
    got = subst_term(t, x, Var(y))
    assert isinstance(got, Forall)
    assert got.var != y  # binder was renamed
    assert y in free_vars(got)
    assert alpha_equal(got, Forall(ident("z"), INT, eq(Var(y), Var(ident("z")))))


def test_subst_shadowed_is_noop():
    x = ident("x")
    t = Lam(x, INT, Var(x))
    assert subst_term(t, x, IntLit(7)) == t


@settings(max_examples=200, deadline=None)
@given(terms, st.sampled_from(_names))
def test_subst_nonfree_identity(t, x):
    if x in free_vars(t):
        t = Lam(x, INT, t)  # now x is not free
    assert alpha_equal(subst_term(t, x, IntLit(9)), t)


@settings(max_examples=300, deadline=None)
@given(terms, st.sampled_from(_names))
def test_subst_free_vars_equation(t, x):
    u = Var(ident("fresh_free"))
    got = free_vars(subst_term(t, x, u))
    want = free_vars(t) - {x}
    if x in free_vars(t):
        want = want | {ident("fresh_free")}
    assert got == want


def test_substitution_leaves_no_cyclic_garbage():
    # the walkers take their state as arguments: no closure refers to
    # itself, so a call frees what it built without the cycle collector
    x, y, a = ident("x"), ident("y"), ident("a")
    p = Var(ident("p"))
    body = Forall(y, TVar(a), app(p, Var(x), Var(y)))
    gc.collect()
    gc.disable()
    try:
        # the witness mentions y, so the binder is renamed on the way
        assert subst_term(body, x, Var(y)).var != y
        subst_type(PiType(a, body), a, INT)
        subst_type(body, a, INT)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_subst_type_in_annotations():
    a, x = ident("a"), ident("x")
    t = Forall(x, TVar(a), eq(Var(x), Var(x)))
    got = subst_type(t, a, INT)
    assert got == Forall(x, INT, eq(Var(x), Var(x)))
    assert a not in type_vars(got.ty)


def test_subst_type_respects_pi_shadowing():
    a = ident("a")
    t = PiType(a, Forall(ident("x"), TVar(a), Top()))
    assert subst_type(t, a, INT) == t


def test_type_utilities():
    a, b = ident("a"), ident("b")
    ty = arrow(TVar(a), TApp(ident("set"), (TVar(b),)), TVar(a))
    assert type_vars(ty) == (a, b)
    assert not type_vars(subst_in_type(ty, {a: INT, b: PROP}))


# ---------------------------------------------------------------------------
# Typing rules


@pytest.mark.parametrize(
    "rule,types,sig,term,expected",
    typing_cases.POSITIVE,
    ids=[f"{c[0]}-{k}" for k, c in enumerate(typing_cases.POSITIVE)])
def test_typing_positive(rule, types, sig, term, expected):
    assert typecheck(types, sig, term) == expected


@pytest.mark.parametrize(
    "rule,types,sig,term",
    typing_cases.NEGATIVE,
    ids=[f"{c[0]}-{k}" for k, c in enumerate(typing_cases.NEGATIVE)])
def test_typing_negative(rule, types, sig, term):
    with pytest.raises(TypingError):
        typecheck(types, sig, term)


def test_typing_case_tables_cover_every_rule():
    pos = {c[0] for c in typing_cases.POSITIVE}
    neg = {c[0] for c in typing_cases.NEGATIVE}
    assert pos == neg == set(typing_cases.RULES)


def test_annotate_records_instances():
    # mem green (add red (add green empty)) instantiates every scheme at color
    color = TApp(ident("color"), ())

    def set_of(ty):
        return TApp(ident("set"), (ty,))

    a = TVar(ident("a"))
    types = {ident("color"): 0, ident("set"): 1}
    sig = {
        ident("red"): color,
        ident("green"): color,
        ident("blue"): color,
        ident("empty"): set_of(a),
        ident("add"): arrow(a, set_of(a), set_of(a)),
        ident("mem"): arrow(a, set_of(a), PROP),
    }
    goal = app(Var(ident("mem")), Var(ident("green")),
               app(Var(ident("add")), Var(ident("red")),
                   app(Var(ident("add")), Var(ident("green")),
                       Var(ident("empty")))))
    info = annotate(types, sig, goal)
    assert info.type == PROP
    # mem, add, add, empty: four scheme occurrences, all at color
    assert len(info.inst) == 4
    assert all(inst == (color,) for inst in info.inst.values())


@pytest.mark.parametrize("term", [
    Forall(ident("c"), INT, Top()),
    Forall(ident("x"), INT, conj(Top(), Exists(ident("x"), INT, Top()))),
], ids=["declared-symbol", "outer-binder"])
def test_annotate_refuses_a_shadowing_binder(term):
    with pytest.raises(TypingError,
                       match=r"^binder \S+ shadows a declared symbol$"):
        annotate({}, {ident("c"): INT}, term)


def test_a_binder_leaves_scope_with_its_body():
    # sibling binders may reuse a name, and a name bound on the left is
    # unbound on the right
    x = ident("x")
    body = eq(Var(x), IntLit(0))
    assert annotate({}, {}, conj(Forall(x, INT, body),
                                 Exists(x, INT, body))).type == PROP
    with pytest.raises(TypingError, match="unbound variable x"):
        annotate({}, {}, conj(Forall(x, INT, body), body))


def test_annotate_types_a_deep_binder_nest():
    # one scope map for every binder, not a copy of the environment per
    # binder (quadratic: 0.13 s at depth 2 000, 3.3 s at 8 000)
    depth = 2000
    xs = [ident(f"x{i}") for i in range(depth)]
    t = eq(Var(xs[0]), Var(xs[-1]))
    for x in reversed(xs):
        t = Forall(x, INT, t)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * depth))
    try:
        info = annotate({}, {}, t)
    finally:
        sys.setrecursionlimit(old)
    assert info.type == PROP
    assert info.inst == {(0,) * depth + (0, 0): (INT,)}


def test_annotate_refuses_an_ambiguous_instance():
    # nothing fixes the type empty = empty equates at: the first occurrence
    # in walk order whose instance is still open is named, with its path
    a = TVar(ident("a"))
    sig = {ident("empty"): TApp(ident("set"), (a,)),
           ident("evens"): TApp(ident("set"), (INT,))}
    I = {ident("set"): 1}
    with pytest.raises(TypingError,
                       match=r"^instance of = at \[0, 0\] is ambiguous$"):
        annotate(I, sig, eq(Var(ident("empty")), Var(ident("empty"))))
    # one side of known type fixes every instance; none is guessed
    info = annotate(I, sig, eq(Var(ident("empty")), Var(ident("evens"))))
    assert info.type == PROP
    assert info.inst == {(0, 0): (TApp(ident("set"), (INT,)),),
                         (0, 1): (INT,)}
    # the required type fixes what the term leaves open
    with pytest.raises(TypingError, match=r"instance of empty at \[\]"):
        annotate(I, sig, Var(ident("empty")))
    assert annotate(I, sig, Var(ident("empty")),
                    TApp(ident("set"), (INT,))).inst == {(): (INT,)}


def test_prenex_quantification_scopes_body():
    a, x = ident("a"), ident("x")
    t = PiType(a, Forall(x, TVar(a), eq(Var(x), Var(x))))
    assert typecheck({}, {}, t) == PROP
    # the same body without the prefix leaves a free type variable
    with pytest.raises(TypingError):
        typecheck({}, {}, Forall(x, TVar(a), eq(Var(x), Var(x))))


# ---------------------------------------------------------------------------
# Checking applications against the naive reference


_ELEM = TApp(ident("elem"), ())
_TA, _TB = TVar(ident("a")), TVar(ident("b"))


def _box(ty):
    return TApp(ident("box"), (ty,))


_REF_TYPES = {ident("elem"): 0, ident("box"): 1}
_REF_SIG = {
    ident("wrap"): arrow(_TA, _box(_TA)),
    ident("unwrap"): arrow(_box(_TA), _TA),
    ident("choose"): _TA,
    ident("rel"): arrow(_TA, _TB, PROP),
    ident("p"): arrow(_ELEM, PROP),
    ident("g"): arrow(_ELEM, _ELEM, _ELEM),
    ident("h"): arrow(arrow(INT, PROP), PROP),
    ident("c"): _ELEM,
    ident("q"): PROP,
}
_GROUND = [INT, PROP, _ELEM, _box(_ELEM), _box(INT), arrow(INT, PROP),
           arrow(_ELEM, _ELEM)]


@st.composite
def _typed(draw, ty, depth, env, tvars=(), known=False):
    """A term of type ty whose bound names are env's (name -> type);
    annotations range over the ground types and the type variables tvars.
    known: the term's context fixes its type, as a monomorphic head fixes
    its argument's; otherwise the term alone determines every instance in
    it, so it is accepted with or without a required type."""
    anns = _GROUND + [TVar(a) for a in tvars] + [_box(TVar(a)) for a in tvars]
    x = ident(f"x{len(env)}")  # fresh: the binders above use x0 .. x{n-1}
    # the leaves of type ty: choose fits any type, at an instance left to
    # inference, where the context fixes it, and otherwise under an
    # identity redex annotated with ty; a bound name fits its own type
    leaves = [var("choose") if known else app(Lam(x, ty, Var(x)), var("choose"))]
    leaves += [Var(x) for x, t in env.items() if t == ty]
    if ty == INT:
        leaves.append(IntLit(draw(st.integers(-2, 9))))
    elif ty == PROP:
        leaves += [Top(), Bottom(), var("q")]
    elif ty == _ELEM:
        leaves.append(var("c"))
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(leaves))

    def sub(t, extra=None, known=True):
        inner = env if extra is None else {**env, **extra}
        return draw(_typed(t, depth - 1, inner, tvars, known))

    some = draw(st.sampled_from(anns))
    # choose applied: only its context can fix the type of its result
    kinds = ["unwrap", "redex"] + (["over"] if known else [])
    if ty == PROP:
        kinds += ["not", "binop", "eq", "lt", "p", "quant", "h", "rel"]
    elif ty == INT:
        kinds.append("plus")
    elif ty == _ELEM:
        kinds.append("g")
    elif isinstance(ty, TApp) and ty.head == ident("box"):
        kinds.append("wrap")
    elif isinstance(ty, Arrow):
        kinds += ["lam", "partial"]
    kind = draw(st.sampled_from(kinds))
    if kind == "unwrap":
        return app(var("unwrap"), sub(_box(ty), known=known))
    if kind == "redex":  # a lambda head: its arrow is known
        return app(Lam(x, some, sub(ty, {x: some}, known)), sub(some))
    if kind == "over":  # a head whose type inference has yet to find
        return app(var("choose"), sub(some, known=False))
    if kind == "not":
        return Not(sub(PROP))
    if kind == "binop":
        return BinOp(draw(st.sampled_from(["and", "or", "imp", "iff"])),
                     sub(PROP), sub(PROP))
    if kind == "eq":  # one side fixes the instance of =
        return eq(sub(some, known=False), sub(some))
    if kind == "lt":
        return app(var("<"), sub(INT), sub(INT))
    if kind == "p":
        return app(var("p"), sub(_ELEM))
    if kind == "quant":
        return draw(st.sampled_from([Forall, Exists]))(
            x, some, sub(PROP, {x: some}))
    if kind == "h":
        return app(var("h"), sub(arrow(INT, PROP)))
    if kind == "rel":
        return app(var("rel"), sub(some, known=False),
                   sub(draw(st.sampled_from(anns)), known=False))
    if kind == "plus":
        return app(var("+"), sub(INT), sub(INT))
    if kind == "g":
        return app(var("g"), sub(_ELEM), sub(_ELEM))
    if kind == "wrap":
        return app(var("wrap"), sub(ty.args[0], known=known))
    if kind == "lam":
        return Lam(x, ty.left, sub(ty.right, {x: ty.left}, known))
    # a partial application of a two-argument symbol; the arrows of
    # _GROUND are int -> prop and elem -> elem. Only the context can fix
    # the type of rel's second argument
    if ty == arrow(_ELEM, _ELEM):
        return app(var("g"), sub(_ELEM))
    heads = [var("<"), var("=")] + ([var("rel")] if known else [])
    return app(draw(st.sampled_from(heads)), sub(INT, known=False))


@st.composite
def _well_typed(draw):
    """(term, its type): a formula under a prenex prefix of zero to two
    type variables, or a term of any ground type."""
    tvars = draw(st.sampled_from([(), (), (ident("a"),),
                                  (ident("a"), ident("b"))]))
    if tvars:
        body = draw(_typed(PROP, 5, {}, tvars, known=True))
        for a in reversed(tvars):
            body = PiType(a, body)
        return body, PROP
    ty = draw(st.sampled_from(_GROUND))
    return draw(_typed(ty, 5, {})), ty


def _kids(t):
    return (t.body,) if isinstance(t, (Not, Lam, Exists, Forall, PiType)) \
        else (t.left, t.right) if isinstance(t, BinOp) \
        else (t.fn, t.arg) if isinstance(t, App) else ()


def _paths(t, path=()):
    yield path
    for i, k in enumerate(_kids(t)):
        yield from _paths(k, path + (i,))


def _replace(t, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(t, BinOp):
        return BinOp(t.op, _replace(t.left, rest, new) if i == 0 else t.left,
                     _replace(t.right, rest, new) if i == 1 else t.right)
    if isinstance(t, App):
        return App(_replace(t.fn, rest, new) if i == 0 else t.fn,
                   _replace(t.arg, rest, new) if i == 1 else t.arg)
    if isinstance(t, Not):
        return Not(_replace(t.body, rest, new))
    if isinstance(t, PiType):
        return PiType(t.var, _replace(t.body, rest, new))
    return type(t)(t.var, t.ty, _replace(t.body, rest, new))


_MUTANT_LEAVES = [IntLit(1), Top(), var("c"), var("q"), var("p"),
                  var("wrap"), var("choose"), var("x0"), var("nope")]


@st.composite
def _mutant(draw):
    """A well-typed term with one subterm replaced, applied to one more
    argument, or put under a type quantifier: mostly ill-typed."""
    t, _ = draw(_well_typed())
    path = draw(st.sampled_from(list(_paths(t))))
    old = t
    for i in path:
        old = _kids(old)[i]
    how = draw(st.sampled_from(["leaf", "over", "pi", "ann"]))
    if how == "leaf":
        new = draw(st.sampled_from(_MUTANT_LEAVES))
    elif how == "over":
        new = App(old, draw(st.sampled_from(_MUTANT_LEAVES)))
    elif how == "pi":
        new = PiType(ident("a"), old)
    elif isinstance(old, (Lam, Exists, Forall)):
        new = type(old)(old.var, draw(st.sampled_from(
            [TVar(ident("z")), TApp(ident("box"), ()), TApp(ident("nope"), ()),
             arrow(_ELEM, _box(_TA))])), old.body)
    else:
        new = app(var("p"), old)
    return _replace(t, path, new)


def _agree(types, sig, t, expected=None) -> bool:
    """annotate and the reference accept t alike, with equal Typings, or
    refuse it alike, with one message up to the numbering of metas."""
    try:
        want = oracles.ref_annotate(types, sig, t, expected)
    except oracles.Refused as refused:
        with pytest.raises(TypingError) as got:
            annotate(types, sig, t, expected)
        assert re.sub(r"\?\d+", "?", str(got.value)) == str(refused)
        return False
    info = annotate(types, sig, t, expected)
    assert (info.type, info.inst, info.iotas, info.body) == want
    return True


@settings(max_examples=300, deadline=None)
@given(_well_typed(), st.booleans())
def test_annotate_accepts_what_the_reference_accepts(case, against):
    t, ty = case
    assert _agree(_REF_TYPES, _REF_SIG, t, ty if against else None)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_mutant(), terms), st.sampled_from([None, PROP, INT]))
def test_annotate_refuses_what_the_reference_refuses(t, expected):
    _agree(_REF_TYPES, _REF_SIG, t, expected)


@pytest.mark.parametrize(
    "case", typing_cases.POSITIVE + typing_cases.NEGATIVE,
    ids=[f"{c[0]}-{k}" for k, c in enumerate(
        typing_cases.POSITIVE + typing_cases.NEGATIVE)])
def test_annotate_agrees_with_the_reference_on_the_case_tables(case):
    _, types, sig, term = case[:4]
    assert _agree(types, sig, term) == (len(case) == 5)


def test_an_application_checks_against_a_known_domain(unifier_counts):
    # every head has an arrow type: its argument is checked against the
    # domain, and no metavariable is made (five when each application
    # made one); the two unifications are the binder's
    # own int() against the interpreted int() of *, and the quantifier's
    # body against prop
    t = sexpr.term_from_sexpr(sexpr.loads(
        "(forall (z (int)) (p (+ (* z 3) 7)))"))
    assert annotate({}, {ident("p"): arrow(INT, PROP)}, t).type == PROP
    assert (unifier_counts["fresh"], unifier_counts["unify"]) == (0, 2)
    # a polymorphic occurrence makes one meta per type variable of its
    # scheme, and each argument is checked against one of them
    unifier_counts.clear()
    info = annotate({}, _REF_SIG, app(var("rel"), IntLit(1), Top()))
    assert info.inst == {(0, 0): (INT, PROP)}
    assert (unifier_counts["fresh"], unifier_counts["unify"]) == (2, 2)
    # a head whose type is still a meta is applied as before: one meta for
    # its result, unified with the required type
    unifier_counts.clear()
    info = annotate({}, _REF_SIG, app(var("choose"), IntLit(1)), PROP)
    assert info.inst == {(0,): (arrow(INT, PROP),)}
    assert (unifier_counts["fresh"], unifier_counts["unify"]) == (2, 2)
