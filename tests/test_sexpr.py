"""S-expression reader, printer and the AST converters."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from certforge.core import (
    INT,
    PROP,
    App,
    Arrow,
    BinOp,
    Bottom,
    Exists,
    Forall,
    IntLit,
    Lam,
    Not,
    PiType,
    TApp,
    TVar,
    Top,
    app,
    eq,
    ident,
    imp,
    var,
)
from certforge.sexpr import (
    SexprError,
    dumps,
    loads,
    loads_many,
    task_from_sexpr,
    task_to_sexpr,
    term_from_sexpr,
    term_to_sexpr,
    type_from_sexpr,
    type_to_sexpr,
)
from certforge.task import Premise, Task, gen_chain_task

# -- reader ------------------------------------------------------------------


def test_loads_atoms():
    assert loads("42") == 42
    assert loads("-7") == -7
    assert loads("#t") is True
    assert loads("#f") is False
    assert loads("foo") == "foo"
    assert loads("x#3") == "x#3"


def test_loads_nesting():
    assert loads("(a (b 1) ())") == ["a", ["b", 1], []]


def test_loads_comments_and_whitespace():
    text = "; heading\n( a ; trailing\n  b )\n"
    assert loads(text) == ["a", "b"]


def test_loads_many():
    assert loads_many("1 2 (3)") == [1, 2, [3]]


def test_unclosed_paren_reports_position():
    with pytest.raises(SexprError) as e:
        loads("(a (b)")
    assert str(e.value) == "1:1: unclosed ("


def test_unmatched_close_reports_position():
    with pytest.raises(SexprError) as e:
        loads_many("(a)\n )")
    assert str(e.value) == "2:2: unmatched )"


# a tab and a \r count one column each, a comment none: it runs to the \n
@pytest.mark.parametrize("text, message", [
    ("\t(a", "1:2: unclosed ("),
    ("(a)\r\n\t)", "2:2: unmatched )"),
    ("(a)\r\n(b\t(c)", "2:1: unclosed ("),
    ("; note (\n  )", "2:3: unmatched )"),
    ("(a ; )\n(b)", "1:1: unclosed ("),
    ("x ;)\n\t\t)", "2:3: unmatched )"),
], ids=["tab", "crlf-close", "crlf-open", "comment-open", "comment-close",
        "comment-tabs"])
def test_error_position_is_line_and_column(text, message):
    with pytest.raises(SexprError) as e:
        loads_many(text)
    assert str(e.value) == message


@pytest.mark.parametrize("ch", ["\x0b", "\x0c", "\xa0"])
def test_only_space_tab_cr_lf_end_a_symbol(ch):
    # whitespace to str.split and to \s in a regex, yet a symbol character
    symbol = f"a{ch}b"
    assert loads(symbol) == symbol
    assert loads(f"(f {symbol})") == ["f", symbol]
    assert dumps(symbol) == symbol
    assert loads(dumps(["f", symbol])) == ["f", symbol]


def test_integers_are_ascii_digits():
    # other characters str.isdigit accepts are symbols, not an int() crash
    assert loads("-12") == -12
    assert loads("\u00b2") == "\u00b2"
    assert loads("-\u0661\u0662") == "-\u0661\u0662"


def test_loads_wants_exactly_one():
    with pytest.raises(SexprError):
        loads("1 2")
    with pytest.raises(SexprError):
        loads("")


def test_dumps_rejects_bad_symbols():
    with pytest.raises(SexprError):
        dumps("has space")
    with pytest.raises(SexprError):
        dumps("paren(")


_atoms = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    st.sampled_from(["a", "b", "foo", "x#2", "<=", "->"]),
)
_data = st.recursive(_atoms, lambda c: st.lists(c, max_size=4), max_leaves=20)


@given(_data)
def test_dumps_loads_roundtrip(x):
    assert loads(dumps(x)) == x


# -- types -------------------------------------------------------------------

_tnames = st.sampled_from(["a", "b"])
_types = st.recursive(
    st.one_of(
        st.just(PROP),
        st.just(INT),
        _tnames.map(lambda n: TVar(ident(n))),
    ),
    lambda c: st.one_of(
        st.tuples(c, c).map(lambda p: Arrow(*p)),
        st.lists(c, max_size=2).map(lambda args: TApp(ident("set"), tuple(args))),
    ),
    max_leaves=8,
)


def test_type_sexpr_hand():
    assert dumps(type_to_sexpr(PROP)) == "prop"
    assert dumps(type_to_sexpr(INT)) == "(int)"
    assert dumps(type_to_sexpr(TVar(ident("a")))) == "a"
    ty = Arrow(TVar(ident("a")), Arrow(TApp(ident("set"), (TVar(ident("a")),)), PROP))
    assert dumps(type_to_sexpr(ty)) == "(-> a (set a) prop)"
    assert type_from_sexpr(loads("(-> a (set a) prop)")) == ty


@given(_types)
def test_type_sexpr_roundtrip(ty):
    assert type_from_sexpr(type_to_sexpr(ty)) == ty
    assert type_from_sexpr(loads(dumps(type_to_sexpr(ty)))) == ty


def test_type_sexpr_bad():
    with pytest.raises(SexprError):
        type_from_sexpr(loads("(->)"))
    with pytest.raises(SexprError):
        type_from_sexpr(loads("()"))
    with pytest.raises(SexprError):
        type_from_sexpr(3)


# -- terms -------------------------------------------------------------------

_vnames = st.sampled_from(["x", "y", "f", "g"])
_terms = st.recursive(
    st.one_of(
        _vnames.map(var),
        st.integers(-99, 99).map(IntLit),
        st.just(Top()),
        st.just(Bottom()),
    ),
    lambda c: st.one_of(
        c.map(Not),
        st.tuples(st.sampled_from(["and", "or", "imp", "iff"]), c, c).map(
            lambda p: BinOp(*p)),
        st.tuples(c, c).map(lambda p: App(*p)),
        st.tuples(_vnames, _types, c).map(lambda p: Lam(ident(p[0]), p[1], p[2])),
        st.tuples(_vnames, _types, c).map(lambda p: Forall(ident(p[0]), p[1], p[2])),
        st.tuples(_vnames, _types, c).map(lambda p: Exists(ident(p[0]), p[1], p[2])),
        st.tuples(_tnames, c).map(lambda p: PiType(ident(p[0]), p[1])),
    ),
    max_leaves=10,
)


def test_term_sexpr_hand():
    t = Forall(ident("x"), INT, imp(app(var("p"), var("x")), Bottom()))
    assert dumps(term_to_sexpr(t)) == "(forall (x (int)) (imp (p x) false))"
    assert term_from_sexpr(loads("(forall (x (int)) (imp (p x) false))")) == t
    assert dumps(term_to_sexpr(eq(var("x"), IntLit(1)))) == "(= x 1)"
    assert term_from_sexpr(loads("(= x 1)")) == eq(var("x"), IntLit(1))
    assert dumps(term_to_sexpr(app(var("f"), var("x"), var("y")))) == "(f x y)"
    assert dumps(term_to_sexpr(PiType(ident("a"), Top()))) == "(pi a true)"


def test_term_sexpr_arith():
    t = app(var("+"), app(var("*"), IntLit(4), var("i")), IntLit(1))
    s = dumps(term_to_sexpr(t))
    assert s == "(+ (* 4 i) 1)"
    assert term_from_sexpr(loads(s)) == t


@given(_terms)
def test_term_sexpr_roundtrip(t):
    assert term_from_sexpr(term_to_sexpr(t)) == t
    assert term_from_sexpr(loads(dumps(term_to_sexpr(t)))) == t


def test_term_sexpr_bad():
    with pytest.raises(SexprError):
        term_from_sexpr(loads("(forall x true)"))
    with pytest.raises(SexprError):
        term_from_sexpr(loads("(and true)"))
    with pytest.raises(SexprError):
        term_from_sexpr(loads("()"))


# -- tasks -------------------------------------------------------------------


def _set_task() -> Task:
    al = ident("al")
    a = TVar(al)
    seta = TApp(ident("set"), (a,))
    return Task(
        types=((ident("color"), 0), (ident("set"), 1)),
        sig=(
            (ident("red"), TApp(ident("color"), ())),
            (ident("empty"), seta),
            (ident("mem"), Arrow(a, Arrow(seta, PROP))),
        ),
        hyps=(
            Premise(ident("H"), PiType(al, Forall(ident("x"), a, app(
                var("mem"), var("x"), app(var("empty")))))),
        ),
        goals=(Premise(ident("G"), app(var("mem"), var("red"), var("empty"))),),
    )


def test_task_sexpr_roundtrip_hand():
    T = _set_task()
    assert task_from_sexpr(task_to_sexpr(T)) == T
    text = dumps(task_to_sexpr(T))
    assert task_from_sexpr(loads(text)) == T


@pytest.mark.parametrize("n", [1, 4, 9])
def test_task_sexpr_roundtrip_chain(n):
    T = gen_chain_task(n)
    assert task_from_sexpr(task_to_sexpr(T)) == T


def test_task_sexpr_sections_checked():
    with pytest.raises(SexprError):
        task_from_sexpr(loads("(task (types) (sig) (hyps))"))
    with pytest.raises(SexprError):
        task_from_sexpr(loads("(task (types) (sig) (hyps) (oops))"))
    with pytest.raises(SexprError):
        task_from_sexpr(loads("(job (types) (sig) (hyps) (goals))"))


# ---------------------------------------------------------------------------
# printing deep nesting

_DEEP = 30_000


def _print_under_default_limit(show, value):
    # the default limit is far below the nesting depth, and the suite may
    # have raised it; a printer that recursed per level fails (caught here,
    # as pytest renders such tracebacks slowly)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return show(value)
    except RecursionError as e:
        return type(e).__name__
    finally:
        sys.setrecursionlimit(old)


def test_a_deep_goal_prints_without_recursion():
    goal = var("p")
    for _ in range(_DEEP):
        goal = Not(goal)
    T = Task(sig=((ident("p"), PROP),), goals=(Premise(ident("G"), goal),))
    printed = _print_under_default_limit(
        lambda T: dumps(task_to_sexpr(T)), T)
    assert printed == ("(task (types) (sig (p prop)) (hyps) (goals (G "
                       + "(not " * _DEEP + "p" + ")" * _DEEP + ")))")


def _nest(wrap, leaf):
    t = leaf
    for _ in range(_DEEP):
        t = wrap(t)
    return t


@pytest.mark.parametrize("term, text", [
    (_nest(lambda t: app(var("f"), t), var("x")),
     "(f " * _DEEP + "x" + ")" * _DEEP),
    (_nest(lambda t: Forall(ident("x"), INT, t), Top()),
     "(forall (x (int)) " * _DEEP + "true" + ")" * _DEEP),
], ids=["application", "binder"])
def test_a_deep_term_prints_without_recursion(term, text):
    assert _print_under_default_limit(
        lambda t: dumps(term_to_sexpr(t)), term) == text


@pytest.mark.parametrize("ty, text", [
    (_nest(lambda t: Arrow(t, INT), INT),
     "(-> " * _DEEP + "(int)" + " (int))" * _DEEP),
    (_nest(lambda t: TApp(ident("box"), (t,)), TVar(ident("a"))),
     "(box " * _DEEP + "a" + ")" * _DEEP),
], ids=["arrow", "constructor"])
def test_a_deep_type_prints_without_recursion(ty, text):
    assert _print_under_default_limit(
        lambda ty: dumps(type_to_sexpr(ty)), ty) == text
