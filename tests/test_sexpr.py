"""S-expression reader, printer and the AST converters."""

import gc
import itertools
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certforge import core, sexpr

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
    Var,
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
    to_text,
    type_from_sexpr,
)
from certforge.task import Premise, Task, gen_chain_task
from oracles import ref_task_form, ref_term_form, ref_type_form

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
    assert to_text(PROP) == "prop"
    assert to_text(INT) == "(int)"
    assert to_text(TVar(ident("a"))) == "a"
    ty = Arrow(TVar(ident("a")), Arrow(TApp(ident("set"), (TVar(ident("a")),)), PROP))
    assert to_text(ty) == "(-> a (set a) prop)"
    assert type_from_sexpr(loads("(-> a (set a) prop)")) == ty


@given(_types)
def test_type_sexpr_roundtrip(ty):
    assert str(ty) == to_text(ty) == dumps(ref_type_form(ty))
    assert type_from_sexpr(ref_type_form(ty)) == ty
    assert type_from_sexpr(loads(to_text(ty))) == ty


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
    assert to_text(t) == "(forall (x (int)) (imp (p x) false))"
    assert term_from_sexpr(loads("(forall (x (int)) (imp (p x) false))")) == t
    assert to_text(eq(var("x"), IntLit(1))) == "(= x 1)"
    assert term_from_sexpr(loads("(= x 1)")) == eq(var("x"), IntLit(1))
    assert to_text(app(var("f"), var("x"), var("y"))) == "(f x y)"
    assert to_text(PiType(ident("a"), Top())) == "(pi a true)"


def test_term_sexpr_arith():
    t = app(var("+"), app(var("*"), IntLit(4), var("i")), IntLit(1))
    s = to_text(t)
    assert s == "(+ (* 4 i) 1)"
    assert term_from_sexpr(loads(s)) == t


@given(_terms)
def test_term_sexpr_roundtrip(t):
    assert str(t) == to_text(t) == dumps(ref_term_form(t))
    assert term_to_sexpr(t) == ref_term_form(t)
    assert term_from_sexpr(term_to_sexpr(t)) == t
    assert term_from_sexpr(loads(to_text(t))) == t


def test_term_sexpr_bad():
    with pytest.raises(SexprError):
        term_from_sexpr(loads("(forall x true)"))
    with pytest.raises(SexprError):
        term_from_sexpr(loads("(and true)"))
    with pytest.raises(SexprError):
        term_from_sexpr(loads("()"))


@pytest.mark.parametrize("t", [
    app(var("not"), var("p")),
    app(var("and"), var("p"), var("q")),
    app(var("forall"), var("p")),
    app(var("pi"), var("a"), var("p")),
    app(var("="), var("p")),
    app(var("="), var("p"), var("q"), var("r")),
])
def test_an_application_of_a_keyword_is_refused(t):
    # (not p) would read back as Not(p); (= p) and (= p q r) not at all
    head = t
    while isinstance(head, App):
        head = head.fn
    with pytest.raises(SexprError, match=f"an application of {head.name} "):
        sexpr.to_text(t)


@pytest.mark.parametrize("t", [
    app(var("="), var("p"), var("q")),
    app(var("f"), var("not"), var("lam")),
    var("and"),
    app(var("not#1"), var("p")),
    Not(var("iff")),
])
def test_a_keyword_name_the_reader_reads_back_is_printed(t):
    # a keyword is read as a name anywhere but at the head of a list, and
    # = heads its application to two arguments
    text = sexpr.to_text(t)
    assert text == str(t) == dumps(ref_term_form(t))
    assert sexpr.read_text(sexpr.read_term, text) == t


def test_a_type_applying_the_arrow_is_refused():
    # (-> prop prop) reads back as Arrow(prop, prop)
    with pytest.raises(SexprError, match="reads as an arrow"):
        sexpr.to_text(TApp(ident("->"), (PROP, PROP)))


# names to_text refuses or reads back as something else, built as they are
# (Ident("x#3") has uid 0), beside ordinary ones
_hostile = st.sampled_from(
    ["12", "#t", "a b", "x#3", "", "true", "false", "prop", "not", "and",
     "forall", "pi", "=", "->", "p", "q"]).map(Ident) \
    | st.just(Ident("x", 3))
_hostile_types = st.recursive(
    st.one_of(st.just(PROP), _hostile.map(TVar),
              st.integers(0, 9).map(core._Meta)),
    lambda c: st.one_of(
        st.tuples(c, c).map(lambda p: Arrow(*p)),
        st.tuples(_hostile, st.lists(c, max_size=2)).map(
            lambda p: TApp(p[0], tuple(p[1])))),
    max_leaves=6)
_hostile_terms = st.recursive(
    st.one_of(_hostile.map(Var), st.integers(-9, 9).map(IntLit),
              st.just(Top()), st.just(Bottom())),
    lambda c: st.one_of(
        c.map(Not),
        st.tuples(st.sampled_from(["and", "or", "imp", "iff"]), c, c).map(
            lambda p: BinOp(*p)),
        st.tuples(c, c).map(lambda p: App(*p)),
        st.tuples(st.sampled_from([Lam, Forall, Exists]), _hostile,
                  _hostile_types, c).map(lambda p: p[0](*p[1:])),
        st.tuples(_hostile, c).map(lambda p: PiType(*p))),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_hostile_types.map(lambda ty: (ty, ref_type_form)),
                 _hostile_terms.map(lambda t: (t, ref_term_form))))
def test_str_prints_any_name_and_notes_none(case):
    # a message quotes a type or term with str(), which must not raise; it
    # prints as the reference printed wherever that printed (not a name
    # with whitespace or an empty one), and learns no name for the reader
    value, ref_form = case
    known = dict(sexpr._IDENTS)
    text = str(value)
    assert sexpr._IDENTS == known
    try:
        want = dumps(ref_form(value))
    except SexprError:
        return
    assert text == want


def test_str_prints_what_to_text_refuses():
    for value, text in [
            (app(var("not"), var("p")), "(not p)"),
            (Var(Ident("x#3")), "x#3"),
            (Forall(Ident("a b"), TVar(Ident("prop")), var("true")),
             "(forall (a b prop) true)"),
            (TApp(ident("->"), (PROP, core._Meta(3))), "(-> prop ?3)")]:
        assert str(value) == text
        with pytest.raises(SexprError):
            sexpr.to_text(value)


@pytest.mark.parametrize("text, message", [
    ("(not)", "not takes one argument"),
    ("(not a b)", "not takes one argument"),
    ("(and true)", "and takes two arguments"),
    ("(or a b c)", "or takes two arguments"),
    ("(= x)", "= takes two arguments"),
    ("(pi (a) true)", "pi expects (pi a body)"),
    ("(pi a)", "pi expects (pi a body)"),
    ("(forall x true)", "forall expects (forall (x type) body)"),
    ("(forall (1 (int)) true)", "forall expects (forall (x type) body)"),
    ("(forall (x (int) y) true)", "forall expects (forall (x type) body)"),
    ("(lam (x (int)))", "lam expects (lam (x type) body)"),
    ("(exists (x (-> prop)) true)", "-> needs at least two types"),
    # the outermost list of the wrong shape is named first
    ("(not (and true) x)", "not takes one argument"),
])
def test_a_term_of_the_wrong_shape_is_named_alike_by_both_entries(
        text, message):
    with pytest.raises(SexprError) as e:
        term_from_sexpr(loads(text))
    assert str(e.value) == message
    with pytest.raises(SexprError) as e:
        sexpr.task_loads(f"(task (types) (sig) (hyps) (goals (G {text})))")
    assert str(e.value) == message


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
    assert task_to_sexpr(T) == ref_task_form(T)
    assert task_from_sexpr(task_to_sexpr(T)) == T
    text = to_text(T)
    assert task_from_sexpr(loads(text)) == T


@pytest.mark.parametrize("n", [1, 4, 9])
def test_task_sexpr_roundtrip_chain(n):
    T = gen_chain_task(n)
    assert task_to_sexpr(T) == ref_task_form(T)
    assert task_from_sexpr(task_to_sexpr(T)) == T


def test_task_sexpr_sections_checked():
    with pytest.raises(SexprError):
        task_from_sexpr(loads("(task (types) (sig) (hyps))"))
    with pytest.raises(SexprError):
        task_from_sexpr(loads("(task (types) (sig) (hyps) (oops))"))
    with pytest.raises(SexprError):
        task_from_sexpr(loads("(job (types) (sig) (hyps) (goals))"))


# -- sharing through core's hash-cons table ----------------------------------

# one atom no other read has: a goal made of it dies with its task
_PROBES = (f"probe_{k}" for k in itertools.count())


@st.composite
def _tasks(draw):
    """The text of a task built with core's constructors, apart from any
    read, and a function that builds it again. Its last goal is a probe
    that nothing holds but the task."""
    hyps = draw(st.lists(_terms, max_size=3))
    goals = draw(st.lists(_terms, max_size=2))
    sig = draw(st.lists(_types, max_size=2))
    probe = next(_PROBES)

    def build():
        return Task(
            sig=tuple((ident(f"s{i}"), ty) for i, ty in enumerate(sig)),
            hyps=tuple(Premise(ident(f"H{i}"), t) for i, t in enumerate(hyps)),
            goals=tuple(Premise(ident(f"G{i}"), t)
                        for i, t in enumerate(goals + [var(probe)])))
    return dumps(ref_task_form(build())), build


def _shared(T, U):
    return all(p.formula is q.formula for p, q in zip(T.premises(),
                                                      U.premises())) \
        and all(a[1] is b[1] for a, b in zip(T.sig, U.sig))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_tasks(), st.booleans()), min_size=1, max_size=6))
def test_reads_share_one_table_and_let_go_of_what_they_dropped(steps):
    # each text is read, read again while the first read is held, and
    # either held or dropped and read again; at the end every read is
    # dropped. Reads build through core's constructors, so a read and a
    # task built apart while it lives share every formula and type
    gc.collect()
    gc.disable()
    try:
        held, refs = [], []
        for (text, build), keep in steps:
            T = task_from_sexpr(loads(text))
            assert to_text(T) == text and _shared(T, build())
            again = task_from_sexpr(loads(text))
            assert _shared(T, again)
            # the probe goal: no value read elsewhere holds it
            refs.append(weakref.ref(T.goals[-1].formula))
            if keep:
                held.append((text, T))
            del T, again
            if not keep:
                # its probe's entry is dead now: a miss, overwritten
                assert task_from_sexpr(loads(text)) == build()
        # read again after other reads and drops: still the same value
        assert all(_shared(task_from_sexpr(loads(text)), T)
                   for text, T in held)
        held.clear()
        # no cycle holds a read: dropping it frees it at once
        assert all(r() is None for r in refs)
        before = len(core._TABLE)
        core._sweep()
        # the probes' entries at least are dead, and a sweep leaves none
        assert len(core._TABLE) < before
        assert all(r() is not None for r in core._TABLE.values())
    finally:
        gc.enable()


def test_reads_share_one_ident_per_name_and_keep_at_most_the_cap():
    text = "(task (types (c 0)) (sig (k (c))) (hyps (H true)) (goals (G k)))"
    a, b = sexpr.task_loads(text), sexpr.task_loads(text)
    assert a.types[0][0] is b.types[0][0]
    assert a.sig[0][0] is b.sig[0][0]
    assert a.hyps[0].name is b.hyps[0].name
    # one read of more new names than the table keeps
    names = [f"cap_probe_{k}" for k in range(sexpr._IDENTS_MAX + 10)]
    T = sexpr.task_loads("(task (types) (sig "
                         + " ".join(f"({n} prop)" for n in names)
                         + ") (hyps) (goals))")
    assert [str(n) for n, _ in T.sig] == names
    assert len(sexpr._IDENTS) <= sexpr._IDENTS_MAX


def test_the_tables_are_swept_once_they_have_doubled():
    core._sweep()
    live, mark = len(core._TABLE), core._sweep_at
    assert mark == max(2 * live, core._SWEEP_FLOOR)
    sizes = []
    for k in range(mark - live):
        # an integer no other value holds: one entry, dead once read
        term_from_sexpr(10**12 + k)
        sizes.append(len(core._TABLE))
    # each read leaves one dead entry, until the read that reaches the mark
    # sweeps them all but its own, which it still holds while it sweeps
    assert sizes[:-1] == list(range(live + 1, mark))
    assert sizes[-1] == live + 1


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
        to_text, T)
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
    assert _print_under_default_limit(to_text, term) == text
    assert _print_under_default_limit(str, term) == text


@pytest.mark.parametrize("ty, text", [
    (_nest(lambda t: Arrow(t, INT), INT),
     "(-> " * _DEEP + "(int)" + " (int))" * _DEEP),
    (_nest(lambda t: TApp(ident("box"), (t,)), TVar(ident("a"))),
     "(box " * _DEEP + "a" + ")" * _DEEP),
], ids=["arrow", "constructor"])
def test_a_deep_type_prints_without_recursion(ty, text):
    assert _print_under_default_limit(to_text, ty) == text
    assert _print_under_default_limit(str, ty) == text


@pytest.mark.parametrize("text", [
    "(task (types) (sig (p prop)) (hyps) (goals (G "
    + "(not " * _DEEP + "p" + ")" * _DEEP + ")))",
    "(task (types (set 1)) (sig (s " + "(set " * _DEEP + "prop"
    + ")" * _DEEP + ")) (hyps) (goals (G true)))",
], ids=["goal", "signature"])
def test_task_loads_reads_deep_nesting_without_recursion(text):
    # a reader that recursed per level fails under the default limit
    outcomes = []
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for t in (text, text[:-1]):
            try:
                outcomes.append(type(sexpr.task_loads(t)).__name__)
            except (SexprError, RecursionError) as e:
                outcomes.append(type(e).__name__)
    finally:
        sys.setrecursionlimit(old)
    assert outcomes == ["Task", "SexprError"]
