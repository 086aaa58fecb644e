"""Positive and negative typing cases, one batch per typing rule.

Each POSITIVE entry is (rule, types, sig, term, expected type) and must
typecheck to exactly that type. Each NEGATIVE entry is (rule, types, sig,
term) and must raise TypingError, with the violated premise belonging to
the named rule. Every rule appears in both tables. typecheck is the
judgment they are checked against.
"""

from __future__ import annotations

from certforge.core import (
    INT,
    PROP,
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
    annotate,
    app,
    arrow,
    check_signature,
    conj,
    disj,
    eq,
    iff,
    ident,
    imp,
    var,
)


def typecheck(I, sig, t):
    """The type of t under (I, sig), or TypingError if none derivable."""
    check_signature(I, sig)
    return annotate(I, sig, t).type


COLOR = TApp(ident("color"), ())


def set_of(ty):
    return TApp(ident("set"), (ty,))


A = TVar(ident("a"))
I_COLOR = {ident("color"): 0}
I_SETS = {ident("color"): 0, ident("set"): 1}

POSITIVE = [
    ("var", {}, {ident("x"): INT}, var("x"), INT),
    ("var", {}, {ident("p"): PROP}, var("p"), PROP),
    # instance typing: each occurrence's instance is fixed by the
    # constraints around it
    ("var-instance", I_SETS, {ident("empty"): set_of(A),
                              ident("reds"): set_of(COLOR)},
     eq(var("empty"), var("reds")), PROP),
    ("var-instance", I_COLOR, {ident("red"): COLOR, ident("green"): COLOR},
     eq(var("red"), var("green")), PROP),
    ("var-instance", {}, {ident("x"): INT}, eq(var("x"), IntLit(0)), PROP),
    ("int", {}, {}, IntLit(3), INT),
    ("int", {}, {}, app(var("+"), IntLit(1), IntLit(2)), INT),
    ("top", {}, {}, Top(), PROP),
    ("bottom", {}, {}, Bottom(), PROP),
    ("not", {}, {ident("p"): PROP}, Not(var("p")), PROP),
    ("and", {}, {ident("p"): PROP, ident("q"): PROP},
     conj(var("p"), var("q")), PROP),
    ("or", {}, {ident("p"): PROP, ident("q"): PROP},
     disj(var("p"), var("q")), PROP),
    ("imp", {}, {ident("p"): PROP, ident("q"): PROP},
     imp(var("p"), var("q")), PROP),
    ("iff", {}, {ident("p"): PROP, ident("q"): PROP},
     iff(var("p"), var("q")), PROP),
    ("app", {}, {ident("p"): arrow(INT, PROP), ident("x"): INT},
     app(var("p"), var("x")), PROP),
    ("app", {}, {ident("f"): arrow(INT, INT, INT), ident("x"): INT},
     app(var("f"), var("x")), arrow(INT, INT)),
    ("lam", {}, {}, Lam(ident("x"), INT, var("x")), arrow(INT, INT)),
    ("lam", {}, {ident("p"): arrow(INT, PROP)},
     Lam(ident("x"), INT, app(var("p"), var("x"))), arrow(INT, PROP)),
    ("forall", {}, {ident("p"): arrow(INT, PROP)},
     Forall(ident("x"), INT, app(var("p"), var("x"))), PROP),
    ("exists", I_COLOR, {ident("red"): COLOR},
     Exists(ident("c"), COLOR, eq(var("c"), var("red"))), PROP),
    ("pi", {}, {},
     PiType(ident("a"), Forall(ident("x"), A, eq(var("x"), var("x")))), PROP),
    ("pi", I_SETS, {ident("mem"): arrow(A, set_of(A), PROP)},
     PiType(ident("a"), Forall(ident("x"), A, Forall(
         ident("s"), set_of(A), imp(app(var("mem"), var("x"), var("s")),
                                    app(var("mem"), var("x"), var("s")))))),
     PROP),
]

NEGATIVE = [
    ("var", {}, {}, var("x")),  # unbound
    ("var", {}, {ident("x"): INT}, var("y")),
    # no ground instance can give alpha both int and color
    ("var-instance", I_COLOR, {ident("x"): INT, ident("red"): COLOR},
     eq(var("x"), var("red"))),
    ("int", {}, {ident("p"): arrow(PROP, PROP)}, app(var("p"), IntLit(1))),
    ("top", {}, {}, app(var("+"), Top(), IntLit(1))),
    ("bottom", {}, {ident("f"): arrow(INT, INT)}, app(var("f"), Bottom())),
    ("not", {}, {}, Not(IntLit(3))),
    ("and", {}, {}, conj(IntLit(1), Top())),
    ("or", {}, {}, disj(Top(), IntLit(1))),
    ("imp", {}, {ident("x"): INT}, imp(var("x"), Top())),
    ("iff", {}, {ident("x"): INT}, iff(Top(), var("x"))),
    ("app", {}, {ident("x"): INT, ident("y"): INT},
     app(var("x"), var("y"))),  # head is not a function
    ("app", {}, {ident("p"): arrow(INT, PROP)}, app(var("p"), Top())),
    ("lam", {}, {ident("x"): INT}, Lam(ident("x"), INT, var("x"))),  # shadow
    ("lam", {}, {}, Lam(ident("x"), A, var("x"))),  # annotation not ground
    ("lam", {}, {}, Lam(ident("x"), COLOR, var("x"))),  # color undeclared here
    ("lam", {}, {}, Lam(ident("+"), INT, Top())),  # shadows interpreted symbol
    ("forall", {}, {ident("p"): arrow(INT, PROP), ident("x"): INT},
     Forall(ident("x"), INT, app(var("p"), var("x")))),  # shadow
    ("forall", {}, {}, Forall(ident("x"), INT, var("x"))),  # body not prop
    ("forall", {ident("set"): 1}, {},
     Forall(ident("s"), TApp(ident("set"), ()), Top())),  # arity mismatch
    ("exists", {}, {}, Exists(ident("x"), A, Top())),  # annotation not ground
    ("exists", {}, {}, Exists(ident("x"), INT, IntLit(0))),  # body not prop
    ("pi", {}, {}, Not(PiType(ident("a"), Top()))),  # quantifier not prenex
    ("pi", {}, {}, PiType(ident("a"), Lam(ident("x"), A, var("x")))),  # not prop
    ("pi", {}, {}, PiType(ident("a"), PiType(ident("a"), Top()))),  # duplicate
    # a quantifier anywhere below the prefix is refused by inference itself
    ("pi", {}, {}, Forall(ident("x"), INT, PiType(ident("a"), Top()))),
    ("pi", {}, {ident("p"): arrow(PROP, PROP)},
     app(var("p"), PiType(ident("a"), Top()))),
    ("pi", {}, {}, PiType(ident("a"), conj(Top(), PiType(ident("b"), Top())))),
    # an instance no constraint fixes is ambiguous, not guessed
    ("var-instance", {ident("set"): 1}, {ident("empty"): set_of(A)},
     var("empty")),
]

RULES = sorted({c[0] for c in POSITIVE} | {c[0] for c in NEGATIVE})
