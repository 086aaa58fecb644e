"""The per-formula λΠ encoding, kept as a reference for lp_export.Encoder.

Before the exporter shared one memoized encoder per emit_module call, it
annotated and walked every formula it met as a whole: one annotate over
the formula, then one walk that reads the instance of each symbol
occurrence at its path. That definition is frozen here. The only change is
the judgment: a formula is annotated against prop, as well_typed judges
premises, and a term a node carries against the type the node gives it.

per_formula has the Encoder's interface, so proof_term and encode_task
can be run with either and their results compared. It borrows the λΠ term
classes and the leaf renderings (mangle, types, signature schemes,
numerals) from lp_export, and nothing of the encoder it judges.

tree_format is the printer as it was before emit_module printed each
shared encoding once: a walk of the term as a tree, collecting the names
no binder above binds. It imports nothing of the printer it judges.
lp_format prints a whole term with it, for the tests that read a term's
text.

app_correctness_type states what a proof term proves: the resulting
tasks entail the initial one.
"""

from __future__ import annotations

from certforge.core import (
    INTERPRETED,
    PROP,
    App,
    BinOp,
    Bottom,
    Exists,
    Forall,
    IntLit,
    Lam,
    Not,
    PiType,
    Top,
    Var,
    annotate,
)
from certforge.lp_export import (
    LP_BOT,
    LP_TOP,
    SORT,
    LApp,
    LArrow,
    LConst,
    LLam,
    LProd,
    LSort,
    LVar,
    _encode_scheme,
    _encode_type,
    _int_term,
    arrows,
    encode_task,
    mangle,
    neg,
)

_INTERP_CONST = {"+": "add", "*": "mul", "-": "sub",
                 "<": "lt", ">": "gt", "<=": "le", ">=": "ge"}


def _walk(t, path, info, sig):
    if isinstance(t, Var):
        if t.name not in sig and t.name in INTERPRETED:
            if str(t.name) == "=":
                return LApp(LConst("eq"), _encode_type(info.inst[path][0]))
            return LConst(_INTERP_CONST[str(t.name)])
        head = LVar(mangle(t.name))
        for tau in info.inst.get(path, ()):
            head = LApp(head, _encode_type(tau))
        return head
    if isinstance(t, IntLit):
        return _int_term(t.value)
    if isinstance(t, Bottom):
        return LP_BOT
    if isinstance(t, Top):
        return LP_TOP
    if isinstance(t, Not):
        return neg(_walk(t.body, path + (0,), info, sig))
    if isinstance(t, BinOp):
        l = _walk(t.left, path + (0,), info, sig)
        r = _walk(t.right, path + (1,), info, sig)
        if t.op == "imp":
            return LArrow(l, r)
        c = LVar("C")
        if t.op == "and":
            return LProd("C", SORT, LArrow(arrows(l, r, c), c))
        if t.op == "or":
            return LProd("C", SORT, arrows(LArrow(l, c), LArrow(r, c), c))
        return LProd("C", SORT, LArrow(arrows(LArrow(l, r), LArrow(r, l), c), c))
    if isinstance(t, App):
        return LApp(_walk(t.fn, path + (0,), info, sig),
                    _walk(t.arg, path + (1,), info, sig))
    if isinstance(t, Forall):
        return LProd(mangle(t.var), _encode_type(t.ty),
                     _walk(t.body, path + (0,), info, sig))
    if isinstance(t, Exists):
        c = LVar("C")
        return LProd("C", SORT, LArrow(
            LProd(mangle(t.var), _encode_type(t.ty),
                  LArrow(_walk(t.body, path + (0,), info, sig), c)), c))
    if isinstance(t, Lam):
        return LLam(mangle(t.var), _encode_type(t.ty),
                    _walk(t.body, path + (0,), info, sig))
    assert not isinstance(t, PiType), "type quantifier below the prefix"
    raise AssertionError(f"unencodable term {t!r}")


def encode_whole(t, I, sig, expected=None):
    """One annotate over all of t, then one walk."""
    info = annotate(I, sig, t, expected)
    out = _walk(info.body, (), info, sig)
    for iota in reversed(info.iotas):
        out = LProd(mangle(iota), SORT, out)
    return out


class _PerFormula:
    """The Encoder's interface, each formula and scheme encoded as a whole,
    every time."""

    def __call__(self, f, task, expected=PROP):
        return encode_whole(f, task.types_map(), task.sig_map(), expected)

    def scheme(self, scheme):
        return _encode_scheme(scheme)


per_formula = _PerFormula()


def tree_format(t, prec, bound, free):
    """t's text at precedence prec (0 admits everything, 1 an arrow
    operand, 2 an application head, 3 an application argument), adding to
    free every name t uses that no binder above it binds; bound counts the
    open binders of each name."""
    if isinstance(t, (LConst, LVar)):
        if not bound.get(t.name):
            free.add(t.name)
        return t.name
    if isinstance(t, LApp):
        s = (f"{tree_format(t.fn, 2, bound, free)} "
             f"{tree_format(t.arg, 3, bound, free)}")
        return f"({s})" if prec > 2 else s
    if isinstance(t, LSort):
        return "TYPE"
    if isinstance(t, LArrow):
        s = (f"{tree_format(t.left, 1, bound, free)} → "
             f"{tree_format(t.right, 0, bound, free)}")
    elif isinstance(t, (LProd, LLam)):
        ann = t.dom if isinstance(t, LProd) else t.ann
        ann = "" if ann is None else f" : {tree_format(ann, 1, bound, free)}"
        bound[t.var] = bound.get(t.var, 0) + 1
        s = (f"{'Π' if isinstance(t, LProd) else 'λ'} {t.var}{ann}, "
             f"{tree_format(t.body, 0, bound, free)}")
        bound[t.var] -= 1
    else:
        raise TypeError(f"unknown λΠ node {t!r}")
    return f"({s})" if prec > 0 else s


def lp_format(t) -> str:
    """t's text as a whole statement: tree_format at precedence 0."""
    return tree_format(t, 0, {}, set())


def app_correctness_type(T, L):
    """The statement that the resulting tasks entail the initial one."""
    return arrows(*(encode_task(leaf, prune=True) for leaf in L),
                  encode_task(T))
