"""Nothing a reader is handed crashes the process.

Random, truncated and mutated task texts through cli.parse_task end in a
task, a TaskError or a TypingError. Truncated and mutated serializations of
checked certificates end in a certificate or a CertError, and ccheck on a
certificate that loads returns a CheckReport. Certificates forged the
three ways below are always refused. Tasks built, extended, judged and
dropped in any order judge each premise as the reference typechecker does
under the task's own declarations, though a task built with the same
declarations as a live judged one starts from its judgments.
"""

from __future__ import annotations

import dataclasses
import functools
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from certforge import cert, sexpr
from certforge.cert import CertError, cert_dumps, cert_loads, elaborate
from certforge.checker import CheckReport, ccheck, check_application
from certforge.cli import parse_task
from certforge.core import (
    INT,
    PROP,
    Forall,
    Not,
    PiType,
    TApp,
    TVar,
    TypingError,
    Var,
    app,
    arrow,
    conj,
    eq,
    ident,
    var,
)
from certforge.task import (
    Premise,
    Task,
    TaskError,
    gen_chain_task,
    typing_of,
    well_typed,
)
from certforge.transforms import t_blast
from test_acceptance import _FOL_TASK, _fol_script

_TOKEN = re.compile(r"[()]|[^\s()]+")

# words of the task and certificate languages, and a few that are neither
_WORDS = ["(", ")", "(", ")", "task", "types", "sig", "hyps", "goals",
          "forall", "exists", "lam", "pi", "not", "and", "or", "imp", "iff",
          "=", "+", "<=", "->", "prop", "int", "true", "false", "a", "x",
          "p", "H", "G", "0", "-3", "#t", "#f", "x#2", "KHole", "KAxiom",
          "KClear", "KAssert", "KIntroImp", "KRewrite", ";", "box"]


@functools.cache
def _applications():
    """Checked applications (T, L, k): blast on a chain task, and every
    step of the first-order script."""
    T = gen_chain_task(6)
    L, s = t_blast(T)
    out = [(T, L, elaborate(s, T))]
    T = parse_task(_FOL_TASK)
    for apply, feed in _fol_script():
        L, s = apply(T)
        out.append((T, L, elaborate(s, T)))
        T = L[feed]
    for T, L, k in out:
        assert check_application(T, L, k)
    return out


def _task_texts():
    texts = [_FOL_TASK]
    for T, L, _ in _applications()[:4]:
        texts += [sexpr.to_text(t) for t in (T, *L)]
    return texts


@st.composite
def _mutated(draw, text):
    """text with one to three token edits: drop, repeat, replace or swap."""
    tokens = _TOKEN.findall(text)
    for _ in range(draw(st.integers(1, 3))):
        if not tokens:
            break
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("drop", "repeat", "replace", "swap")))
        if edit == "drop":
            del tokens[i]
        elif edit == "repeat":
            tokens.insert(i, tokens[i])
        elif edit == "replace":
            tokens[i] = draw(st.sampled_from(_WORDS + tokens))
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(tokens)


@st.composite
def _damaged(draw, texts):
    """One of texts, truncated or mutated."""
    text = draw(st.sampled_from(texts))
    if draw(st.booleans()):
        return text[:draw(st.integers(0, len(text) - 1))]
    return draw(_mutated(text))


_random_text = st.lists(st.sampled_from(_WORDS), max_size=40).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_random_text, st.deferred(lambda: _damaged(_task_texts()))))
def test_task_text_ends_in_a_task_or_a_documented_error(text):
    try:
        parse_task(text)
    except (TaskError, TypingError):
        pass


def _cert_texts():
    return [cert_dumps(k) for _, _, k in _applications()]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_damaged_certificate_loads_or_is_refused_and_never_crashes(data):
    i = data.draw(st.integers(0, len(_applications()) - 1))
    T, _, _ = _applications()[i]
    text = data.draw(_damaged([_cert_texts()[i]]))
    try:
        k = cert_loads(text)
    except CertError:
        return
    assert isinstance(ccheck(k, T), CheckReport)


# The premise references of each rule, and the formulas it matches against
# a premise of the task: renaming one of the former to a name no task uses,
# or negating one of the latter, must make the rule refuse.
_REFERENCES = {
    "KTrivial": ("name",), "KAxiom": ("hyp", "goal"), "KSplit": ("name",),
    "KDestruct": ("name",), "KClear": ("name",), "KSwapNeg": ("name",),
    "KIntroImp": ("name",), "KSplitImp": ("name",),
    "KUnfoldIff": ("name",), "KRevert": ("hyp", "goal"),
    "KIntroQuant": ("name",), "KInstQuant": ("name",),
    "KIntroType": ("name",), "KInstType": ("name",), "KEqRefl": ("name",),
    "KRewrite": ("name", "eq_name"), "KInduction": ("goal_name",),
}
_MATCHED = {
    "KAxiom": ("formula",), "KSplit": ("left", "right"),
    "KDestruct": ("left", "right"), "KClear": ("formula",),
    "KSwapNeg": ("formula",), "KIntroImp": ("left", "right"),
    "KSplitImp": ("left", "right"), "KUnfoldIff": ("left", "right"),
    "KRevert": ("hyp_formula", "goal_formula"), "KIntroQuant": ("pred",),
    "KInstQuant": ("pred",), "KIntroType": ("formula",),
    "KInstType": ("formula",), "KEqRefl": ("term",),
    "KRewrite": ("left", "right"), "KInduction": ("context",),
}


def _nodes(form):
    """Every node of a certificate's s-expression, with its fields."""
    out, todo = [], [form]
    while todo:
        node = todo.pop()
        fields = dataclasses.fields(getattr(cert, node[0]))
        out.append((node, [f.name for f in fields]))
        todo += [v for f, v in zip(fields, node[1:]) if f.type == "KernelCert"]
    return out


def _forge(form, node, fields, kind, pick):
    """Forge node of form in place, the kind way, at the pick-th choice:
    rename a premise reference, negate a matched formula, or drop the last
    payload; a hole's stored task has a premise renamed or negated."""
    rule = node[0]
    table = {"rename": _REFERENCES, "negate": _MATCHED}.get(kind, {})
    # (task (types ..) (sig ..) (hyps (H f) ..) (goals (G f) ..))
    premises = node[1][3][1:] + node[1][4][1:] if rule == "KHole" else []
    if rule in table:
        names = table[rule]
        i = 1 + fields.index(names[pick % len(names)])
        node[i] = "forged_premise" if kind == "rename" else ["not", node[i]]
    elif kind != "drop" and premises:
        p = premises[pick % len(premises)]
        if kind == "rename":
            p[0] = "forged_premise"
        else:
            p[1] = ["not", p[1]]
    else:
        node.pop()
    return sexpr.dumps(form)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_forged_certificate_is_refused(data):
    i = data.draw(st.integers(0, len(_applications()) - 1))
    T, L, k = _applications()[i]
    form = sexpr.loads(cert_dumps(k))
    nodes = _nodes(form)
    node, fields = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    kind = data.draw(st.sampled_from(("rename", "negate", "drop")))
    forged = _forge(form, node, fields, kind, data.draw(st.integers(0, 3)))
    try:
        assert not check_application(T, L, cert_loads(forged))
    except CertError:
        pass


# A small pool of declaration lists, each rebuilt as new tuples of the same
# type objects whenever a task is built, so that keys collide; the last is
# the first extended by r, as Task.extend_sig builds it.
_ELEM, _A = TApp(ident("elem"), ()), TVar(ident("a"))
_P, _WRAP = arrow(_ELEM, PROP), arrow(_A, TApp(ident("box"), (_A,)))
_T1 = ((ident("elem"), 0),)
_T2 = ((ident("elem"), 0), (ident("box"), 1))
_S1 = ((ident("p"), _P), (ident("c"), _ELEM), (ident("q"), PROP))
_DECLS = [
    (_T1, _S1),
    (_T1, ((ident("p"), _P), (ident("c"), INT), (ident("q"), PROP))),
    (_T1, _S1[::-1]),
    (_T2, _S1 + ((ident("wrap"), _WRAP),)),
    (_T1, _S1 + ((ident("r"), PROP),)),
]
# extend_sig or extend_types: a new symbol, a binder's name, and a type
# symbol that moves the iota a type quantifier over a picks
_EXTENSIONS = [("sig", ident("r"), PROP), ("sig", ident("x"), _ELEM),
               ("types", ident("a#1"), 0), ("types", ident("box"), 1)]
# formulas over those declarations, sharing operands, so that a premise may
# be judged as an operand of another; some are ill-typed under some lists
_PC, _Q, _X = app(var("p"), var("c")), var("q"), ident("x")
_FORMULAS = [
    _PC, _Q, Not(_PC), conj(_Q, _PC), eq(var("c"), var("c")),
    Forall(_X, _ELEM, app(var("p"), Var(_X))),
    PiType(ident("a"), Forall(_X, _A, eq(Var(_X), Var(_X)))),
    var("r"), app(var("q"), var("c")),
    eq(app(var("wrap"), var("c")), app(var("wrap"), var("c"))),
]


def _reference(T, f):
    """f's judgment against prop under T's declarations, as ref_annotate
    gives it, or None if the reference refuses f."""
    try:
        return oracles.ref_annotate(dict(T.types), dict(T.sig), f, PROP)
    except oracles.Refused:
        return None


def _answer(T, f):
    """typing_of's answer for f in T, read at f's path as the reference
    gives it: a recorded operand is prop with the instances below it."""
    got = typing_of(T, f)
    if got is None:
        return None
    info, path = got
    if not path:
        return info.type, info.inst, info.iotas, info.body
    return PROP, {p[len(path):]: tys for p, tys in info.inst.items()
                  if p[:len(path)] == path}, (), f


def _agrees(T, judge):
    """Every answer typing_of gives for T's premises is the reference's;
    with judge, well_typed's verdict is too, and then every premise of a
    well-typed T is answered."""
    for p in T.premises():
        got = _answer(T, p.formula)
        assert got is None or got == _reference(T, p.formula), p
    if judge:
        ok = well_typed(T)
        assert ok == all(_reference(T, p.formula) is not None
                         for p in T.premises())
        if ok:
            assert all(_answer(T, p.formula) is not None
                       for p in T.premises())


_OPS = st.lists(st.tuples(
    st.sampled_from(("build", "build", "append", "extend", "judge", "drop")),
    st.integers(0, 99),
    st.lists(st.integers(0, len(_FORMULAS) - 1), min_size=1, max_size=4)),
    max_size=14)


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_tasks_sharing_declarations_judge_as_the_reference_does(ops):
    live: list[Task] = []
    for n, (op, i, picks) in enumerate(ops):
        if op == "build":
            types, sig = _DECLS[i % len(_DECLS)]
            premises = tuple(Premise(ident(f"H{j}"), _FORMULAS[k])
                             for j, k in enumerate(picks))
            live.append(Task(types=tuple(list(types)), sig=tuple(list(sig)),
                             hyps=premises[1:], goals=premises[:1]))
        elif live and op == "append":
            T = live[i % len(live)]
            live.append(T.append(False, Premise(ident(f"A{n}"),
                                                _FORMULAS[picks[0]])))
        elif live and op == "extend":
            T = live[i % len(live)]
            kind, name, decl = _EXTENSIONS[picks[0] % len(_EXTENSIONS)]
            try:
                live.append(T.extend_sig(name, decl) if kind == "sig"
                            else T.extend_types(name, decl))
            except TaskError:
                pass
        elif live and op == "judge":
            _agrees(live[i % len(live)], judge=True)
        elif live:
            del live[i % len(live)]
        for T in live:
            _agrees(T, judge=False)
    for T in live:
        _agrees(T, judge=True)
