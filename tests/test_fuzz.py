"""Nothing a reader is handed crashes the process.

Random, truncated and mutated task texts through cli.parse_task end in a
task, a TaskError or a TypingError. Truncated and mutated serializations of
checked certificates end in a certificate or a CertError, and ccheck on a
certificate that loads returns a CheckReport. Certificates forged the
three ways below are always refused.
"""

from __future__ import annotations

import dataclasses
import functools
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from certforge import cert, sexpr
from certforge.cert import CertError, cert_dumps, cert_loads, elaborate
from certforge.checker import CheckReport, ccheck, check_application
from certforge.cli import parse_task
from certforge.core import TypingError
from certforge.task import TaskError, gen_chain_task
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
        texts += [sexpr.dumps(sexpr.task_to_sexpr(t)) for t in (T, *L)]
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
