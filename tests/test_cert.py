"""Certificate trees: hole bookkeeping, serialization, elaboration."""

import contextlib
import dataclasses
import functools
import hashlib
import random
import sys

import pytest
from hypothesis import given, settings

import certforge.cert as cert
from certforge import checker, core, sexpr
from certforge.cert import (
    CertError,
    KHole,
    KernelCert,
    SHole,
    SurfaceCert,
    cert_dumps,
    cert_loads,
    elaborate,
    fill_holes,
    leaves,
)
from certforge.cli import parse_task
from certforge.core import (
    INT,
    PROP,
    App,
    Arrow,
    Forall,
    Ident,
    IntLit,
    Lam,
    Not,
    PiType,
    TVar,
    Top,
    TypingError,
    alpha_equal,
    app,
    conj,
    disj,
    eq,
    ident,
    iff,
    imp,
    var,
)
from certforge.task import Premise, Task, gen_chain_task
from certforge.transforms import (TransformError, t_blast, t_instantiate,
                                  t_rewrite)
from oracles import ref_cert_dumps
from test_acceptance import (_FOL_TASK, _fol_script, _rand_application,
                             _rand_task)
from test_sexpr import _terms, _types

H, G = ident("H"), ident("G")


def goal_task(formula, name=G) -> Task:
    return Task(sig=((ident("p"), PROP), (ident("q"), PROP)),
                goals=(Premise(name, formula),))


_POOL = [
    goal_task(var("p")),
    goal_task(var("q")),
    goal_task(conj(var("p"), var("q"))),
]


# -- leaves / fill_holes ------------------------------------------------------


def _tree(h1, h2, h3):
    return cert.KAssert(H, var("p"),
                        cert.KClear(False, var("p"), H, KHole(h1)),
                        cert.KSplit(True, var("p"), var("q"), G,
                                    KHole(h2), KHole(h3)))


def test_leaves_in_order():
    c = _tree(_POOL[0], _POOL[1], _POOL[2])
    assert leaves(c) == [_POOL[0], _POOL[1], _POOL[2]]


def _holes(s):
    return sum(isinstance(node, SHole) for node in _nodes(s))


def test_count_and_fill_holes():
    s = cert.SSplit(G, SHole(), cert.SIntroImp(G, H, SHole()))
    assert _holes(s) == 2
    filled = fill_holes(s, [cert.STrivial(G), SHole()])
    assert filled == cert.SSplit(G, cert.STrivial(G),
                                 cert.SIntroImp(G, H, SHole()))
    with pytest.raises(CertError):
        fill_holes(s, [SHole()])
    with pytest.raises(CertError):
        fill_holes(s, [SHole(), SHole(), SHole()])


def test_fill_holes_fills_kernel_holes_in_order():
    c = _tree(_POOL[0], _POOL[1], _POOL[2])
    fillers = [KHole(_POOL[2]), cert.KTrivial(True, G), KHole(_POOL[0])]
    filled = fill_holes(c, fillers)
    assert leaves(filled) == [_POOL[2], _POOL[0]]
    assert filled.rest.first == cert.KTrivial(True, G)
    with pytest.raises(CertError):
        fill_holes(c, fillers[:2])


def test_fill_holes_refill_identity():
    s = cert.SSplit(G, SHole(), cert.SIntroImp(G, H, SHole()))
    assert fill_holes(s, [SHole()] * _holes(s)) == s


# -- serialization -------------------------------------------------------------

_T0 = goal_task(Top())
_x, _y, _z, _i, _n, _al = (ident(s) for s in ["x", "y", "z", "i", "n", "al"])
_H1, _H2, _Hi, _Hr = (ident(s) for s in ["H1", "H2", "Hi", "Hr"])
_P, _Q = var("p"), var("q")

KERNEL_SAMPLES = [
    cert.KHole(_T0),
    cert.KTrivial(True, G),
    cert.KAxiom(_P, H, G),
    cert.KAssert(_H1, conj(_P, _Q), cert.KHole(_T0), cert.KTrivial(False, H)),
    cert.KSplit(False, _P, _Q, H, cert.KHole(_T0), cert.KHole(_T0)),
    cert.KDestruct(False, _P, _Q, H, _H1, _H2, cert.KHole(_T0)),
    cert.KClear(True, _P, G, cert.KHole(_T0)),
    cert.KSwapNeg(False, _P, H, cert.KHole(_T0)),
    cert.KIntroImp(_P, _Q, G, _H1, cert.KHole(_T0)),
    cert.KSplitImp(_P, _Q, H, _H1, cert.KHole(_T0), cert.KHole(_T0)),
    cert.KUnfoldIff(True, _P, _Q, G, cert.KHole(_T0)),
    cert.KRevert(_P, _Q, H, G, cert.KHole(_T0)),
    cert.KIntroQuant(True, INT, Lam(_x, INT, _P), G, _y, cert.KHole(_T0)),
    cert.KInstQuant(False, INT, Lam(_x, INT, _P), H, _H1, IntLit(3),
                    cert.KHole(_T0)),
    cert.KIntroType(PiType(_al, Top()), G, ident("iota"), cert.KHole(_T0)),
    cert.KInstType(PiType(_al, Top()), H, _H1, INT, cert.KHole(_T0)),
    cert.KEqRefl(var("x"), G),
    cert.KRewrite(True, var("x"), var("y"), Lam(_z, INT, eq(var("z"), var("y"))),
                  G, H, cert.KHole(_T0)),
    cert.KInduction(_i, IntLit(0), Lam(_n, INT, _P), G, _Hi, _Hr,
                    cert.KHole(_T0), cert.KHole(_T0)),
]

SURFACE_SAMPLES = [
    cert.SHole(),
    cert.STrivial(G),
    cert.SAxiom(H, G),
    cert.SAssert(_H1, conj(_P, _Q), cert.SHole(), cert.SHole()),
    cert.SSplit(H, cert.SHole(), cert.SHole()),
    cert.SDestruct(H, _H1, _H2, cert.SHole()),
    cert.SConstruct(_H1, _H2, H, cert.SHole()),
    cert.SClear(H, cert.SHole()),
    cert.SSwapNeg(H, cert.SHole()),
    cert.SIntroImp(G, _H1, cert.SHole()),
    cert.SSplitImp(H, _H1, cert.SHole(), cert.SHole()),
    cert.SUnfoldIff(H, cert.SHole()),
    cert.SRevert(H, G, cert.SHole()),
    cert.SIntroQuant(G, _y, cert.SHole()),
    cert.SInstQuant(H, _H1, IntLit(3), cert.SHole()),
    cert.SIntroType(G, ident("iota"), cert.SHole()),
    cert.SInstType(H, _H1, INT, cert.SHole()),
    cert.SEqRefl(G),
    cert.SEqSym(H, cert.SHole()),
    cert.SEqTrans(_H1, _H2, H, cert.SHole()),
    cert.SRewrite(True, H, G, cert.SHole()),
    cert.SInduction(_i, IntLit(0), _Hi, _Hr, cert.SHole(), cert.SHole()),
]


def _constructors(base):
    return {v for v in vars(cert).values()
            if isinstance(v, type) and issubclass(v, base) and v is not base
            and dataclasses.is_dataclass(v)}


def test_samples_cover_every_constructor():
    assert {type(c) for c in KERNEL_SAMPLES} == _constructors(KernelCert)
    assert {type(c) for c in SURFACE_SAMPLES} == _constructors(SurfaceCert)


@pytest.mark.parametrize("c", KERNEL_SAMPLES + SURFACE_SAMPLES,
                         ids=lambda c: type(c).__name__)
def test_cert_serialization_roundtrip(c):
    assert cert_loads(cert_dumps(c)) == c


def test_shole_serializes_bare():
    assert cert_dumps(cert.SHole()) == "SHole"


def test_cert_loads_rejects_garbage():
    with pytest.raises(CertError):
        cert_loads("(KNothing 1 2)")
    with pytest.raises(CertError):
        cert_loads("(KTrivial #t)")
    # a kernel subcertificate must be kernel, a surface one surface
    with pytest.raises(CertError, match="SHole is not a KernelCert"):
        cert_loads("(KClear #t p G SHole)")
    with pytest.raises(CertError, match="KTrivial is not a SurfaceCert"):
        cert_loads("(SClear G (KTrivial #t G))")
    # errors come in preorder: a node's kind before its subcertificates
    with pytest.raises(CertError, match="SClear is not a KernelCert"):
        cert_loads("(KClear #t p G (SClear G (KNothing)))")
    # so is a carried task that Task() refuses
    with pytest.raises(CertError, match="premise name H used twice"):
        cert_loads("(KHole (task (types) (sig) (hyps (H true)) "
                   "(goals (H true))))")


def test_cert_loads_refuses_every_truncation():
    T = Task(sig=((ident("p"), PROP), (ident("q"), PROP)),
             hyps=(Premise(H, disj(_P, Not(_P))),),
             goals=(Premise(G, iff(conj(_P, _Q), conj(_Q, _P))),))
    tasks, s = t_blast(T)
    assert tasks == []
    text = cert_dumps(elaborate(s, T))
    loaded = 0
    for n in range(len(text) + 1):
        try:
            cert_loads(text[:n])
        except CertError:
            continue
        loaded += 1
    assert loaded >= 1


def test_elaborated_tree_roundtrips():
    T = Task(sig=((ident("p"), PROP), (ident("q"), PROP)),
             hyps=(Premise(H, conj(_P, _Q)),),
             goals=(Premise(G, conj(_Q, _P)),))
    s = cert.SDestruct(H, _H1, _H2,
                       cert.SSplit(G, cert.SAxiom(_H2, G), cert.SAxiom(_H1, G)))
    k = elaborate(s, T)
    assert cert_loads(cert_dumps(k)) == k
    assert cert_loads(cert_dumps(s)) == s


# -- elaboration ---------------------------------------------------------------


def test_elaborate_split_golden():
    # H : x1 \/ x2 |- G : x  gives  KSplit(false, x1, x2, H, holes)
    x1, x2, x = var("x1"), var("x2"), var("x")
    T = Task(sig=((ident("x1"), PROP), (ident("x2"), PROP), (ident("x"), PROP)),
             hyps=(Premise(H, disj(x1, x2)),),
             goals=(Premise(G, x),))
    T1 = dataclasses.replace(T, hyps=(Premise(H, x1),))
    T2 = dataclasses.replace(T, hyps=(Premise(H, x2),))
    got = elaborate(cert.SSplit(H, SHole(), SHole()), T)
    assert got == cert.KSplit(False, x1, x2, H, KHole(T1), KHole(T2))


def test_elaborate_shole_carries_task():
    T = goal_task(var("p"))
    assert elaborate(SHole(), T) == KHole(T)


def test_elaborate_refuses_an_ill_typed_task():
    # the goal is an int, not a proposition; elaborate judges its task
    # before it steps, so even a hole, which no rule types, is refused
    T = Task(sig=((ident("c"), INT),), goals=(Premise(G, var("c")),))
    for s in (SHole(), cert.STrivial(G)):
        with pytest.raises(CertError, match="the task is not well-typed"):
            elaborate(s, T)


def test_elaborate_names_only_the_class_of_a_node_it_cannot_replay():
    # the refusal quoted the node's repr, the whole subtree, which at this
    # depth overflows the stack
    T = goal_task(var("p"))
    k = KHole(T)
    for _ in range(3_000):
        k = cert.KClear(True, var("p"), G, k)
    with pytest.raises(CertError) as caught:
        elaborate(k, T)
    assert str(caught.value) == "unknown surface certificate KClear"


def test_elaborate_missing_premise():
    with pytest.raises(CertError, match="no premise"):
        elaborate(cert.STrivial(ident("nope")), goal_task(Top()))


def test_elaborate_wrong_shape():
    T = goal_task(conj(var("p"), var("q")))
    with pytest.raises(CertError, match="not a disjunction"):
        elaborate(cert.SDestruct(G, _H1, _H2, SHole()), T)


def test_elaborate_type_quantifier_guard():
    # connective rules must not look through a leading type quantifier
    al = ident("al")
    a = TVar(al)
    f = PiType(al, conj(Forall(_x, a, eq(var("x"), var("x"))),
                        Forall(_y, a, eq(var("y"), var("y")))))
    T = Task(hyps=(Premise(H, f),), goals=(Premise(G, Top()),))
    with pytest.raises(CertError, match="type-quantified"):
        elaborate(cert.SDestruct(H, _H1, _H2, SHole()), T)
    with pytest.raises(CertError, match="SInstType"):
        elaborate(cert.SInstQuant(H, _H1, IntLit(0), SHole()), T)
    # the intended route works
    k = elaborate(cert.SInstType(H, _H1, INT, SHole()), T)
    rep = checker.ccheck(k, T)
    assert rep.ok
    inst = rep.derived_leaves[0].hyps[-1].formula
    assert alpha_equal(inst, conj(Forall(_x, INT, eq(var("x"), var("x"))),
                                  Forall(_y, INT, eq(var("y"), var("y")))))


def test_elaborate_validates_the_whole_subtree():
    # the inner certificate is replayed during elaboration, so a stale
    # premise name deep inside is reported right away
    T = goal_task(conj(var("p"), var("q")))
    s = cert.SSplit(G, cert.STrivial(ident("gone")), SHole())
    with pytest.raises(CertError, match="no premise"):
        elaborate(s, T)


# shapes of the expanded surface certificates, checked end to end


def _ok(T, s):
    k = elaborate(s, T)
    rep = checker.ccheck(k, T)
    assert rep.ok, rep.failure
    return rep.derived_leaves


def _arith_task(hyps, goals):
    sig = ((ident("a"), INT), (ident("b"), INT), (ident("c"), INT),
           (ident("f"), Arrow(INT, INT)))
    return Task(sig=sig,
                hyps=tuple(Premise(ident(n), f) for n, f in hyps),
                goals=tuple(Premise(ident(n), f) for n, f in goals))


A, B, C = var("a"), var("b"), var("c")


def test_eq_sym_hypothesis():
    T = _arith_task([("H", eq(A, B))], [("G", eq(B, A))])
    (leaf,) = _ok(T, cert.SEqSym(H, SHole()))
    assert leaf.hyps[-1].name == H
    assert alpha_equal(leaf.hyps[-1].formula, eq(B, A))
    assert _ok(T, cert.SEqSym(H, cert.SAxiom(H, G))) == []


def test_eq_sym_goal():
    T = _arith_task([("H", eq(B, A))], [("G", eq(A, B))])
    (leaf,) = _ok(T, cert.SEqSym(G, SHole()))
    assert leaf.goals[-1].name == G
    assert alpha_equal(leaf.goals[-1].formula, eq(B, A))
    assert _ok(T, cert.SEqSym(G, cert.SAxiom(H, G))) == []


def test_eq_sym_needs_equality():
    T = goal_task(var("p"))
    with pytest.raises(CertError, match="not an equality"):
        elaborate(cert.SEqSym(G, SHole()), T)


def test_eq_trans():
    T = _arith_task([("H1", eq(A, B)), ("H2", eq(B, C))], [("G", eq(A, C))])
    assert _ok(T, cert.SEqTrans(_H1, _H2, ident("H3"),
                                cert.SAxiom(ident("H3"), G))) == []


def test_eq_trans_middle_mismatch():
    T = _arith_task([("H1", eq(A, B)), ("H2", eq(C, A))], [("G", eq(A, C))])
    with pytest.raises(CertError, match="middle terms"):
        elaborate(cert.SEqTrans(_H1, _H2, ident("H3"), SHole()), T)


def test_construct_hypotheses():
    T = Task(sig=((ident("p"), PROP), (ident("q"), PROP)),
             hyps=(Premise(_H1, _P), Premise(_H2, _Q)),
             goals=(Premise(G, conj(_P, _Q)),))
    (leaf,) = _ok(T, cert.SConstruct(_H1, _H2, H, SHole()))
    assert [p.name for p in leaf.hyps] == [H]
    assert alpha_equal(leaf.hyps[0].formula, conj(_P, _Q))
    assert _ok(T, cert.SConstruct(_H1, _H2, H, cert.SAxiom(H, G))) == []


def test_construct_goals():
    T = Task(sig=((ident("p"), PROP), (ident("q"), PROP)),
             hyps=(Premise(H, disj(_P, _Q)),),
             goals=(Premise(ident("G1"), _P), Premise(ident("G2"), _Q)))
    (leaf,) = _ok(T, cert.SConstruct(ident("G1"), ident("G2"), G, SHole()))
    assert [p.name for p in leaf.goals] == [G]
    assert alpha_equal(leaf.goals[0].formula, disj(_P, _Q))
    assert _ok(T, cert.SConstruct(ident("G1"), ident("G2"), G,
                                  cert.SAxiom(H, G))) == []


def test_construct_sides_must_agree():
    T = Task(sig=((ident("p"), PROP), (ident("q"), PROP)),
             hyps=(Premise(H, _P),), goals=(Premise(G, _Q),))
    with pytest.raises(CertError, match="different sides"):
        elaborate(cert.SConstruct(H, G, ident("M"), SHole()), T)


def test_rewrite_goal_both_directions():
    fa, fb = app(var("f"), A), app(var("f"), B)
    T = _arith_task([("H", eq(A, B))], [("G", eq(fa, fb))])
    assert _ok(T, cert.SRewrite(False, H, G, cert.SEqRefl(G))) == []
    assert _ok(T, cert.SRewrite(True, H, G, cert.SEqRefl(G))) == []


def test_rewrite_hypothesis():
    fa, fb = app(var("f"), A), app(var("f"), B)
    T = _arith_task([("H", eq(A, B)), ("P", eq(fa, C))], [("G", eq(fb, C))])
    assert _ok(T, cert.SRewrite(False, H, ident("P"),
                                cert.SAxiom(ident("P"), G))) == []


def test_rewrite_no_occurrence():
    T = _arith_task([("H", eq(A, B))], [("G", eq(C, C))])
    with pytest.raises(CertError, match="no occurrence"):
        elaborate(cert.SRewrite(False, H, G, SHole()), T)


def test_abstract_skips_captured_occurrences():
    # shadowing is ill-typed at the task level, so the public path can never
    # hit a capture; the helper still must not abstract a bound occurrence
    T = _arith_task([], [("G", Top())])
    bound = Forall(ident("b"), INT, eq(var("b"), var("b")))
    ctx = cert._abstract(conj(bound, eq(B, C)), B, INT)
    assert isinstance(ctx, Lam)
    assert alpha_equal(ctx.body,
                       conj(bound, eq(var(str(ctx.var)), C)))


_POLY_SIDE = """(task (types (box 1) (elem 0))
    (sig (e (box a)) (f (box (elem))) (p (-> (box (elem)) prop)))
    (hyps {}) (goals {}))"""


# the goal case of SEqSym rewrites the goal e = f into e = e, whose
# instance of = nothing fixes (e : box 'a): the task it derives is
# ill-typed, and elaboration refuses it rather than guess an instance,
# naming the premise and the open occurrence
_AMBIGUOUS_GOAL = (r"produced an ill-typed task: "
                   r"premise G: instance of = at \[0, 0\] is ambiguous")


@pytest.mark.parametrize("hyps, goals, apply, refused", [
    ("(E (= e f)) (H (p e))", "(G (p f))",
     lambda T: t_rewrite(T, ident("E"), H)[1], None),
    ("(E (= e f)) (H (p e))", "(G (p f))",
     lambda T: t_rewrite(T, ident("E"), G, right_to_left=True)[1], None),
    ("(E (= e f))", "(G (= f e))",
     lambda T: cert.SEqSym(ident("E"), cert.SAxiom(ident("E"), G)), None),
    ("(E (= f e))", "(G (= e f))",
     lambda T: cert.SEqSym(G, cert.SAxiom(ident("E"), G)), _AMBIGUOUS_GOAL),
    ("(E (= e f)) (F (= f f))", "(G (= e f))",
     lambda T: cert.SEqTrans(ident("E"), ident("F"), H, cert.SAxiom(H, G)),
     None),
], ids=["rewrite_left_to_right", "rewrite_right_to_left", "eq_sym_hyp",
        "eq_sym_goal", "eq_trans"])
def test_an_equation_is_rewritten_at_the_type_of_its_equality(hyps, goals,
                                                              apply, refused):
    # e : box 'a typed on its own is ambiguous; the equation with
    # f : box elem fixes it, and every context abstracts a box elem
    T = parse_task(_POLY_SIDE.format(hyps, goals))
    if refused:
        with pytest.raises(CertError, match=refused):
            elaborate(apply(T), T)
        return
    k = elaborate(apply(T), T)
    assert checker.ccheck(k, T).ok
    wire = cert_dumps(k)
    assert wire.count("(lam (z (box (elem))) ") == wire.count("(KRewrite ")
    assert "int" not in wire


_OPEN_WITNESS = """(task (types (elem 0)) (sig (c a) (d (elem)) (r (-> a a prop)))
    (hyps (H (forall (x (elem)) (r x x)))) (goals (G (r c {}))))"""


def test_instantiating_at_a_witness_the_instance_loses_is_refused():
    # H_inst : r c c would be typed at no instance: the transformation
    # fails, and it made no task. Item 1's task itself (goal r c c) is
    # refused before any rule runs
    T = parse_task(_OPEN_WITNESS.format("d"))
    with pytest.raises(TransformError, match="ill-typed"):
        t_instantiate(T, H, var("c"))
    (t,), s = t_instantiate(T, H, var("d"))
    assert t.hyps[-1].formula == app(var("r"), var("d"), var("d"))
    assert checker.ccheck(elaborate(s, T), T).ok
    with pytest.raises(TypingError, match="is ambiguous"):
        parse_task(_OPEN_WITNESS.format("c"))


_E, _F = ident("E"), ident("F")


@pytest.mark.parametrize("hyps, goals, surface, equation", [
    ("(E (= e f)) (H (p e))", "(G (p f))",
     cert.SRewrite(False, _E, H, cert.SAxiom(H, G)), lambda T: T.hyps[0]),
    ("(E (= e f)) (H (p e))", "(G (p f))",
     cert.SRewrite(True, _E, G, cert.SAxiom(H, G)), lambda T: T.hyps[0]),
    ("(E (= e f))", "(G (= f e))",
     cert.SEqSym(_E, cert.SAxiom(_E, G)), lambda T: T.hyps[0]),
    # refused before any equation is read (see _AMBIGUOUS_GOAL)
    ("(E (= f e))", "(G (= e f))",
     cert.SEqSym(G, cert.SAxiom(_E, G)), None),
    ("(E (= e f)) (F (= f f))", "(G (= e f))",
     cert.SEqTrans(_E, _F, H, cert.SAxiom(H, G)), lambda T: T.hyps[0]),
    # the equation is an operand of the goal, read at its path there
    ("(H (p e))", "(G (imp (= e f) (p f)))",
     cert.SIntroImp(G, _E, cert.SRewrite(False, _E, H, cert.SAxiom(H, G))),
     lambda T: Premise(_E, T.goals[0].formula.left)),
], ids=["rewrite_left_to_right", "rewrite_right_to_left", "eq_sym_hyp",
        "eq_sym_goal", "eq_trans", "rewrite_an_operand"])
def test_elaboration_reads_the_equality_instance_the_task_judged(
        hyps, goals, surface, equation, annotate_calls):
    # the instance of = comes from the judgment of the task at hand: what
    # is typed is a premise the replay creates, judged by well_typed, or a
    # rewrite side the kernel types against the context's type. A premise
    # the replay creates may be one the task already judged (formulas are
    # hash-consed), and then the task side types nothing
    T = parse_task(_POLY_SIDE.format(hyps, goals))
    if equation is None:
        with pytest.raises(CertError, match=_AMBIGUOUS_GOAL):
            elaborate(surface, T)
        return
    annotate_calls.clear()
    k = elaborate(surface, T)
    calls = dict(annotate_calls)
    assert set(calls) <= {"task", "checker"}
    typed = calls.get("task", ())
    assert not any(t is equation(T).formula for t in typed)
    replay = list(checker.derive(k, T))
    created = [p.formula for _, _, task in replay for p in task.premises()]
    assert all(any(alpha_equal(t, f) for f in created) for t in typed)
    sides = [side for _, node, _ in replay if isinstance(node, cert.KRewrite)
             for side in (node.left, node.right)]
    assert all(any(t is side for side in sides)
               for t in calls.get("checker", ()))
    assert checker.ccheck(k, T).ok
    wire = cert_dumps(k)
    assert wire.count("(lam (z (box (elem))) ") == wire.count("(KRewrite ")


def test_rewrite_under_binder():
    # a is free under the quantifier, so it rewrites there
    T = _arith_task([("H", eq(A, B))],
                    [("G", Forall(_x, INT, eq(var("x"), A)))])
    (leaf,) = _ok(T, cert.SRewrite(False, H, G, SHole()))
    assert alpha_equal(leaf.goals[0].formula, Forall(_x, INT, eq(var("x"), B)))


def test_induction_shape():
    sig = ((_i, INT), (ident("p"), Arrow(INT, PROP)),
           (ident("q"), Arrow(INT, PROP)))
    T = Task(sig=sig,
             hyps=(Premise(ident("D"), app(var("q"), var("i"))),
                   Premise(ident("E"), app(var("p"), IntLit(0)))),
             goals=(Premise(G, app(var("p"), var("i"))),))
    base, rec = _ok(T, cert.SInduction(_i, IntLit(0), _Hi, _Hr,
                                       SHole(), SHole()))
    # the dependent hypothesis D is reverted and reintroduced, E is untouched
    assert [str(p.name) for p in base.hyps] == ["E", "Hi", "D"]
    assert alpha_equal(base.hyps[1].formula,
                       app(var("<="), var("i"), IntLit(0)))
    assert alpha_equal(base.goals[0].formula, app(var("p"), var("i")))
    assert [str(p.name) for p in rec.hyps] == ["E", "Hi", "Hr", "D"]
    assert alpha_equal(rec.hyps[1].formula, app(var(">"), var("i"), IntLit(0)))
    want_rec = Forall(_n, INT, imp(app(var("<"), var("n"), var("i")),
                                   imp(app(var("q"), var("n")),
                                       app(var("p"), var("n")))))
    assert alpha_equal(rec.hyps[2].formula, want_rec)


def test_induction_needs_single_goal():
    T = Task(sig=((_i, INT),),
             goals=(Premise(G, Top()), Premise(ident("G2"), Top())))
    with pytest.raises(CertError, match="exactly one goal"):
        elaborate(cert.SInduction(_i, IntLit(0), _Hi, _Hr, SHole(), SHole()), T)


# exact kernel output of the composite surface certificates

_F = var("f")
_DEPS = ((_i, INT),) + tuple((ident(n), Arrow(INT, PROP)) for n in "pqrs")


def _induction_task(*more):
    # D and the hypotheses in `more` mention i; E, between them, does not
    hyps = ((ident("D"), app(var("q"), var("i"))),
            (ident("E"), app(var("p"), IntLit(0))))
    hyps += tuple((ident(n), app(var(pred), var("i"))) for n, pred in more)
    return Task(sig=_DEPS, hyps=tuple(Premise(n, f) for n, f in hyps),
                goals=(Premise(G, app(var("p"), var("i"))),))


_INDUCTION = cert.SInduction(_i, IntLit(0), _Hi, _Hr, SHole(), SHole())

COMPOSITES = {
    "construct_hyps": (
        Task(sig=((ident("p"), PROP), (ident("q"), PROP)),
             hyps=(Premise(_H1, _P), Premise(_H2, _Q)),
             goals=(Premise(G, conj(_P, _Q)),)),
        cert.SConstruct(_H1, _H2, H, SHole())),
    "construct_goals": (
        Task(sig=((ident("p"), PROP), (ident("q"), PROP)),
             hyps=(Premise(H, disj(_P, _Q)),),
             goals=(Premise(ident("G1"), _P), Premise(ident("G2"), _Q))),
        cert.SConstruct(ident("G1"), ident("G2"), G, SHole())),
    "eq_sym_hyp": (
        _arith_task([("H", eq(A, app(_F, A)))], [("G", eq(app(_F, A), A))]),
        cert.SEqSym(H, SHole())),
    "eq_sym_goal": (
        _arith_task([("H", eq(app(_F, A), A))], [("G", eq(A, app(_F, A)))]),
        cert.SEqSym(G, SHole())),
    "eq_trans": (
        _arith_task([("H1", eq(A, B)), ("H2", eq(B, C))], [("G", eq(A, C))]),
        cert.SEqTrans(_H1, _H2, ident("H3"), SHole())),
    "rewrite_left_to_right": (
        _arith_task([("H", eq(A, B))], [("G", eq(app(_F, A), B))]),
        cert.SRewrite(False, H, G, SHole())),
    "rewrite_right_to_left": (
        _arith_task([("H", eq(A, B))], [("G", eq(app(_F, A), B))]),
        cert.SRewrite(True, H, G, SHole())),
    "induction_two_deps": (
        _induction_task(("F", "r")), _INDUCTION),
    "induction_three_deps": (
        _induction_task(("F", "r"), ("K", "s")), _INDUCTION),
}

GOLDEN = {
    "construct_hyps": (
        "(KAssert H (and p q) (KSplit #t p q H (KAxiom p H1 H) (KAxiom q H2"
        " H)) (KClear #f p H1 (KClear #f q H2 (KHole (task (types) (sig (p "
        "prop) (q prop)) (hyps (H (and p q))) (goals (G (and p q))))))))"
    ),
    "construct_goals": (
        "(KAssert G (or p q) (KClear #t p G1 (KClear #t q G2 (KHole (task "
        "(types) (sig (p prop) (q prop)) (hyps (H (or p q))) (goals (G (or "
        "p q))))))) (KSplit #f p q G (KAxiom p G G1) (KAxiom q G G2)))"
    ),
    "eq_sym_hyp": (
        "(KAssert H_sym (= (f a) a) (KRewrite #t a (f a) (lam (z (int)) (= "
        "(f a) z)) H_sym H (KEqRefl (f a) H_sym)) (KClear #f (= a (f a)) H "
        "(KAssert H (= (f a) a) (KAxiom (= (f a) a) H_sym H) (KClear #f (= "
        "(f a) a) H_sym (KHole (task (types) (sig (a (int)) (b (int)) (c "
        "(int)) (f (-> (int) (int)))) (hyps (H (= (f a) a))) (goals (G (= "
        "(f a) a)))))))))"
    ),
    "eq_sym_goal": (
        "(KAssert G_sym (= (f a) a) (KClear #t (= a (f a)) G (KAssert G (= "
        "(f a) a) (KClear #t (= (f a) a) G_sym (KHole (task (types) (sig (a"
        " (int)) (b (int)) (c (int)) (f (-> (int) (int)))) (hyps (H (= (f "
        "a) a))) (goals (G (= (f a) a)))))) (KAxiom (= (f a) a) G G_sym))) "
        "(KRewrite #t (f a) a (lam (z (int)) (= a z)) G G_sym (KEqRefl a "
        "G)))"
    ),
    "eq_trans": (
        "(KAssert H3 (= a c) (KRewrite #t a b (lam (z (int)) (= z c)) H3 H1"
        " (KAxiom (= b c) H2 H3)) (KHole (task (types) (sig (a (int)) (b "
        "(int)) (c (int)) (f (-> (int) (int)))) (hyps (H1 (= a b)) (H2 (= b"
        " c)) (H3 (= a c))) (goals (G (= a c))))))"
    ),
    "rewrite_left_to_right": (
        "(KRewrite #t a b (lam (z (int)) (= (f z) b)) G H (KHole (task "
        "(types) (sig (a (int)) (b (int)) (c (int)) (f (-> (int) (int)))) "
        "(hyps (H (= a b))) (goals (G (= (f b) b))))))"
    ),
    "rewrite_right_to_left": (
        "(KAssert H_sym (= b a) (KRewrite #t a b (lam (z (int)) (= b z)) "
        "H_sym H (KEqRefl b H_sym)) (KRewrite #t b a (lam (z (int)) (= (f "
        "a) z)) G H_sym (KClear #f (= b a) H_sym (KHole (task (types) (sig "
        "(a (int)) (b (int)) (c (int)) (f (-> (int) (int)))) (hyps (H (= a "
        "b))) (goals (G (= (f a) a))))))))"
    ),
    "induction_two_deps": (
        "(KRevert (r i) (p i) F G (KRevert (q i) (imp (r i) (p i)) D G "
        "(KInduction i 0 (lam (n (int)) (imp (q n) (imp (r n) (p n)))) G Hi"
        " Hr (KIntroImp (q i) (imp (r i) (p i)) G D (KIntroImp (r i) (p i) "
        "G F (KHole (task (types) (sig (i (int)) (p (-> (int) prop)) (q (->"
        " (int) prop)) (r (-> (int) prop)) (s (-> (int) prop))) (hyps (E (p"
        " 0)) (Hi (<= i 0)) (D (q i)) (F (r i))) (goals (G (p i))))))) "
        "(KIntroImp (q i) (imp (r i) (p i)) G D (KIntroImp (r i) (p i) G F "
        "(KHole (task (types) (sig (i (int)) (p (-> (int) prop)) (q (-> "
        "(int) prop)) (r (-> (int) prop)) (s (-> (int) prop))) (hyps (E (p "
        "0)) (Hi (> i 0)) (Hr (forall (n#1 (int)) (imp (< n#1 i) (imp (q "
        "n#1) (imp (r n#1) (p n#1)))))) (D (q i)) (F (r i))) (goals (G (p "
        "i))))))))))"
    ),
    "induction_three_deps": (
        "(KRevert (s i) (p i) K G (KRevert (r i) (imp (s i) (p i)) F G "
        "(KRevert (q i) (imp (r i) (imp (s i) (p i))) D G (KInduction i 0 "
        "(lam (n (int)) (imp (q n) (imp (r n) (imp (s n) (p n))))) G Hi Hr "
        "(KIntroImp (q i) (imp (r i) (imp (s i) (p i))) G D (KIntroImp (r "
        "i) (imp (s i) (p i)) G F (KIntroImp (s i) (p i) G K (KHole (task "
        "(types) (sig (i (int)) (p (-> (int) prop)) (q (-> (int) prop)) (r "
        "(-> (int) prop)) (s (-> (int) prop))) (hyps (E (p 0)) (Hi (<= i "
        "0)) (D (q i)) (F (r i)) (K (s i))) (goals (G (p i)))))))) "
        "(KIntroImp (q i) (imp (r i) (imp (s i) (p i))) G D (KIntroImp (r "
        "i) (imp (s i) (p i)) G F (KIntroImp (s i) (p i) G K (KHole (task "
        "(types) (sig (i (int)) (p (-> (int) prop)) (q (-> (int) prop)) (r "
        "(-> (int) prop)) (s (-> (int) prop))) (hyps (E (p 0)) (Hi (> i 0))"
        " (Hr (forall (n#1 (int)) (imp (< n#1 i) (imp (q n#1) (imp (r n#1) "
        "(imp (s n#1) (p n#1))))))) (D (q i)) (F (r i)) (K (s i))) (goals "
        "(G (p i))))))))))))"
    ),
}


@pytest.mark.parametrize("name", sorted(COMPOSITES))
def test_composite_kernel_output(name):
    T, s = COMPOSITES[name]
    k = elaborate(s, T)
    assert cert_dumps(k) == GOLDEN[name]
    assert checker.ccheck(k, T).ok


# -- loading: the wire corpus, shared subterms, depth --------------------------


def _wire_corpus():
    """Serialized kernel certificates of the families the benchmark runs:
    a blasted chain, random propositional applications, the first-order
    script, and the composite certificates above."""
    T = gen_chain_task(12)
    out = {"chain": [cert_dumps(elaborate(t_blast(T)[1], T))]}
    rng = random.Random(9)
    prop = out["prop"] = []
    while len(prop) < 40:
        T = _rand_task(rng)
        try:
            _, s = _rand_application(rng, T)
        except (TransformError, IndexError):
            continue
        prop.append(cert_dumps(elaborate(s, T)))
    T = parse_task(_FOL_TASK)
    fol = out["fol"] = []
    for apply, feed in _fol_script():
        tasks, s = apply(T)
        fol.append(cert_dumps(elaborate(s, T)))
        T = tasks[feed]
    out["composite"] = [cert_dumps(elaborate(s, T))
                        for T, s in COMPOSITES.values()]
    return out


_WIRE = _wire_corpus()


@pytest.mark.parametrize("family", sorted(_WIRE))
def test_loaded_certificates_print_byte_identically(family):
    for text in _WIRE[family]:
        assert cert_dumps(cert_loads(text)) == text


def _nodes(k):
    todo = [k]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(cert.cert_children(node))


def test_a_loaded_chain_shares_the_operands_each_node_matches():
    # each KIntroImp leaves its right side as the goal; the next one matches
    # that goal against (imp left right), so a load that shares subterms
    # gives it the goal's own operand objects and alpha_equal stops at `is`
    k = cert_loads(_WIRE["chain"][0])
    pairs = 0
    for node in _nodes(k):
        if isinstance(node, cert.KIntroImp) \
                and isinstance(node.rest, cert.KIntroImp):
            assert node.rest.left is node.right.left
            assert node.rest.right is node.right.right
            pairs += 1
    assert pairs == 11


def test_a_certificate_loaded_against_its_parsed_task_checks_at_in_memory_cost(
        annotate_calls, monkeypatch):
    # while the parsed task is alive, the load gets back its own formulas
    # for every subterm it has, so the kernel finds each operand recorded
    # (no typing) and matches it by identity (no alpha_equal walk), as on
    # the certificate elaboration built
    T = parse_task(sexpr.to_text(gen_chain_task(20)))
    _, s = t_blast(T)
    k = elaborate(s, T)
    alpha_calls = []
    walk = core._alpha

    def counting(*args):
        alpha_calls.append(args[0])
        return walk(*args)

    monkeypatch.setattr(core, "_alpha", counting)
    costs = []
    for c in (k, cert_loads(cert_dumps(k))):
        annotate_calls.clear()
        alpha_calls.clear()
        assert checker.ccheck(c, T).ok
        costs.append((dict(annotate_calls), len(alpha_calls)))
    in_memory, loaded = costs
    assert loaded == in_memory
    assert loaded[0] == {} and loaded[1] > 0


def test_parsed_data_shares_no_list():
    # cert_loads shares equal subterms; the data sexpr.loads hands out may
    # be edited in place, so equal siblings must stay separate lists
    text = cert_dumps(cert.KSplit(False, conj(_P, _Q), conj(_P, _Q), H,
                                  KHole(_T0), KHole(_T0)))
    data = sexpr.loads(text)
    assert data[2] == data[3] and data[5] == data[6]
    data[2].append("r")
    data[5][1][4].append(["G2", "true"])
    assert data[3] == ["and", "p", "q"]
    assert data[6] == sexpr.loads(text)[6]
    k = cert_loads(text)
    assert k.left is k.right


def _one_reader_cases():
    """Name -> (task, certificate text): the samples (task None), blast's
    kernel certificates for the chains 1..12, and a t_instantiate and a
    t_rewrite kernel certificate on polymorphic tasks, each with the task
    it applies to, read from its text."""
    cases = {type(c).__name__: (None, cert_dumps(c))
             for c in KERNEL_SAMPLES + SURFACE_SAMPLES}
    for n in range(1, 13):
        T = parse_task(sexpr.to_text(gen_chain_task(n)))
        cases[f"chain_{n}"] = (T, cert_dumps(elaborate(t_blast(T)[1], T)))
    T = parse_task(_OPEN_WITNESS.format("d"))
    _, s = t_instantiate(T, H, var("d"))
    cases["instantiate"] = (T, cert_dumps(elaborate(s, T)))
    T = parse_task(_POLY_SIDE.format("(E (= e f)) (H (p e))", "(G (p f))"))
    cases["rewrite"] = (T, cert_dumps(elaborate(t_rewrite(T, _E, H)[1], T)))
    return cases


def _payloads(c):
    """The formulas and types c carries, its holes' tasks' included."""
    for node in _nodes(c):
        for f in dataclasses.fields(node):
            v = getattr(node, f.name)
            if isinstance(v, (core.Term, core.Type)):
                yield v
            elif isinstance(v, Task):
                yield from (ty for _, ty in v.sig)
                yield from (p.formula for p in v.premises())


def _from_form(text):
    """cert_loads of the datum text holds, printed back with dumps;
    loads' error as cert_loads words it."""
    try:
        form = sexpr.loads(text)
    except sexpr.SexprError as e:
        raise CertError(f"malformed certificate text: {e}") from e
    return cert_loads(sexpr.dumps(form))


def test_the_text_and_the_form_entry_are_one_reader():
    shared = 0
    for T, text in _one_reader_cases().values():
        loaded, from_form = cert_loads(text), _from_form(text)
        assert loaded == from_form
        # read while the first read lives: the very same objects
        assert all(a is b for a, b in zip(_payloads(loaded),
                                          _payloads(from_form)))
        if T is None:
            continue
        held = {t: t for p in T.premises() for t in core.subterms(p.formula)}
        for t in _payloads(loaded):
            if t in held:
                assert t is held[t]
                shared += 1
    assert shared > 100


def _outcome(read, text):
    try:
        return cert_dumps(read(text))
    except CertError as e:
        return f"CertError: {e}"


@pytest.mark.parametrize("name", ["chain_3", "instantiate", "rewrite"])
def test_the_text_and_the_form_entry_refuse_damage_alike(name):
    # every truncation and every one-token deletion: the same certificate
    # or the same CertError from both
    text = _one_reader_cases()[name][1]
    tokens = sexpr.tokens(text)
    truncated = [text[:n] for n in range(len(text))]
    deleted = [" ".join(tokens[:k] + tokens[k + 1:])
               for k in range(len(tokens))]
    for t in truncated + deleted:
        got = _outcome(cert_loads, t)
        assert got == _outcome(_from_form, t)
        if t in truncated:
            assert got.startswith("CertError: ")


@contextlib.contextmanager
def _recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


_DEEP = 30_000


def _deep(opener, inner, depth=_DEEP):
    return opener * depth + inner + ")" * depth


_DEEP_TEXTS = {
    "certificate": _deep("(KClear #t p G ", "(KTrivial #t G)"),
    "negation": "(KAxiom " + _deep("(not ", "p") + " H G)",
    "application": "(KAxiom " + _deep("(f ", "x") + " H G)",
    "binder": "(KAxiom " + _deep("(forall (x (int)) ", "p") + " H G)",
    "type": "(SInstType H H1 " + _deep("(set ", "(int)") + " SHole)",
    "hole_goal": "(KHole (task (types) (sig (p prop)) (hyps) (goals (G "
                 + _deep("(not ", "p") + "))))",
    "hole_signature": "(KHole (task (types (set 1)) (sig (s "
                      + _deep("(set ", "prop") + ")) (hyps) (goals (G true))))",
}


@pytest.mark.parametrize("name", sorted(_DEEP_TEXTS))
def test_cert_loads_reads_deep_nesting_without_recursion(name):
    # the limit is far below the nesting depth: a reader that recursed per
    # level fails (caught here, as pytest renders such tracebacks slowly)
    text = _DEEP_TEXTS[name]
    outcomes = []
    with _recursion_limit(1000):
        for t in (text, text[:-1]):
            try:
                outcomes.append(type(cert_loads(t)).__name__)
            except (CertError, RecursionError) as e:
                outcomes.append(type(e).__name__)
    assert outcomes == [text[1:text.index(" ")], "CertError"]


def test_leaves_and_fill_holes_walk_deep_nesting_without_recursion():
    text = _deep("(KClear #t p G ", cert_dumps(KHole(_POOL[0])), 15_000)
    k = cert_loads(text)
    with _recursion_limit(1000):
        try:
            got = leaves(fill_holes(k, [KHole(_POOL[1])]))
        except RecursionError as e:
            got = type(e).__name__
    assert got == [_POOL[1]]


def test_cert_dumps_prints_deep_nesting_without_recursion():
    # cert_dumps prints back what cert_loads reads, at a depth far beyond
    # the recursion limit
    text = _deep("(KClear #t p G ", "(KTrivial #t G)", 15_000)
    with _recursion_limit(1000):
        try:
            printed = cert_dumps(cert_loads(text))
        except RecursionError as e:
            printed = type(e).__name__
    assert printed == text


def _same(a, b) -> bool:
    """a == b, compared on an explicit stack: the dataclass __eq__ of a
    deep formula recurses per level."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if dataclasses.is_dataclass(x):
            todo += [(getattr(x, f.name), getattr(y, f.name))
                     for f in dataclasses.fields(x) if f.compare]
        elif isinstance(x, tuple):
            if len(x) != len(y):
                return False
            todo += zip(x, y)
        elif x != y:
            return False
    return True


def test_cert_dumps_prints_deep_formulas_and_types_without_recursion():
    # built through the constructors, not read: a 60 000-deep negation and
    # a 20 000-deep arrow type (left-nested, so its text nests too)
    deep_not = _P
    for _ in range(60_000):
        deep_not = Not(deep_not)
    deep_arrow = INT
    for _ in range(20_000):
        deep_arrow = Arrow(deep_arrow, PROP)
    T = Task(sig=((ident("p"), PROP), (ident("f"), deep_arrow)),
             hyps=(Premise(H, deep_not),), goals=(Premise(G, deep_not),))
    c = cert.KInstType(PiType(_al, deep_not), H, _H1, deep_arrow, KHole(T))
    with _recursion_limit(1000):
        try:
            text = cert_dumps(c)
            loaded = cert_loads(text)
            got = _same(loaded, c)
        except RecursionError as e:
            got = type(e).__name__
    assert got is True
    assert text.count("(not ") == 3 * 60_000
    assert text.count("(-> ") == 2 * 20_000


# -- printing: the reference printer, shared objects, names --------------------


@functools.cache
def _blast_texts():
    """cert_dumps of blast's surface and kernel certificates on the chains
    1..39 and 150, each beside the reference printer's text."""
    out = []
    for n in [*range(1, 40), 150]:
        T = gen_chain_task(n)
        s = t_blast(T)[1]
        for c in (s, elaborate(s, T)):
            out.append((cert_dumps(c), ref_cert_dumps(c)))
    return out


def test_cert_dumps_prints_blast_certificates_as_the_reference_does():
    for text, ref in _blast_texts():
        assert text == ref


def test_cert_bytes_are_pinned():
    # perfbench's cert_bytes counts bytes, so a same-length change to the
    # text would pass the benchmark; this digest was taken before
    # cert_dumps printed in one pass, and must not move
    h = hashlib.sha256()
    for text, _ in _blast_texts():
        h.update(text.encode("utf-8"))
    assert h.hexdigest() == \
        "facbf9b4c3f33b9e2aed7a9590df2b720d2edc0e460748a4d6970b150dc0d0d2"


@settings(max_examples=200, deadline=None)
@given(_terms, _types)
def test_an_object_at_several_places_prints_as_the_reference_does(t, ty):
    # t and ty sit at several places, as whole payloads and inside others;
    # the later occurrences copy the text of the first
    T = Task(sig=((ident("p"), ty), (ident("q"), Arrow(ty, ty))),
             hyps=(Premise(H, t), Premise(_H2, App(App(t, t), Not(t)))),
             goals=(Premise(G, t),))
    c = cert.KAssert(
        _H1, t, cert.KAxiom(t, H, G),
        cert.KInstQuant(False, ty, Lam(_x, ty, App(t, t)), H, _H2, t,
                        cert.KSplit(True, t, App(t, t), G, KHole(T),
                                    KHole(T))))
    text = cert_dumps(c)
    assert text == ref_cert_dumps(c)
    assert cert_loads(text) == c


_UNREADABLE = ["12", "#t", "-3", "x#3", "a b"]


@pytest.mark.parametrize("name", _UNREADABLE)
def test_a_name_the_reader_would_not_read_back_is_refused(name):
    # an API-built task: blast closes it with the premise's name, which the
    # reader would refuse (12, #t, -3), split (a b), or read as another
    # identifier (x#3 reads as x with uid 3)
    P = Ident(name)
    T = Task(sig=((ident("p"), PROP),), hyps=(Premise(P, _P),),
             goals=(Premise(G, _P),))
    tasks, s = t_blast(T)
    assert tasks == []
    for c in (s, elaborate(s, T), KHole(T)):
        with pytest.raises(sexpr.SexprError,
                           match="not a printable symbol: " + repr(name)):
            cert_dumps(c)
    with pytest.raises(sexpr.SexprError, match="not a printable symbol"):
        sexpr.to_text(T)


@pytest.mark.parametrize("formula, name", [
    (var("true"), "true"),
    (Not(var("false")), "false"),
    (Forall(ident("x"), TVar(ident("prop")), _P), "prop"),
])
def test_a_variable_the_reader_reads_as_a_constant_is_refused(formula, name):
    # (KAxiom true H G) would load as KAxiom(Top(), H, G), and a binder
    # typed by the type variable prop as one typed Prop()
    with pytest.raises(sexpr.SexprError,
                       match="not a printable symbol: " + repr(name)):
        cert_dumps(cert.KAxiom(formula, H, G))


def test_a_premise_or_variable_named_like_a_constant_elsewhere_reads_back():
    # as a premise's name, a term variable prop or a type variable true,
    # the reader reads each name back
    T = Task(sig=((ident("prop"), TVar(ident("true"))),),
             hyps=(Premise(ident("true"), _P),), goals=(Premise(G, _P),))
    for c in (cert.KAxiom(_P, ident("true"), G), KHole(T),
              cert.KAxiom(var("prop"), ident("false"), ident("prop"))):
        assert cert_loads(cert_dumps(c)) == c


@pytest.mark.parametrize("bad", [3, (1, 2), "p", "a b", None])
def test_a_payload_or_subterm_that_is_no_value_is_refused(bad):
    # a str is not printed as it is, and a tuple is not taken for the
    # printer's own bookkeeping
    for c in (cert.KAxiom(bad, H, G), cert.KAxiom(Not(bad), H, G),
              KHole(goal_task(conj(_P, bad)))):
        with pytest.raises((CertError, sexpr.SexprError)):
            cert_dumps(c)


def test_a_name_with_a_uid_prints_and_reads_back_as_itself():
    for P in (Ident("x", 3), Ident("x#3", 2), Ident("12", 1)):
        T = Task(sig=((ident("p"), PROP),), hyps=(Premise(P, _P),),
                 goals=(Premise(G, _P),))
        k = elaborate(t_blast(T)[1], T)
        assert cert_loads(cert_dumps(k)) == k
        assert sexpr.task_loads(sexpr.to_text(T)) == T


def test_a_deep_form_is_quoted_without_recursion():
    # a refusal quotes the form it refused in certificate syntax, printed
    # on an explicit stack: its repr recursed per level
    form = _deep("(", "(a)", 60_000)
    with _recursion_limit(1000):
        try:
            cert_loads(f"(KAxiom x {form} G)")
        except (CertError, RecursionError) as e:
            got = e
    assert type(got) is CertError
    assert str(got) == f"expected an identifier, got {form}"
