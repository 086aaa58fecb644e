"""Kernel rule replay: one positive and at least one negative per rule."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

import oracles

import certforge.cert as c
from certforge.checker import CheckError, ccheck, check_application, step
from certforge.cli import parse_task
from certforge.core import (
    INT,
    PROP,
    Arrow,
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
    TypingError,
    Var,
    alpha_equal,
    annotate,
    app,
    conj,
    disj,
    eq,
    iff,
    ident,
    imp,
    subst_term,
    var,
)
from certforge.sexpr import to_text
from certforge.task import Premise, Task, task_alpha_equal, well_typed

H, G = ident("H"), ident("G")
H1, H2, H3 = ident("H1"), ident("H2"), ident("H3")
P, Q, R = var("p"), var("q"), var("r")
x, y, i, n = ident("x"), ident("y"), ident("i"), ident("n")

PSIG = ((ident("p"), PROP), (ident("q"), PROP), (ident("r"), PROP))


def ptask(hyps=(), goals=()):
    return Task(sig=PSIG,
                hyps=tuple(Premise(ident(nm), f) for nm, f in hyps),
                goals=tuple(Premise(ident(nm), f) for nm, f in goals))


def ok(T, node):
    rep = ccheck(node, T)
    assert rep.ok, rep.failure
    return rep.derived_leaves


def bad(T, node, fragment=""):
    rep = ccheck(node, T)
    assert not rep.ok
    assert fragment in rep.failure.message
    return rep.failure


def names(side):
    return [str(p.name) for p in side]


# -- holes and closing rules ---------------------------------------------------


def test_hole_records_derived_task():
    T = ptask(goals=[("G", P)])
    (leaf,) = ok(T, c.KHole(T))
    assert leaf == T


def test_hole_stored_task_must_match():
    T = ptask(goals=[("G", P)])
    other = ptask(goals=[("G", Q)])
    f = bad(T, c.KHole(other), "stored task differs")
    assert f.rule == "KHole"


def test_hole_matches_up_to_alpha():
    fa = Forall(x, INT, eq(var("x"), var("x")))
    fb = Forall(y, INT, eq(var("y"), var("y")))
    ok(ptask(goals=[("G", fa)]), c.KHole(ptask(goals=[("G", fb)])))


def test_trivial():
    ok(ptask(goals=[("G", Top())]), c.KTrivial(True, G))
    ok(ptask(hyps=[("H", Bottom())], goals=[("G", P)]), c.KTrivial(False, H))
    bad(ptask(goals=[("G", P)]), c.KTrivial(True, G), "not truth")
    bad(ptask(hyps=[("H", Top())], goals=[("G", P)]),
        c.KTrivial(False, H), "not falsity")
    bad(ptask(goals=[("G", Top())]), c.KTrivial(True, H), "no premise")


def test_axiom():
    T = ptask(hyps=[("H", P)], goals=[("G", P)])
    ok(T, c.KAxiom(P, H, G))
    bad(T, c.KAxiom(Q, H, G), "does not match")
    bad(T, c.KAxiom(P, G, H), "not a hypothesis")
    T2 = ptask(hyps=[("H", P)], goals=[("G", Q)])
    bad(T2, c.KAxiom(P, H, G), "goal G does not match")


def test_eq_refl():
    a = var("a")
    T = Task(sig=((ident("a"), INT),), goals=(Premise(G, eq(a, a)),))
    ok(T, c.KEqRefl(a, G))
    T2 = Task(sig=((ident("a"), INT), (ident("b"), INT)),
              goals=(Premise(G, eq(a, var("b"))),))
    bad(T2, c.KEqRefl(a, G), "does not match")


# -- structural rules ----------------------------------------------------------


def test_assert_branches():
    T = ptask(hyps=[("H", P)], goals=[("G", Q)])
    node = c.KAssert(H1, R, c.KHole(T), c.KHole(T))
    rep = ccheck(node, T)
    assert not rep.ok  # stored holes are stale on purpose
    proof_t, rest_t = step(T, node, ())
    assert names(proof_t.goals) == ["G", "H1"]
    assert names(proof_t.hyps) == ["H"]
    assert names(rest_t.hyps) == ["H", "H1"]
    assert names(rest_t.goals) == ["G"]
    ok(T, c.KAssert(H1, R, c.KHole(proof_t), c.KHole(rest_t)))


def test_assert_rejects_bad_formula():
    T = ptask(goals=[("G", P)])
    bad(T, c.KAssert(H1, IntLit(3), c.KHole(T), c.KHole(T)), "not prop")
    bad(T, c.KAssert(H1, var("zz"), c.KHole(T), c.KHole(T)), "zz")
    bad(T, c.KAssert(G, P, c.KHole(T), c.KHole(T)), "already used")


def test_assert_judges_the_formula_against_prop():
    T = Task(sig=PSIG + ((ident("choose"), TVar(ident("a"))),),
             goals=(Premise(G, P),))
    t1, t2 = step(T, c.KAssert(H1, var("choose"),
                               c.KHole(T), c.KHole(T)), ())
    assert t2.hyps[-1].formula == var("choose")
    bad(T, c.KAssert(H1, app(var("+"), var("choose"), IntLit(1)),
                     c.KHole(T), c.KHole(T)), "has type (int), not prop")


def test_stepping_an_assertion_types_its_formula_once(annotate_calls):
    # the goal-side child's judgment types the formula and the other child
    # finds it recorded; the rule typed it first as well (two calls)
    T = Task(sig=PSIG + ((ident("choose"), TVar(ident("a"))),),
             goals=(Premise(G, P),))
    assert well_typed(T)
    f = conj(var("choose"), Q)
    annotate_calls.clear()
    step(T, c.KAssert(H1, f, c.KHole(T), c.KHole(T)), ())
    assert dict(annotate_calls) == {"task": [f]}
    # a refusal types the formula once more, for the type it names
    three = IntLit(3)
    annotate_calls.clear()
    bad(T, c.KAssert(H1, three, c.KHole(T), c.KHole(T)), "(int), not prop")
    assert dict(annotate_calls) == {"task": [three], "checker": [three]}


def test_assert_accepts_quantified_formula():
    al = ident("al")
    f = PiType(al, Forall(x, TVar(al), eq(var("x"), var("x"))))
    T = ptask(goals=[("G", P)])
    t1, t2 = step(T, c.KAssert(H1, f, c.KHole(T), c.KHole(T)), ())
    assert alpha_equal(t2.hyps[-1].formula, f)
    assert t1.goals[-1].name == H1


def test_split():
    T = ptask(goals=[("G", conj(P, Q))])
    node = c.KSplit(True, P, Q, G, c.KHole(T), c.KHole(T))
    t1, t2 = step(T, node, ())
    assert t1.goals[0].formula == P and t2.goals[0].formula == Q
    ok(T, c.KSplit(True, P, Q, G, c.KHole(t1), c.KHole(t2)))

    Th = ptask(hyps=[("H", disj(P, Q))], goals=[("G", R)])
    s1, s2 = step(Th, c.KSplit(False, P, Q, H, c.KHole(Th), c.KHole(Th)), ())
    assert s1.hyps[0].formula == P and s2.hyps[0].formula == Q

    bad(T, c.KSplit(True, Q, P, G, c.KHole(T), c.KHole(T)), "does not match")
    bad(Th, c.KSplit(True, P, Q, H, c.KHole(Th), c.KHole(Th)), "not a goal")
    # goal split wants a conjunction, not a disjunction
    Td = ptask(goals=[("G", disj(P, Q))])
    bad(Td, c.KSplit(True, P, Q, G, c.KHole(Td), c.KHole(Td)), "does not match")


def test_destruct():
    Th = ptask(hyps=[("H", conj(P, Q))], goals=[("G", R)])
    node = c.KDestruct(False, P, Q, H, H1, H2, c.KHole(Th))
    (t,) = step(Th, node, ())
    assert names(t.hyps) == ["H1", "H2"]
    assert t.hyps[0].formula == P and t.hyps[1].formula == Q
    ok(Th, c.KDestruct(False, P, Q, H, H1, H2, c.KHole(t)))

    Tg = ptask(goals=[("G", disj(P, Q))])
    (tg,) = step(Tg, c.KDestruct(True, P, Q, G, H1, H2, c.KHole(Tg)), ())
    assert names(tg.goals) == ["H1", "H2"]

    bad(Th, c.KDestruct(False, P, Q, H, H1, H1, c.KHole(Th)), "coincide")
    bad(Th, c.KDestruct(False, P, Q, H, G, H2, c.KHole(Th)), "already used")
    bad(Tg, c.KDestruct(True, conj(P, Q), Q, G, H1, H2, c.KHole(Tg)),
        "does not match")


def test_clear():
    T = ptask(hyps=[("H", P), ("H2", Q)], goals=[("G", R)])
    (t,) = step(T, c.KClear(False, P, H, c.KHole(T)), ())
    assert names(t.hyps) == ["H2"]
    ok(T, c.KClear(False, P, H, c.KHole(t)))
    bad(T, c.KClear(False, Q, H, c.KHole(T)), "does not match")
    # goals can be dropped too
    Tg = ptask(goals=[("G", R), ("G2", P)])
    (tg,) = step(Tg, c.KClear(True, P, ident("G2"), c.KHole(Tg)), ())
    assert names(tg.goals) == ["G"]


def test_swap_neg():
    Th = ptask(hyps=[("H", Not(P))], goals=[("G", Q)])
    (t,) = step(Th, c.KSwapNeg(False, P, H, c.KHole(Th)), ())
    assert names(t.hyps) == []
    assert names(t.goals) == ["G", "H"]
    assert t.goals[-1].formula == P
    ok(Th, c.KSwapNeg(False, P, H, c.KHole(t)))

    Tg = ptask(goals=[("G", Not(P))])
    (tg,) = step(Tg, c.KSwapNeg(True, P, G, c.KHole(Tg)), ())
    assert names(tg.goals) == []
    assert names(tg.hyps) == ["G"]
    bad(Th, c.KSwapNeg(False, Q, H, c.KHole(Th)), "does not match")
    bad(ptask(hyps=[("H", P)], goals=[("G", Q)]),
        c.KSwapNeg(False, P, H, c.KHole(Th)), "does not match")


def test_intro_imp():
    T = ptask(goals=[("G", imp(P, Q))])
    (t,) = step(T, c.KIntroImp(P, Q, G, H1, c.KHole(T)), ())
    assert names(t.hyps) == ["H1"] and t.hyps[0].formula == P
    assert t.goals[0].formula == Q
    ok(T, c.KIntroImp(P, Q, G, H1, c.KHole(t)))
    bad(T, c.KIntroImp(Q, P, G, H1, c.KHole(T)), "does not match")
    bad(T, c.KIntroImp(P, Q, G, G, c.KHole(T)), "already used")


def test_split_imp():
    T = ptask(hyps=[("H", imp(P, Q)), ("H2", R)], goals=[("G", R)])
    node = c.KSplitImp(P, Q, H, H1, c.KHole(T), c.KHole(T))
    t_side, t_rest = step(T, node, ())
    # first branch: the hypothesis is traded for its left side as a goal
    assert names(t_side.hyps) == ["H2"]
    assert names(t_side.goals) == ["G", "H1"]
    assert t_side.goals[-1].formula == P
    # second branch: the implication is weakened to its conclusion
    assert names(t_rest.hyps) == ["H", "H2"]
    assert t_rest.hyps[0].formula == Q
    ok(T, c.KSplitImp(P, Q, H, H1, c.KHole(t_side), c.KHole(t_rest)))
    bad(T, c.KSplitImp(P, Q, H, G, c.KHole(t_side), c.KHole(t_rest)),
        "already used")
    bad(T, c.KSplitImp(P, Q, H2, H1, c.KHole(t_side), c.KHole(t_rest)),
        "does not match")


def test_unfold_iff():
    T = ptask(hyps=[("H", iff(P, Q))], goals=[("G", R)])
    (t,) = step(T, c.KUnfoldIff(False, P, Q, H, c.KHole(T)), ())
    assert t.hyps[0].formula == conj(imp(P, Q), imp(Q, P))
    ok(T, c.KUnfoldIff(False, P, Q, H, c.KHole(t)))
    Tg = ptask(goals=[("G", iff(P, Q))])
    (tg,) = step(Tg, c.KUnfoldIff(True, P, Q, G, c.KHole(Tg)), ())
    assert tg.goals[0].formula == conj(imp(P, Q), imp(Q, P))
    bad(T, c.KUnfoldIff(False, Q, P, H, c.KHole(T)), "does not match")


def test_revert():
    T = ptask(hyps=[("H", P), ("H2", Q)], goals=[("G", R)])
    (t,) = step(T, c.KRevert(P, R, H, G, c.KHole(T)), ())
    assert names(t.hyps) == ["H2"]
    assert t.goals[0].formula == imp(P, R)
    ok(T, c.KRevert(P, R, H, G, c.KHole(t)))
    bad(T, c.KRevert(Q, R, H, G, c.KHole(T)), "does not match")
    bad(T, c.KRevert(P, R, G, H, c.KHole(T)), "not a hypothesis")


# -- quantifier rules ----------------------------------------------------------


def qtask(hyps=(), goals=()):
    sig = ((ident("p"), Arrow(INT, PROP)), (ident("c"), INT))
    return Task(sig=sig,
                hyps=tuple(Premise(ident(nm), f) for nm, f in hyps),
                goals=tuple(Premise(ident(nm), f) for nm, f in goals))


PX = Lam(x, INT, app(var("p"), var("x")))


def test_intro_quant_goal():
    T = qtask(goals=[("G", Forall(x, INT, app(var("p"), var("x"))))])
    node = c.KIntroQuant(True, INT, PX, G, y, c.KHole(T))
    (t,) = step(T, node, ())
    assert (y, INT) in t.sig
    assert alpha_equal(t.goals[0].formula, app(var("p"), var("y")))
    ok(T, c.KIntroQuant(True, INT, PX, G, y, c.KHole(t)))


def test_intro_quant_hyp_existential():
    T = qtask(hyps=[("H", Exists(x, INT, app(var("p"), var("x"))))],
              goals=[("G", app(var("p"), var("c")))])
    (t,) = step(T, c.KIntroQuant(False, INT, PX, H, y, c.KHole(T)), ())
    assert alpha_equal(t.hyps[0].formula, app(var("p"), var("y")))


def test_intro_quant_freshness():
    T = qtask(goals=[("G", Forall(x, INT, app(var("p"), var("x"))))])
    bad(T, c.KIntroQuant(True, INT, PX, G, ident("c"), c.KHole(T)),
        "not fresh")
    bad(T, c.KIntroQuant(True, INT, PX, G, ident("+"), c.KHole(T)),
        "reserved")


def test_intro_quant_fresh_name_bound_in_a_kept_premise():
    # y occurs in H only as a binder, so it is fresh; but declaring it makes
    # H's binder shadow a declared symbol, and the opened task is ill-typed
    sig = ((ident("p"), Arrow(INT, PROP)), (ident("q"), Arrow(INT, PROP)))
    qx = Lam(x, INT, app(var("q"), var("x")))
    T = Task(sig=sig,
             hyps=(Premise(H, Forall(y, INT, app(var("p"), var("y")))),),
             goals=(Premise(G, Forall(x, INT, app(var("q"), var("x")))),))
    bad(T, c.KIntroQuant(True, INT, qx, G, y, c.KHole(T)), "ill-typed")


def test_intro_quant_may_reuse_the_opened_binder():
    # the premise that bound y is the one replaced, so no binder shadows it
    sig = ((ident("q"), Arrow(INT, PROP)),)
    T = Task(sig=sig,
             goals=(Premise(G, Forall(y, INT, app(var("q"), var("y")))),))
    qy = Lam(y, INT, app(var("q"), var("y")))
    (t,) = step(T, c.KIntroQuant(True, INT, qy, G, y, c.KHole(T)), ())
    assert t.goals[0].formula == app(var("q"), var("y"))
    ok(T, c.KIntroQuant(True, INT, qy, G, y, c.KHole(t)))


def test_intro_quant_shape_checks():
    T = qtask(goals=[("G", Forall(x, INT, app(var("p"), var("x"))))])
    bad(T, c.KIntroQuant(True, INT, app(var("p"), var("c")), G, y, c.KHole(T)),
        "not a lambda")
    bad(T, c.KIntroQuant(True, PROP, PX, G, y, c.KHole(T)),
        "differs from the carried type")
    # wrong polarity: an existential goal cannot be introduced
    Te = qtask(goals=[("G", Exists(x, INT, app(var("p"), var("x"))))])
    bad(Te, c.KIntroQuant(True, INT, PX, G, y, c.KHole(Te)), "does not match")
    # non-ground annotation
    av = TVar(ident("av"))
    badpred = Lam(x, av, Top())
    bad(T, c.KIntroQuant(True, av, badpred, G, y, c.KHole(T)), "av")


def _sets(depth, leaf):
    for _ in range(depth):
        leaf = TApp(ident("set"), (leaf,))
    return leaf


def _forged_deep_annotation(depth):
    """A task and a KIntroQuant whose annotation and carried type are
    distinct depth-deep types: they differ only at the bottom."""
    elem = TApp(ident("elem"), ())
    T = Task(types=((ident("set"), 1), (ident("elem"), 0)),
             goals=(Premise(G, Forall(x, elem, Top())),))
    pred = Lam(x, _sets(depth, INT), Top())
    return T, c.KIntroQuant(True, _sets(depth, elem), pred, G, y, c.KHole(T))


_DIFFERS = "the predicate's annotation differs from the carried type"


def test_a_forged_deep_annotation_is_refused_without_recursion(tmp_path):
    # the types are compared on an explicit stack: the dataclass __eq__
    # recursed through C, a RecursionError under the default limit here
    T, node = _forged_deep_annotation(500)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = ccheck(node, T).failure.message
    except RecursionError as e:
        got = type(e).__name__
    finally:
        sys.setrecursionlimit(old)
    assert got == _DIFFERS
    # and under the command's raised limit, where it overflowed the C
    # stack (a crash, so in a subprocess)
    T, node = _forged_deep_annotation(20_000)
    task_file, cert_file = tmp_path / "t.tsk", tmp_path / "t.cert"
    task_file.write_text(to_text(T), encoding="utf-8")
    cert_file.write_text(c.cert_dumps(node), encoding="utf-8")
    src = Path(c.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "certforge.cli", "check", str(task_file),
         "--cert", str(cert_file)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (
        1, f"error: certificate rejected: KIntroQuant at []: {_DIFFERS}\n")


def test_inst_quant_hyp():
    T = qtask(hyps=[("H", Forall(x, INT, app(var("p"), var("x"))))],
              goals=[("G", app(var("p"), var("c")))])
    node = c.KInstQuant(False, INT, PX, H, H1, var("c"), c.KHole(T))
    (t,) = step(T, node, ())
    assert names(t.hyps) == ["H", "H1"]  # the original stays
    assert alpha_equal(t.hyps[1].formula, app(var("p"), var("c")))
    ok(T, c.KInstQuant(False, INT, PX, H, H1, var("c"), c.KHole(t)))


def test_inst_quant_goal_existential():
    T = qtask(goals=[("G", Exists(x, INT, app(var("p"), var("x"))))])
    (t,) = step(T, c.KInstQuant(True, INT, PX, G, H1, IntLit(5),
                                c.KHole(T)), ())
    assert names(t.goals) == ["G", "H1"]
    assert alpha_equal(t.goals[1].formula, app(var("p"), IntLit(5)))


def test_inst_quant_witness_typing():
    T = qtask(hyps=[("H", Forall(x, INT, app(var("p"), var("x"))))],
              goals=[("G", app(var("p"), var("c")))])
    bad(T, c.KInstQuant(False, INT, PX, H, H1, var("p"), c.KHole(T)), "p")
    bad(T, c.KInstQuant(False, INT, PX, H, G, var("c"), c.KHole(T)),
        "already used")


def test_inst_quant_polymorphic_witness():
    # the witness only has to be typable at the carried type, which fixes
    # its instance: here empty : set(a) is instantiated at set(int)
    setint = TApp(ident("set"), (INT,))
    seta = TApp(ident("set"), (TVar(ident("a")),))
    T = Task(types=((ident("set"), 1),),
             sig=((ident("empty"), seta),
                  (ident("q"), Arrow(setint, PROP))),
             hyps=(Premise(H, Forall(x, setint, app(var("q"), var("x")))),),
             goals=(Premise(G, Bottom()),))
    pred = Lam(x, setint, app(var("q"), var("x")))
    (t,) = step(T, c.KInstQuant(False, setint, pred, H, H1, var("empty"),
                                c.KHole(T)), ())
    assert alpha_equal(t.hyps[1].formula, app(var("q"), var("empty")))


# -- type quantifier rules -------------------------------------------------------


def set_task():
    al = ident("al")
    a = TVar(al)
    seta = TApp(ident("set"), (a,))
    color = TApp(ident("color"), ())
    mem = Arrow(a, Arrow(seta, PROP))
    h2 = PiType(al, Forall(x, a, Forall(ident("s"), seta, app(
        var("mem"), var("x"), app(var("add"), var("x"), var("s"))))))
    return Task(
        types=((ident("color"), 0), (ident("set"), 1)),
        sig=((ident("green"), color),
             (ident("empty"), seta),
             (ident("add"), Arrow(a, Arrow(seta, seta))),
             (ident("mem"), mem)),
        hyps=(Premise(H, h2),),
        goals=(Premise(G, app(var("mem"), var("green"),
                              app(var("add"), var("green"), var("empty")))),))


def test_inst_type():
    T = set_task()
    pi = T.hyps[0].formula
    color = TApp(ident("color"), ())
    node = c.KInstType(pi, H, H1, color, c.KHole(T))
    (t,) = step(T, node, ())
    assert names(t.hyps) == ["H", "H1"]
    inst = t.hyps[1].formula
    assert isinstance(inst, Forall) and inst.ty == color
    ok(T, c.KInstType(pi, H, H1, color, c.KHole(t)))


def test_inst_type_rejects_open_type():
    T = set_task()
    pi = T.hyps[0].formula
    bad(T, c.KInstType(pi, H, H1, TVar(ident("beta")), c.KHole(T)), "beta")


def test_inst_type_goal_is_rejected():
    T = set_task()
    pi = T.hyps[0].formula
    bad(T, c.KInstType(pi, G, H1, INT, c.KHole(T)), "not a hypothesis")


def test_intro_type():
    al = ident("al")
    f = PiType(al, Forall(x, TVar(al), eq(var("x"), var("x"))))
    T = Task(goals=(Premise(G, f),))
    iota = ident("iota")
    node = c.KIntroType(f, G, iota, c.KHole(T))
    (t,) = step(T, node, ())
    assert (iota, 0) in t.types
    got = t.goals[0].formula
    assert isinstance(got, Forall) and got.ty == TApp(iota, ())
    ok(T, c.KIntroType(f, G, iota, c.KHole(t)))
    bad(T, c.KIntroType(f, G, ident("int"), c.KHole(T)), "not fresh")
    T2 = Task(types=((iota, 0),), goals=(Premise(G, f),))
    bad(T2, c.KIntroType(f, G, iota, c.KHole(T2)), "not fresh")


def test_intro_type_wants_a_goal():
    al = ident("al")
    f = PiType(al, Forall(x, TVar(al), eq(var("x"), var("x"))))
    T = Task(hyps=(Premise(H, f),), goals=(Premise(G, Top()),))
    bad(T, c.KIntroType(f, H, ident("iota"), c.KHole(T)), "not a goal")


# -- equality and induction ------------------------------------------------------


def atask(hyps, goals):
    sig = ((ident("a"), INT), (ident("b"), INT), (ident("f"), Arrow(INT, INT)))
    return Task(sig=sig,
                hyps=tuple(Premise(ident(nm), f) for nm, f in hyps),
                goals=tuple(Premise(ident(nm), f) for nm, f in goals))


def test_rewrite():
    a, b, f = var("a"), var("b"), var("f")
    T = atask([("H", eq(a, b))], [("G", eq(app(f, a), app(f, b)))])
    z = ident("z")
    ctx = Lam(z, INT, eq(app(f, var("z")), app(f, b)))
    node = c.KRewrite(True, a, b, ctx, G, H, c.KHole(T))
    (t,) = step(T, node, ())
    assert alpha_equal(t.goals[0].formula, eq(app(f, b), app(f, b)))
    ok(T, c.KRewrite(True, a, b, ctx, G, H, c.KHole(t)))

    # context must reproduce the premise when applied to the left side
    ctx_bad = Lam(z, INT, eq(app(f, var("z")), app(f, a)))
    bad(T, c.KRewrite(True, a, b, ctx_bad, G, H, c.KHole(T)), "does not match")
    # equation hypothesis must really be that equation
    bad(T, c.KRewrite(True, b, a, ctx, G, H, c.KHole(T)), "does not match")
    # the context has to be a lambda with a ground annotation of l's type
    bad(T, c.KRewrite(True, a, b, app(f, a), G, H, c.KHole(T)), "not a lambda")
    ctx_prop = Lam(z, PROP, eq(app(f, a), app(f, b)))
    bad(T, c.KRewrite(True, a, b, ctx_prop, G, H, c.KHole(T)), "prop")


def test_rewrite_hypothesis_side():
    a, b = var("a"), var("b")
    T = atask([("H", eq(a, b)), ("P", eq(a, a))], [("G", eq(b, b))])
    z = ident("z")
    ctx = Lam(z, INT, eq(var("z"), var("z")))
    node = c.KRewrite(False, a, b, ctx, ident("P"), H, c.KHole(T))
    (t,) = step(T, node, ())
    assert alpha_equal(t.hyps[1].formula, eq(b, b))


def test_induction_branches():
    sig = ((i, INT), (ident("p"), Arrow(INT, PROP)))
    T = Task(sig=sig, goals=(Premise(G, app(var("p"), var("i"))),))
    ctx = Lam(n, INT, app(var("p"), var("n")))
    node = c.KInduction(i, IntLit(0), ctx, G, H1, H2, c.KHole(T), c.KHole(T))
    base, rec = step(T, node, ())
    assert alpha_equal(base.hyps[0].formula,
                       app(var("<="), var("i"), IntLit(0)))
    assert alpha_equal(rec.hyps[0].formula, app(var(">"), var("i"), IntLit(0)))
    want = Forall(n, INT, imp(app(var("<"), var("n"), var("i")),
                              app(var("p"), var("n"))))
    assert alpha_equal(rec.hyps[1].formula, want)
    assert base.goals == T.goals and rec.goals == T.goals
    ok(T, c.KInduction(i, IntLit(0), ctx, G, H1, H2,
                       c.KHole(base), c.KHole(rec)))


def test_induction_side_conditions():
    sig = ((i, INT), (ident("j"), PROP), (ident("p"), Arrow(INT, PROP)))
    ctx = Lam(n, INT, app(var("p"), var("n")))
    T = Task(sig=sig, goals=(Premise(G, app(var("p"), var("i"))),))
    hole = c.KHole(T)

    bad(T, c.KInduction(ident("j"), IntLit(0), ctx, G, H1, H2, hole, hole),
        "not declared with type int")
    bad(T, c.KInduction(ident("k"), IntLit(0), ctx, G, H1, H2, hole, hole),
        "not declared with type int")
    bad(T, c.KInduction(i, var("i"), ctx, G, H1, H2, hole, hole),
        "mentions i")
    bad(T, c.KInduction(i, var("j"), ctx, G, H1, H2, hole, hole), "int")
    bad(T, c.KInduction(i, IntLit(0), ctx, G, H1, H1, hole, hole), "coincide")

    # the context must swallow every occurrence of i
    leaky = Lam(n, INT, app(var("p"), var("i")))
    bad(T, c.KInduction(i, IntLit(0), leaky, G, H1, H2, hole, hole),
        "every occurrence")

    # no other premise may mention i
    T2 = Task(sig=sig,
              hyps=(Premise(H, eq(var("i"), IntLit(0))),),
              goals=(Premise(G, app(var("p"), var("i"))),))
    bad(T2, c.KInduction(i, IntLit(0), ctx, G, H1, H2, c.KHole(T2),
                         c.KHole(T2)), "occurs free in premise H")

    # context annotation must be int
    ctx_prop = Lam(n, PROP, app(var("p"), IntLit(0)))
    bad(T, c.KInduction(i, IntLit(0), ctx_prop, G, H1, H2, hole, hole),
        "abstract an int")


# -- report plumbing -------------------------------------------------------------


def test_failure_path_points_at_the_node():
    T = ptask(goals=[("G", conj(P, conj(Q, R)))])
    t1, t2 = step(T, c.KSplit(True, P, conj(Q, R), G, c.KHole(T), c.KHole(T)),
                  ())
    inner_t1, inner_t2 = step(t2, c.KSplit(True, Q, R, G, c.KHole(t2),
                                           c.KHole(t2)), ())
    node = c.KSplit(
        True, P, conj(Q, R), G,
        c.KHole(t1),
        c.KSplit(True, Q, R, G,
                 c.KHole(inner_t1),
                 c.KTrivial(True, G)))  # r is not Top
    rep = ccheck(node, T)
    assert not rep.ok
    assert rep.failure.rule == "KTrivial"
    assert rep.failure.path == (1, 1)


def test_root_task_must_be_well_typed():
    T = Task(goals=(Premise(G, var("nope")),))
    rep = ccheck(c.KHole(T), T)
    assert not rep.ok
    assert "not well-typed" in rep.failure.message


def test_subcertificate_count_must_match_the_tasks(monkeypatch):
    T = ptask(goals=[("G", conj(P, Q))])
    node = c.KSplit(True, P, Q, G, c.KHole(T), c.KHole(T))
    monkeypatch.setattr(c, "cert_children", lambda n: (c.KHole(T),))
    rep = ccheck(node, T)
    assert not rep.ok
    assert (rep.failure.rule, rep.failure.path) == ("KSplit", ())
    assert "1 subcertificates for 2 tasks" in rep.failure.message


def test_leaves_come_back_in_order():
    T = ptask(goals=[("G", conj(P, conj(Q, R)))])
    t1, t2 = step(T, c.KSplit(True, P, conj(Q, R), G, c.KHole(T), c.KHole(T)),
                  ())
    i1, i2 = step(t2, c.KSplit(True, Q, R, G, c.KHole(t2), c.KHole(t2)), ())
    node = c.KSplit(True, P, conj(Q, R), G, c.KHole(t1),
                    c.KSplit(True, Q, R, G, c.KHole(i1), c.KHole(i2)))
    rep = ccheck(node, T)
    assert rep.ok
    assert [t.goals[0].formula for t in rep.derived_leaves] == [P, Q, R]


def test_step_raises_check_error():
    T = ptask(goals=[("G", P)])
    with pytest.raises(CheckError) as e:
        step(T, c.KTrivial(True, G), (0, 1))
    assert e.value.failure.path == (0, 1)
    assert "KTrivial" in str(e.value)


def test_check_application():
    T = ptask(hyps=[("H", conj(P, Q))], goals=[("G", R)])
    node = c.KDestruct(False, P, Q, H, H1, H2, c.KHole(T))
    (t,) = step(T, node, ())
    good = c.KDestruct(False, P, Q, H, H1, H2, c.KHole(t))
    assert check_application(T, [t], good)
    assert not check_application(T, [T], good)  # wrong resulting task
    assert not check_application(T, [t, t], good)  # wrong arity
    assert not check_application(T, [], good)
    # alpha-renamed resulting task is accepted
    assert check_application(T, [t], good) and task_alpha_equal(t, t)


# -- the instantiation walkthrough ------------------------------------------------


def test_instantiate_walkthrough():
    # y = 2x+1 and (forall i. p (4i+1)) entail p (y*y); adding the instance
    # at x*x+x lets a prover finish without guessing it
    plus, mult, p = var("+"), var("*"), var("p")
    xv, yv = var("x"), var("y")
    iv = ident("i")
    T = Task(
        sig=((ident("y"), INT), (ident("x"), INT),
             (ident("p"), Arrow(INT, PROP))),
        hyps=(
            Premise(H1, eq(yv, app(plus, app(mult, IntLit(2), xv), IntLit(1)))),
            Premise(H, Forall(iv, INT, app(p, app(
                plus, app(mult, IntLit(4), var("i")), IntLit(1))))),
        ),
        goals=(Premise(G, app(p, app(mult, yv, yv))),),
    )
    pred = Lam(iv, INT, app(p, app(plus, app(mult, IntLit(4), var("i")),
                                   IntLit(1))))
    witness = app(plus, app(mult, xv, xv), xv)
    hinst = ident("Hinst")
    node = c.KInstQuant(False, INT, pred, H, hinst, witness, c.KHole(T))
    (t_inst,) = step(T, node, ())
    want = app(p, app(plus, app(mult, IntLit(4), witness), IntLit(1)))
    assert alpha_equal(t_inst.hyps[-1].formula, want)
    assert check_application(
        T, [t_inst],
        c.KInstQuant(False, INT, pred, H, hinst, witness, c.KHole(t_inst)))


# -- substitution keeps a premise's instances ----------------------------------
#
# Terms carry no instances: c : 'a alone fixes none. A premise whose instance
# nothing fixes is ill-typed, so a rule that substitutes c cannot make a
# premise at elem mean one at another type.

ELEM = TApp(ident("elem"), ())
_A = TVar(ident("a"))
_R = Arrow(_A, Arrow(_A, PROP))
RXX = Lam(x, ELEM, app(var("r"), var("x"), var("x")))


def poly_task(hyps, goals):
    return Task(types=((ident("elem"), 0),),
                sig=((ident("c"), _A), (ident("d"), ELEM), (ident("r"), _R)),
                hyps=tuple(Premise(ident(nm), f) for nm, f in hyps),
                goals=tuple(Premise(ident(nm), f) for nm, f in goals))


def test_a_task_with_an_open_instance_is_refused_when_read():
    # r c c fixes no instance of r or c; it was typed at int, and the
    # instance of H at c closed it
    text = """(task (types (elem 0)) (sig (c a) (r (-> a a prop)))
        (hyps (H (forall (x (elem)) (r x x)))) (goals (G (r c c))))"""
    with pytest.raises(
            TypingError,
            match=r"^premise G: instance of r at \[0, 0\] is ambiguous$"):
        parse_task(text)
    T = Task(types=((ident("elem"), 0),),
             sig=((ident("c"), _A), (ident("r"), _R)),
             hyps=(Premise(H, Forall(x, ELEM, app(var("r"), var("x"),
                                                  var("x")))),),
             goals=(Premise(G, app(var("r"), var("c"), var("c"))),))
    assert not well_typed(T)
    f = bad(T, c.KHole(T), "the initial task is not well-typed")
    assert f.path == ()


def test_inst_quant_refuses_a_witness_whose_instance_the_body_loses():
    # c is typed at elem against the carried type, but in r c c nothing
    # fixes it: the instance would mean r at another type
    T = poly_task([("H", Forall(x, ELEM, app(var("r"), var("x"), var("x"))))],
                  [("G", app(var("r"), var("c"), var("d")))])
    assert well_typed(T)
    node = c.KInstQuant(False, ELEM, RXX, H, H1, var("c"), c.KHole(T))
    f = bad(T, node, "produced an ill-typed task: "
                     "premise H1: instance of r at [0, 0] is ambiguous")
    assert (f.rule, f.path) == ("KInstQuant", ())
    # a witness whose type fixes the instance is kept
    (t,) = step(T, c.KInstQuant(False, ELEM, RXX, H, H1, var("d"),
                                c.KHole(T)), ())
    assert alpha_equal(t.hyps[-1].formula, app(var("r"), var("d"), var("d")))


def test_rewrite_refuses_a_rewritten_premise_with_an_open_instance():
    # E fixes c at elem, but rewriting r d d into r c c leaves the
    # instance of the rewritten premise open
    T = poly_task([("E", eq(var("d"), var("c"))),
                   ("H", app(var("r"), var("d"), var("d")))],
                  [("G", Bottom())])
    assert well_typed(T)
    z = ident("z")
    every = Lam(z, ELEM, app(var("r"), var("z"), var("z")))
    f = bad(T, c.KRewrite(False, var("d"), var("c"), every, H, ident("E"),
                          c.KHole(T)),
            "produced an ill-typed task: "
            "premise H: instance of r at [0, 0] is ambiguous")
    assert f.rule == "KRewrite"
    # rewriting one occurrence keeps d, which fixes the instance
    one = Lam(z, ELEM, app(var("r"), var("z"), var("d")))
    (t,) = step(T, c.KRewrite(False, var("d"), var("c"), one, H, ident("E"),
                              c.KHole(T)), ())
    assert alpha_equal(t.hyps[-1].formula, app(var("r"), var("c"), var("d")))


# The argument annotate states for this (see its docstring), checked on
# small polymorphic tasks: a child premise that the kernel accepts means, at
# every symbol occurrence, the instance the redex gives it. This compares
# the instance maps path by path against the naive reference.

_BOXED_ELEM = TApp(ident("box"), (ELEM,))
_TAUS = [ELEM, INT, _BOXED_ELEM]
_POLY_TYPES = ((ident("elem"), 0), (ident("box"), 1))
_POLY_SIG = tuple((ident(n), ty) for n, ty in (
    ("c", _A), ("d", ELEM), ("e", TApp(ident("box"), (_A,))),
    ("f", _BOXED_ELEM), ("k", INT), ("choose", _A), ("r", _R),
    ("p", Arrow(ELEM, PROP)), ("wrap", Arrow(_A, TApp(ident("box"), (_A,))))))


@st.composite
def _operand(draw, bound):
    """A symbol, a literal or a bound name, perhaps wrapped."""
    t = draw(st.sampled_from([var(n) for n in ("c", "d", "e", "f", "k",
                                               "choose")]
                             + [IntLit(1)] + [Var(b) for b in bound] * 2))
    return app(var("wrap"), t) if draw(st.integers(0, 3)) == 0 else t


@st.composite
def _formula(draw, bound, depth=2):
    kinds = ["r", "p", "eq"] + (["not", "and", "forall"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "r":
        return app(var("r"), draw(_operand(bound)), draw(_operand(bound)))
    if kind == "p":
        return app(var("p"), draw(_operand(bound)))
    if kind == "eq":
        return eq(draw(_operand(bound)), draw(_operand(bound)))
    if kind == "not":
        return Not(draw(_formula(bound, depth - 1)))
    if kind == "and":
        return conj(draw(_formula(bound, depth - 1)),
                    draw(_formula(bound, depth - 1)))
    y = ident(f"y{depth}")
    return Forall(y, ELEM, draw(_formula(bound + (y,), depth - 1)))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.sampled_from(_TAUS), st.sampled_from(["KInstQuant", "KRewrite"]),
       st.data())
def test_substitution_keeps_the_redex_instances(tau, rule, data):
    ctx = Lam(x, tau, data.draw(_formula((x,))))
    u = data.draw(_operand(()))
    if rule == "KInstQuant":
        hyps = (Premise(H, Forall(x, tau, ctx.body)),)
        node = c.KInstQuant(False, tau, ctx, H, H1, u, None)
        new = H1
    else:
        left = data.draw(_operand(()))
        hyps = (Premise(ident("E"), eq(left, u)),
                Premise(H, subst_term(ctx.body, x, left)))
        node = c.KRewrite(False, left, u, ctx, H, ident("E"), None)
        new = H
    T = Task(types=_POLY_TYPES, sig=_POLY_SIG, hyps=hyps,
             goals=(Premise(G, Bottom()),))
    assume(well_typed(T))
    try:
        (child,) = step(T, node, ())
    except CheckError:
        return  # a refused step derives nothing
    event("accepted")
    formula = child.find(new)[2].formula
    got = annotate(child.types_map(), child.sig_map(), formula, PROP).inst
    assert got == oracles.redex_instances(dict(child.types_map()),
                                          dict(child.sig_map()), ctx, u)
