"""Certifying transformations: every application is re-checked end to end."""

import gc
import hashlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certforge.cert as c
import certforge.transforms as tr
from certforge import checker, sexpr
from certforge.checker import ccheck
from certforge.core import (
    INT,
    PROP,
    RESERVED,
    Arrow,
    Bottom,
    Forall,
    Exists,
    IntLit,
    Not,
    BinOp,
    PiType,
    TVar,
    Top,
    Var,
    app,
    arrow,
    conj,
    disj,
    eq,
    iff,
    ident,
    imp,
    var,
)
from certforge.task import (
    Premise,
    Task,
    gen_chain_task,
    task_alpha_equal,
    task_list_alpha_equal,
    well_typed,
)
from certforge.transforms import TransformError
from oracles import Refused, brute_force_valid, ref_blast
from test_acceptance import _c2_corpus
from test_cert import _recursion_limit

H, G = ident("H"), ident("G")
P, Q, R = var("p"), var("q"), var("r")

PSIG = ((ident("p"), PROP), (ident("q"), PROP), (ident("r"), PROP))


def ptask(hyps=(), goals=()):
    return Task(sig=PSIG,
                hyps=tuple(Premise(ident(nm), f) for nm, f in hyps),
                goals=tuple(Premise(ident(nm), f) for nm, f in goals))


def reparsed(T):
    """A copy of T read back from its text: no object of T is in it."""
    return sexpr.task_loads(sexpr.to_text(T))


def assert_kept_as_replayed(T, s):
    """The transformation kept on s the kernel certificate that a replay of
    s against a copy of T (which forces the replay) builds."""
    kept = c.kept_kernel(s, T)
    assert kept is not None
    assert c.cert_dumps(kept) == c.cert_dumps(c.elaborate(s, reparsed(T)))
    return kept


def certified(T, result):
    """The certifying contract: leaves(elaborate(s, T)) is the task list,
    and elaborate returns the kernel certificate the transformation kept."""
    tasks, s = result
    k = c.elaborate(s, T)
    assert k is assert_kept_as_replayed(T, s)
    rep = ccheck(k, T)
    assert rep.ok, rep.failure
    assert task_list_alpha_equal(c.leaves(k), tasks)
    return tasks


def names(side):
    return [str(p.name) for p in side]


# -- closing rules ---------------------------------------------------------


def test_trivial_on_false_hypothesis():
    T = ptask(hyps=[("H", Bottom())], goals=[("G", P)])
    tasks = certified(T, tr.t_trivial(T, H))
    assert tasks == []


def test_trivial_on_true_goal():
    T = ptask(goals=[("G", Top())])
    assert certified(T, tr.t_trivial(T, G)) == []


def test_trivial_wrong_shape():
    T = ptask(goals=[("G", P)])
    with pytest.raises(TransformError, match="not truth"):
        tr.t_trivial(T, G)


def test_axiom():
    T = ptask(hyps=[("H", P)], goals=[("G", P)])
    assert certified(T, tr.t_axiom(T, H, G)) == []


def test_missing_premise():
    T = ptask(goals=[("G", P)])
    with pytest.raises(TransformError, match="no premise named H"):
        tr.t_split(T, H)


# -- structural rules ------------------------------------------------------


def test_split_goal_conjunction():
    T = ptask(hyps=[("H", Q)], goals=[("G", conj(P, Q)), ("G2", R)])
    tasks = certified(T, tr.t_split(T, G))
    assert len(tasks) == 2
    # split works in place: both branches keep the surrounding premises
    assert tasks[0].goals[0].formula == P
    assert tasks[1].goals[0].formula == Q
    assert names(tasks[0].goals) == names(tasks[1].goals) == ["G", "G2"]


def test_split_a_polymorphic_operand():
    # choose : 'a is prop at the instance prop; each leaf keeps it as a
    # premise of its own, judged against prop like the conjunction was
    T = Task(sig=((ident("choose"), TVar(ident("a"))),),
             goals=(Premise(G, conj(var("choose"), Top())),))
    assert well_typed(T)
    tasks = certified(T, tr.t_split(T, G))
    assert [t.goals[0].formula for t in tasks] == [var("choose"), Top()]
    for t in tasks:
        assert well_typed(Task(t.types, t.sig, t.hyps, t.goals))


def test_split_hypothesis_disjunction():
    T = ptask(hyps=[("H", disj(P, Q))], goals=[("G", R)])
    tasks = certified(T, tr.t_split(T, H))
    assert [t.hyps[0].formula for t in tasks] == [P, Q]


def test_destruct_hypothesis_conjunction():
    T = ptask(hyps=[("H", conj(P, Q))], goals=[("G", R)])
    tasks = certified(T, tr.t_destruct(T, H, ident("H1"), ident("H2")))
    (t,) = tasks
    assert names(t.hyps) == ["H1", "H2"]
    assert [p.formula for p in t.hyps] == [P, Q]


def test_destruct_goal_disjunction():
    T = ptask(goals=[("G", disj(P, Q))])
    (t,) = certified(T, tr.t_destruct(T, G, ident("G1"), ident("G2")))
    assert names(t.goals) == ["G1", "G2"]


def test_construct_hypotheses():
    T = ptask(hyps=[("H1", P), ("H2", Q)], goals=[("G", R)])
    (t,) = certified(T, tr.t_construct(T, ident("H1"), ident("H2"), H))
    assert t.find(H)[2].formula == conj(P, Q)
    assert t.find(ident("H1")) is None and t.find(ident("H2")) is None


def test_construct_goals():
    T = ptask(goals=[("G1", P), ("G2", Q)])
    (t,) = certified(T, tr.t_construct(T, ident("G1"), ident("G2"), G))
    assert t.find(G)[2].formula == disj(P, Q)


def test_construct_across_sides_fails():
    T = ptask(hyps=[("H", P)], goals=[("G", Q)])
    with pytest.raises(TransformError, match="different sides"):
        tr.t_construct(T, H, G, ident("C"))


def test_assert_produces_both_branches():
    T = ptask(goals=[("G", P)])
    tasks = certified(T, tr.t_assert(T, ident("A"), Q))
    assert [names(t.goals) for t in tasks] == [["G", "A"], ["G"]]
    assert names(tasks[1].hyps) == ["A"]


def test_assert_rejects_nonprop_formula():
    T = ptask(goals=[("G", P)])
    with pytest.raises(TransformError, match="not prop"):
        tr.t_assert(T, ident("A"), IntLit(3))


@given(st.integers(0, 2 ** 32))
@settings(max_examples=200, deadline=None)
def test_destruct_construct_round_trip(seed):
    rng = random.Random(seed)
    f = conj(_formula(rng, 2), _formula(rng, 2))
    T = ptask(hyps=[("H", f), ("K", R)], goals=[("G", Q)])
    (mid,) = certified(T, tr.t_destruct(T, H, ident("H1"), ident("H2")))
    (back,) = certified(mid, tr.t_construct(mid, ident("H1"), ident("H2"), H))
    # same task up to premise order; the name H is restored
    assert task_alpha_equal(back, T)


# -- propositional bookkeeping ----------------------------------------------


def test_clear_and_swap_neg_and_intro_imp():
    T = ptask(hyps=[("H", Top())], goals=[("G", imp(P, Q))])
    (t,) = certified(T, tr.t_clear(T, H))
    assert t.hyps == ()
    (t2,) = certified(t, tr.t_intro_imp(t, G))
    assert names(t2.hyps) == ["G.1"] and t2.goals[0].formula == Q
    T3 = ptask(goals=[("G", Not(P))])
    (t3,) = certified(T3, tr.t_swap_neg(T3, G))
    assert t3.goals == () and t3.hyps[-1].formula == P


def test_split_imp_branches():
    T = ptask(hyps=[("H", imp(P, Q))], goals=[("G", R)])
    side, rest = certified(T, tr.t_split_imp(T, H))
    assert side.hyps == () and names(side.goals) == ["G", "H.1"]
    assert side.goals[-1].formula == P
    assert rest.find(H)[2].formula == Q


def test_unfold_iff():
    T = ptask(goals=[("G", iff(P, Q))])
    (t,) = certified(T, tr.t_unfold_iff(T, G))
    assert t.goals[0].formula == conj(imp(P, Q), imp(Q, P))


def test_generated_names_dodge_existing_premises():
    T = ptask(hyps=[("H", imp(P, Q)), ("H.1", R)], goals=[("G", R)])
    side, rest = certified(T, tr.t_split_imp(T, H))
    assert str(side.goals[-1].name) == "H.1#1"


# -- quantifiers -------------------------------------------------------------


def _int_task():
    sig = ((ident("y"), INT), (ident("x"), INT), (ident("p"), arrow(INT, PROP)))
    two_x_1 = app(var("+"), app(var("*"), IntLit(2), Var(ident("x"))), IntLit(1))
    hyp1 = eq(Var(ident("y")), two_x_1)
    hyp = Forall(ident("i"), INT,
                 app(var("p"), app(var("+"),
                                   app(var("*"), IntLit(4), Var(ident("i"))),
                                   IntLit(1))))
    goal = app(var("p"), app(var("*"), Var(ident("y")), Var(ident("y"))))
    return Task(sig=sig,
                hyps=(Premise(ident("H1"), hyp1), Premise(H, hyp)),
                goals=(Premise(G, goal),))


def test_instantiate_walkthrough():
    T = _int_task()
    u = app(var("+"), app(var("*"), Var(ident("x")), Var(ident("x"))),
            Var(ident("x")))
    (t,) = certified(T, tr.t_instantiate(T, H, u))
    added = t.hyps[-1]
    assert str(added.name) == "H_inst"
    want = app(var("p"), app(var("+"), app(var("*"), IntLit(4), u), IntLit(1)))
    assert added.formula == want
    # the quantified original stays available
    assert t.find(H)[2].formula == T.find(H)[2].formula


def test_instantiate_truth():
    T = ptask(hyps=[("H", Forall(ident("x0"), INT, Top()))], goals=[("G", P)])
    (t,) = certified(T, tr.t_instantiate(T, H, IntLit(0)))
    assert t.hyps[-1].formula == Top()


def test_instantiate_ill_typed_witness():
    T = _int_task()
    with pytest.raises(TransformError, match="type"):
        tr.t_instantiate(T, H, P)


def test_instantiate_existential_goal():
    T = ptask(goals=[("G", Exists(ident("x0"), PROP, disj(Var(ident("x0")), P)))])
    (t,) = certified(T, tr.t_instantiate(T, G, Q))
    assert t.goals[-1].formula == disj(Q, P)


def test_intro_forall_goal():
    T = Task(sig=((ident("p"), arrow(INT, PROP)),),
             goals=(Premise(G, Forall(ident("x"), INT,
                                      app(var("p"), Var(ident("x"))))),))
    (t,) = certified(T, tr.t_intro(T, G))
    fresh = t.sig[-1]
    assert fresh[1] == INT
    assert t.goals[0].formula == app(var("p"), Var(fresh[0]))


def test_intro_exists_hypothesis():
    T = ptask(hyps=[("H", Exists(ident("x0"), PROP, Var(ident("x0"))))],
              goals=[("G", P)])
    (t,) = certified(T, tr.t_intro(T, H))
    assert t.hyps[0].formula == Var(t.sig[-1][0])


def test_intro_type_quantifier():
    al = ident("al")
    f = PiType(al, Forall(ident("x0"), TVar(al), eq(Var(ident("x0")),
                                                    Var(ident("x0")))))
    T = Task(goals=(Premise(G, f),))
    (t,) = certified(T, tr.t_intro(T, G))
    iota = t.types[-1][0]
    assert t.types[-1][1] == 0
    body = t.goals[0].formula
    assert isinstance(body, Forall) and body.ty.head == iota


def test_intro_shape_mismatch():
    T = ptask(goals=[("G", conj(P, Q))])
    with pytest.raises(TransformError, match="does not start with a binder"):
        tr.t_intro(T, G)
    T2 = ptask(hyps=[("H", Forall(ident("x0"), PROP, Top()))], goals=[("G", P)])
    with pytest.raises(TransformError, match="does not start with a binder"):
        tr.t_intro(T2, H)


def test_intro_freshness_audit():
    rng = random.Random(501)
    for _ in range(500):
        extras = rng.sample(["x", "y", "z", "w"], rng.randint(0, 3))
        sig = ((ident("p"), arrow(INT, PROP)),) + tuple(
            (ident(nm), INT) for nm in extras)
        # binders may not shadow the signature
        binder = ident(next(nm for nm in ("x", "y", "z", "v")
                            if nm not in extras))
        T = Task(sig=sig,
                 goals=(Premise(G, Forall(binder, INT,
                                          app(var("p"), Var(binder)))),))
        before = T.every_ident()
        (t,) = certified(T, tr.t_intro(T, G))
        introduced = t.sig[-1][0]
        assert introduced not in before


_INT_VAR = Var(ident("int"))


@pytest.mark.parametrize("goal", [
    Forall(ident("int"), INT, eq(_INT_VAR, _INT_VAR)),
    PiType(ident("int"), Forall(ident("x0"), TVar(ident("int")),
                                eq(Var(ident("x0")), Var(ident("x0"))))),
])
def test_intro_skips_reserved_names(goal):
    # a binder may be named int, but no declaration may; nor may int#1,
    # which has the same name
    T = Task(goals=(Premise(G, goal),))
    (t,) = certified(T, tr.t_intro(T, G))
    ((introduced, _),) = t.sig + t.types
    assert introduced.name not in RESERVED


# -- rewriting ---------------------------------------------------------------


def _rewrite_task():
    sig = ((ident("q"), arrow(INT, PROP)), (ident("f"), arrow(INT, INT)),
           (ident("g"), arrow(INT, INT)), (ident("p"), arrow(INT, PROP)))
    heq = Forall(ident("i"), INT,
                 imp(app(var("q"), Var(ident("i"))),
                     eq(app(var("f"), Var(ident("i"))),
                        app(var("g"), Var(ident("i"))))))
    return Task(sig=sig,
                hyps=(Premise(ident("Heq"), heq),),
                goals=(Premise(G, app(var("p"), app(var("f"), IntLit(3)))),))


def test_rewrite_plain_equation():
    a, b = Var(ident("a")), Var(ident("b"))
    T = Task(sig=((ident("a"), INT), (ident("b"), INT),
                  (ident("p"), arrow(INT, PROP))),
             hyps=(Premise(ident("E"), eq(a, b)), Premise(H, app(var("p"), a))),
             goals=(Premise(G, app(var("p"), b)),))
    (t,) = certified(T, tr.t_rewrite(T, ident("E"), H))
    assert t.find(H)[2].formula == app(var("p"), b)
    assert t.find(ident("E"))[2].formula == eq(a, b)
    assert names(t.hyps) == ["E", "H"]


def test_rewrite_conditional_spec_example():
    T = _rewrite_task()
    tasks = certified(T, tr.t_rewrite(T, ident("Heq"), G, inst=[IntLit(3)]))
    side, final = tasks
    # the condition comes first, as its own goal
    assert side.goals[-1].formula == app(var("q"), IntLit(3))
    assert final.find(G)[2].formula == app(var("p"), app(var("g"), IntLit(3)))
    # temporaries are cleared; only the original premises remain
    assert names(final.hyps) == ["Heq"]
    assert names(final.goals) == ["G"]


def test_rewrite_infers_instantiation():
    T = _rewrite_task()
    explicit = certified(T, tr.t_rewrite(T, ident("Heq"), G, inst=[IntLit(3)]))
    inferred = certified(T, tr.t_rewrite(T, ident("Heq"), G))
    assert task_list_alpha_equal(explicit, inferred)


def test_rewrite_leaves_no_cyclic_garbage():
    # the instantiation search and the context abstraction walk in module
    # functions: no closure refers to itself, so a rewrite frees what it
    # built without the cycle collector (about 14 objects per call while
    # both were nested functions)
    T = _rewrite_task()
    gc.collect()
    gc.disable()
    try:
        certified(T, tr.t_rewrite(T, ident("Heq"), G))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rewrite_right_to_left():
    T = _rewrite_task()
    T = T.replace(True, 0, (Premise(G, app(var("p"), app(var("g"), IntLit(3)))),))
    side, final = certified(T, tr.t_rewrite(T, ident("Heq"), G,
                                            right_to_left=True))
    assert final.find(G)[2].formula == app(var("p"), app(var("f"), IntLit(3)))


def test_rewrite_condition_only_keeps_original():
    a, b = Var(ident("a")), Var(ident("b"))
    T = Task(sig=((ident("a"), INT), (ident("b"), INT),
                  (ident("p"), arrow(INT, PROP)), (ident("c"), PROP)),
             hyps=(Premise(ident("E"), imp(var("c"), eq(a, b))),),
             goals=(Premise(G, app(var("p"), a)),))
    side, final = certified(T, tr.t_rewrite(T, ident("E"), G))
    assert side.goals[-1].formula == var("c")
    assert final.find(ident("E"))[2].formula == imp(var("c"), eq(a, b))
    assert final.find(G)[2].formula == app(var("p"), b)
    assert names(final.hyps) == ["E"]


def test_rewrite_no_occurrence():
    T = _rewrite_task()
    with pytest.raises(TransformError, match="matches the equation"):
        tr.t_rewrite(T, ident("Heq"), G, right_to_left=True)
    with pytest.raises(TransformError, match="no occurrence"):
        tr.t_rewrite(T, ident("Heq"), G, right_to_left=True, inst=[IntLit(3)])


def test_rewrite_arity_and_shape_errors():
    T = _rewrite_task()
    with pytest.raises(TransformError, match="takes 1 instantiation"):
        tr.t_rewrite(T, ident("Heq"), G, inst=[IntLit(3), IntLit(4)])
    with pytest.raises(TransformError, match="does not end in an equality"):
        tr.t_rewrite(T, G, G)


# -- induction ---------------------------------------------------------------


def _ind_task(extra_hyp=None):
    sig = ((ident("i"), INT), (ident("p"), arrow(INT, PROP)),
           (ident("q"), arrow(INT, PROP)))
    hyps = (extra_hyp,) if extra_hyp else ()
    return Task(sig=sig, hyps=hyps,
                goals=(Premise(G, app(var("p"), Var(ident("i")))),))


def test_induction_branch_shapes():
    i = Var(ident("i"))
    T = _ind_task()
    base, rec = certified(T, tr.t_induction(T, G, ident("i"), IntLit(0)))
    assert base.hyps[-1].formula == app(var("<="), i, IntLit(0))
    assert str(base.hyps[-1].name) == "Hi"
    assert names(rec.hyps) == ["Hi", "H_rec"]
    assert rec.hyps[0].formula == app(var(">"), i, IntLit(0))
    hrec = rec.hyps[1].formula
    assert isinstance(hrec, Forall) and hrec.ty == INT
    m = Var(hrec.var)
    assert hrec.body == imp(app(var("<"), m, i), app(var("p"), m))


def test_induction_folds_dependent_context():
    T = _ind_task(Premise(ident("Hq"), app(var("q"), Var(ident("i")))))
    base, rec = certified(T, tr.t_induction(T, G, ident("i"), IntLit(0)))
    # the dependent hypothesis is reverted into the goal and reintroduced,
    # so the recursion hypothesis carries it
    assert names(base.hyps) == ["Hi", "Hq"]
    assert base.hyps[1].formula == T.hyps[0].formula
    assert base.goals[0].formula == T.goals[0].formula
    hrec = rec.find(ident("H_rec"))[2].formula
    inner = hrec.body.right
    assert isinstance(inner, BinOp) and inner.op == "imp"
    assert inner.left == app(var("q"), Var(hrec.var))


def test_induction_argument_errors():
    T = _ind_task()
    with pytest.raises(TransformError, match="unify"):
        tr.t_induction(T, G, ident("i"), Top())
    with pytest.raises(TransformError, match="not a goal"):
        T2 = _ind_task(Premise(ident("Hq"), app(var("q"), Var(ident("i")))))
        tr.t_induction(T2, ident("Hq"), ident("i"), IntLit(0))
    T3 = T.append(True, Premise(ident("G2"), Top()))
    with pytest.raises(TransformError, match="exactly the goal"):
        tr.t_induction(T3, G, ident("i"), IntLit(0))


# -- composition -------------------------------------------------------------


def test_compose_split_then_trivial():
    T = ptask(hyps=[("H", disj(Bottom(), Bottom()))], goals=[("G", P)])
    t1 = tr.transform(tr.t_split, H)
    comp = tr.compose_transforms(t1, lambda i, t: tr.transform(tr.t_trivial, H))
    tasks = certified(T, comp.apply(T))
    assert tasks == []


def test_compose_identity_is_neutral():
    T = ptask(goals=[("G", conj(P, Q))])
    t = tr.transform(tr.t_split, G)
    composed = tr.compose_transforms(tr.identity, lambda i, task: t)
    assert composed.apply(T) == t.apply(T)


def test_compose_keeps_unselected_branches():
    T = ptask(goals=[("G", conj(Top(), P))])
    comp = tr.compose_transforms(
        tr.transform(tr.t_split, G),
        lambda i, t: tr.transform(tr.t_trivial, G) if i == 0 else None)
    tasks = certified(T, comp.apply(T))
    assert len(tasks) == 1 and tasks[0].goals[0].formula == P


def test_compose_failure_is_atomic():
    T = ptask(goals=[("G", conj(Top(), P))])
    comp = tr.compose_transforms(
        tr.transform(tr.t_split, G),
        lambda i, t: tr.transform(tr.t_trivial, G))
    with pytest.raises(TransformError):
        comp.apply(T)


# -- blast -------------------------------------------------------------------


def test_blast_closes_chains():
    for n in range(1, 31):
        T = gen_chain_task(n)
        tasks = certified(T, tr.t_blast(T))
        assert tasks == []


def test_blast_rejects_non_tautology():
    T = ptask(goals=[("G", P)])
    with pytest.raises(TransformError, match="cannot close"):
        tr.t_blast(T)


def test_blast_rejects_quantifiers():
    T = Task(sig=((ident("p"), arrow(INT, PROP)),),
             goals=(Premise(G, Forall(ident("x"), INT,
                                      app(var("p"), Var(ident("x"))))),))
    with pytest.raises(TransformError, match="not propositional"):
        tr.t_blast(T)


def test_blast_through_compose():
    # blast is itself a composition of the elementary transformations
    T = gen_chain_task(3)
    blast = tr.CertifyingTransform("blast", tr.t_blast)
    composed = tr.compose_transforms(tr.identity, lambda i, t: blast)
    assert composed.apply(T) == tr.t_blast(T)


def _formula(rng, depth, atoms=("p", "q", "r")):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([var(a) for a in atoms] + [Top(), Bottom()])
    kind = rng.choice(["and", "or", "imp", "iff", "not"])
    if kind == "not":
        return Not(_formula(rng, depth - 1, atoms))
    return BinOp(kind, _formula(rng, depth - 1, atoms),
                 _formula(rng, depth - 1, atoms))


@given(st.integers(0, 2 ** 32))
@settings(max_examples=300, deadline=None)
def test_blast_agrees_with_oracle(seed):
    rng = random.Random(seed)
    T = ptask(hyps=[(f"H{j}", _formula(rng, rng.randint(0, 3)))
                    for j in range(rng.randint(0, 2))],
              goals=[(f"G{j}", _formula(rng, rng.randint(0, 3)))
                     for j in range(rng.randint(1, 2))])
    want = brute_force_valid([p.formula for p in T.hyps],
                             [p.formula for p in T.goals])
    try:
        tasks = certified(T, tr.t_blast(T))
        got = tasks == []
    except TransformError:
        got = False
    assert got == want


# Premise names for blast's random tasks: ones that collide with the bases
# blast draws fresh names from (G.1, G.1#1, G.2, H.1, H.1#1), names of the
# interpreted symbols (int, =), and plain ones.
_BLAST_NAMES = ("G", "G.1", "G.1#1", "G.2", "H", "H.1", "H.1#1", "int", "=",
                "K")


def _blast_task(rng, wide=False):
    """A random propositional task over p, q, r: one to four premises with
    names from _BLAST_NAMES, every connective, true and false on both
    sides. A wide one has eight to eleven more premises on each side,
    atoms and negated atoms, among the others: hypotheses over p and q,
    goals over r, so that what the search adds closes against them."""
    picked = rng.sample(_BLAST_NAMES, rng.randint(1, 4))
    cut = rng.randint(1, min(2, len(picked)))
    sides = [[(nm, _formula(rng, rng.randint(0, 3))) for nm in names]
             for names in (picked[cut:], picked[:cut])]
    if wide:
        for side, atoms, tag in ((sides[0], (P, Q), "A"),
                                 (sides[1], (R,), "B")):
            for i in range(rng.randint(8, 11)):
                f = rng.choice(atoms)
                side.insert(rng.randint(0, len(side)),
                            (f"{tag}{i}", f if rng.random() < 0.7 else Not(f)))
    return ptask(hyps=sides[0], goals=sides[1])


def _blast_tasks():
    """Blast's pinned tasks: random ones, narrow and wide, and ones whose
    search reuses a fresh-name base after a premise of that base was
    removed."""
    rng = random.Random(20261020)
    out = [_blast_task(rng, wide=i % 4 == 3) for i in range(240)]
    # G.1 is taken, so the intro names G.1#1; destructing G.1 drops the
    # name, and the intro after the swap takes G.1 again
    out.append(ptask(hyps=[("G.1", conj(P, Q))],
                     goals=[("G", imp(conj(Q, P), Not(Not(imp(P, Q)))))]))
    # the intro names G.1#2; SClear drops G.1#1, which the intro after the
    # swap takes
    out.append(ptask(hyps=[("G.1", P), ("G.1#1", Top())],
                     goals=[("G", imp(Q, Not(Not(imp(Q, Q)))))]))
    # each branch of the split names its intro G.1#3
    out.append(ptask(hyps=[("G.1", P), ("G.1#1", Top())],
                     goals=[("G", imp(Q, conj(imp(P, P), imp(Q, Q))))]))
    return out


def test_blast_certificates_on_random_tasks_are_pinned():
    # blast's surface and kernel certificates, or its refusal, on tasks
    # that take every step kind; the digest was taken before blast carried
    # its search state from step to step, and must not move
    h = hashlib.sha256()
    for T in _blast_tasks():
        try:
            s = tr.t_blast(T)[1]
        except TransformError as e:
            h.update(f"refused: {e}\n".encode("utf-8"))
            continue
        for cert in (s, c.elaborate(s, T)):
            h.update(c.cert_dumps(cert).encode("utf-8") + b"\n")
    assert h.hexdigest() == \
        "44d7ee4de65a3ac319a884a67273409146866c2b86746daaa170479a584ad163"


def _surface_text(blast, refusal, T):
    """cert_dumps of the surface certificate blast builds for T, or None if
    it raises refusal."""
    try:
        return c.cert_dumps(blast(T))
    except refusal:
        return None


def assert_blast_as_reference(T):
    assert _surface_text(lambda T: tr.t_blast(T)[1], TransformError, T) \
        == _surface_text(ref_blast, Refused, T)


@given(st.integers(0, 2 ** 32), st.booleans())
@settings(max_examples=300, deadline=None)
def test_blast_searches_as_the_reference_does(seed, wide):
    assert_blast_as_reference(_blast_task(random.Random(seed), wide))


def test_blast_searches_the_pinned_tasks_as_the_reference_does():
    for T in [*_blast_tasks(), *map(gen_chain_task, (1, 2, 9, 10, 30))]:
        assert_blast_as_reference(T)


def _blast_work(monkeypatch, n):
    """The alpha_equal calls, fresh-name suffix probes and premise-kind
    inspections of one t_blast on the chain of n."""
    work = dict.fromkeys(("alpha_equal", "probes", "kinds"), 0)
    alpha_equal, free_name, prop_kind = (tr.alpha_equal, tr._free_name,
                                         tr._prop_kind)

    def counted_alpha_equal(a, b):
        work["alpha_equal"] += 1
        return alpha_equal(a, b)

    def counted_free_name(names, base, k):
        name = free_name(names, base, k)
        work["probes"] += name.uid - k + 1
        return name

    def counted_prop_kind(p):
        work["kinds"] += 1
        return prop_kind(p)

    monkeypatch.setattr(tr, "alpha_equal", counted_alpha_equal)
    monkeypatch.setattr(tr, "_free_name", counted_free_name)
    monkeypatch.setattr(tr, "_prop_kind", counted_prop_kind)
    assert tr.t_blast(gen_chain_task(n))[0] == []
    monkeypatch.undo()
    return work


def test_blast_work_per_step_does_not_grow_with_the_chain(monkeypatch):
    # a step pays for what it added, so doubling the chain about doubles
    # the work; a scan of the whole task per step would quadruple it
    w100, w200 = _blast_work(monkeypatch, 100), _blast_work(monkeypatch, 200)
    for what in w100:
        assert 0 < w200[what] <= 2.2 * w100[what], (what, w100, w200)


def test_every_transformation_keeps_the_kernel_a_replay_builds():
    corpus = _c2_corpus()
    for name, T, (tasks, s) in corpus:
        k = assert_kept_as_replayed(T, s)
        assert task_list_alpha_equal(c.leaves(k), tasks), name
    assert len({n.split("(")[0] for n, _, _ in corpus}) == 18


def test_compose_splices_the_kernels_it_was_given():
    T = ptask(hyps=[("H", disj(P, conj(Q, R)))], goals=[("G", P)])
    blast = tr.CertifyingTransform("blast", tr.t_blast)
    comp = tr.compose_transforms(
        tr.transform(tr.t_split, H),
        lambda i, t: blast if i == 0 else tr.transform(tr.t_destruct, H,
                                                       ident("A"), ident("B")))
    tasks, s = comp.apply(T)
    assert len(tasks) == 1
    assert_kept_as_replayed(T, s)


def test_compose_keeps_no_kernel_it_cannot_splice():
    # a component that keeps no kernel, or returns tasks that are not the
    # ones its kernel's holes hold, leaves the composite without one, and
    # elaborate replays it
    T = ptask(goals=[("G", conj(P, Q))])
    bare = tr.CertifyingTransform(
        "bare", lambda T: ([reparsed(T)], c.SHole()))
    for t1, t2 in ((bare, tr.transform(tr.t_split, G)),
                   (tr.transform(tr.t_split, G), bare)):
        comp = tr.compose_transforms(t1, lambda i, t, t2=t2: t2)
        tasks, s = comp.apply(T)
        assert c.kept_kernel(s, T) is None
        k = c.elaborate(s, T)
        assert ccheck(k, T).ok
        assert task_list_alpha_equal(c.leaves(k), tasks)


def test_elaborate_returns_the_kept_kernel_without_a_replay(
        monkeypatch, annotate_calls):
    T = gen_chain_task(10)
    _, s = tr.t_blast(T)
    steps = []
    step = checker.step

    def counting(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(checker, "step", counting)
    annotate_calls.clear()
    k = c.elaborate(s, T)
    assert steps == [] and dict(annotate_calls) == {}
    # another task, even an alpha-equal one, is replayed
    assert c.cert_dumps(c.elaborate(s, reparsed(T))) == c.cert_dumps(k)
    assert steps


def test_elaborate_replays_the_kept_certificate_on_another_task():
    T = gen_chain_task(4)
    _, s = tr.t_blast(T)
    with pytest.raises(c.CertError, match="no premise named G"):
        c.elaborate(s, Task(sig=T.sig))


def test_the_kept_kernel_dies_with_its_certificate():
    T = gen_chain_task(6)
    _, s = tr.t_blast(T)
    k = c.elaborate(s, T)
    held = sys.getrefcount(k), sys.getrefcount(T)
    del s
    assert (sys.getrefcount(k), sys.getrefcount(T)) == (held[0] - 1,
                                                         held[1] - 1)


def test_blast_searches_without_recursion():
    # the search of a chain of 300 is about 600 steps deep; it keeps its
    # own stack and leaves the interpreter's limit alone
    T = gen_chain_task(300)
    with _recursion_limit(1000):
        tasks, s = tr.t_blast(T)
        assert tasks == []
        assert sys.getrecursionlimit() == 1000
        assert ccheck(c.elaborate(s, T), T).ok


def test_elaboration_replays_deeper_than_the_recursion_limit():
    # blast's certificate for a chain of 520 is 1 040 nodes deep; a task
    # read back from its text is another object, so the kept kernel does
    # not apply and elaborate replays every node
    T = gen_chain_task(520)
    _, s = tr.t_blast(T)
    again = reparsed(T)
    with _recursion_limit(1000):
        try:
            k = c.elaborate(s, again)
        except RecursionError as e:
            k = type(e).__name__
    assert k != "RecursionError"
    assert ccheck(k, again).ok
    assert c.cert_dumps(k) == c.cert_dumps(c.kept_kernel(s, T))


def test_only_the_cli_and_the_exporter_set_the_recursion_limit():
    # library code leaves interpreter-global state alone; the two left
    # are still to go
    src = Path(__file__).resolve().parent.parent / "src" / "certforge"
    setting = sorted(f.name for f in src.glob("*.py")
                     if "setrecursionlimit" in f.read_text(encoding="utf-8"))
    assert set(setting) <= {"cli.py", "lp_export.py"}, setting


# -- the polymorphism regression ---------------------------------------------


def _quantified_disjunction_task():
    al = ident("al")
    inner = Forall(ident("x0"), TVar(al),
                   Forall(ident("y0"), TVar(al),
                          eq(Var(ident("x0")), Var(ident("y0")))))
    f = PiType(al, disj(inner, Not(inner)))
    return ptask(hyps=[("H", f)], goals=[("G", P)])


def test_split_rejects_type_quantified_premise():
    T = _quantified_disjunction_task()
    with pytest.raises(TransformError, match="type-quantified"):
        tr.t_split(T, H)
    with pytest.raises(TransformError, match="type-quantified"):
        tr.t_destruct(T, H, ident("H1"), ident("H2"))


def test_split_applies_after_type_instantiation():
    T = _quantified_disjunction_task()
    # the supported route: instantiate the type quantifier first
    (t,) = certified(T, tr.t_inst_type(T, H, INT))
    assert str(t.hyps[-1].name) == "H_inst"
    tasks = certified(t, tr.t_split(t, t.hyps[-1].name))
    assert len(tasks) == 2
