"""λΠ export: encodings, proof terms, the preamble, and emitted modules."""

import dataclasses
import gc
import hashlib
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_parser as lpp
from certforge import cert, checker, cli, sexpr, transforms as tr
from certforge import lp_export as lp
from certforge.core import (
    INT,
    PROP,
    Arrow,
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
    annotate,
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
from lp_oracle import (app_correctness_type, lp_format, per_formula,
                       tree_format)
from test_acceptance import _FOL_TASK, _fol_script
from test_cert import _recursion_limit

sys.setrecursionlimit(40000)


def checked(T, k):
    report = checker.ccheck(k, T)
    assert report.ok, report.failure
    return report.derived_leaves


def via_transform(T, result):
    tasks, s = result
    k = cert.elaborate(s, T)
    return k, checked(T, k)


def prop_sig(*names):
    return tuple((ident(n), PROP) for n in names)


# ---------------------------------------------------------------------------
# the encoding table

def test_encode_bottom():
    assert lp_format(lp.encode_term(Bottom())) == "Π C : TYPE, C"


def test_encode_top():
    assert lp_format(lp.encode_term(Top())) == \
        "(Π C : TYPE, C) → Π C : TYPE, C"


def test_encode_conj():
    t = lp.encode_term(conj(var("x1"), var("x2")), {}, dict(prop_sig("x1", "x2")))
    assert lp_format(t) == "Π C : TYPE, (x1 → x2 → C) → C"


def test_encode_disj():
    t = lp.encode_term(disj(var("x1"), var("x2")), {}, dict(prop_sig("x1", "x2")))
    assert lp_format(t) == "Π C : TYPE, (x1 → C) → (x2 → C) → C"


def test_encode_neg():
    t = lp.encode_term(Not(var("x1")), {}, dict(prop_sig("x1")))
    assert lp_format(t) == "x1 → Π C : TYPE, C"


def test_encode_imp_is_arrow():
    t = lp.encode_term(imp(var("x1"), var("x2")), {}, dict(prop_sig("x1", "x2")))
    assert t == lp.LArrow(lp.LVar("x1"), lp.LVar("x2"))


def test_encode_iff_is_conj_of_arrows():
    s = dict(prop_sig("x1", "x2"))
    got = lp.encode_term(iff(var("x1"), var("x2")), {}, s)
    both = lp.encode_term(
        conj(imp(var("x1"), var("x2")), imp(var("x2"), var("x1"))), {}, s)
    assert got == both


def test_encode_quantifiers():
    s = {ident("p"): Arrow(INT, PROP)}
    fa = lp.encode_term(Forall(ident("y"), INT, app(var("p"), Var(ident("y")))), {}, s)
    assert lp_format(fa) == "Π y : int, p y"
    ex = lp.encode_term(Exists(ident("y"), INT, app(var("p"), Var(ident("y")))), {}, s)
    assert lp_format(ex) == "Π C : TYPE, (Π y : int, p y → C) → C"


def test_encode_binder_dodges_captured_c():
    # a propositional atom named C must not be captured by the encoding
    # binders, at the top or nested under and/or/exists
    s = {ident("C"): PROP, ident("x"): PROP}
    C = Var(ident("C"))
    for formula, atoms in [
            (conj(C, var("x")), {"u_C", "x"}),
            (Exists(ident("y"), INT, disj(conj(var("x"), C), C)),
             {"u_C", "x", "int"})]:
        got = lp.encode_term(formula, {}, s)
        assert lpp.lp_atoms(got) == atoms
        assert isinstance(got, lp.LProd) and got.var not in atoms


def test_encode_eq_carries_the_instance_type():
    s = {ident("a"): INT, ident("b"): INT}
    got = lp.encode_term(eq(Var(ident("a")), Var(ident("b"))), {}, s)
    assert lp_format(got) == "eq int a b"


def test_encode_polymorphic_symbol_applications():
    color = TApp(ident("color"), ())
    a = ident("a")
    I = {ident("color"): 0, ident("set"): 1}
    s = {
        ident("green"): color,
        ident("empty"): TApp(ident("set"), (TVar(a),)),
        ident("mem"): Arrow(TVar(a), Arrow(TApp(ident("set"), (TVar(a),)), PROP)),
    }
    got = lp.encode_term(app(var("mem"), var("green"), var("empty")), I, s)
    assert lp_format(got) == "mem color green (empty color)"


def test_encode_int_literals():
    s = {ident("p"): Arrow(INT, PROP)}
    for n, spelled in [(0, "Z0"), (1, "Zpos xH"), (2, "Zpos (xO xH)"),
                       (9, "Zpos (xI (xO (xO xH)))"), (-5, "Zneg (xI (xO xH))")]:
        got = lp.encode_term(app(var("p"), IntLit(n)), {}, s)
        want = f"p ({spelled})" if " " in spelled else f"p {spelled}"
        assert lp_format(got) == want


def test_encode_interpreted_arithmetic():
    s = {ident("a"): INT}
    got = lp.encode_term(
        eq(app(var("+"), Var(ident("a")), IntLit(1)),
           app(var("*"), Var(ident("a")), IntLit(2))), {}, s)
    assert lp_format(got) == \
        "eq int (add a (Zpos xH)) (mul a (Zpos (xO xH)))"


def test_encode_prenex_prefix():
    al = ident("alpha")
    t = PiType(al, Forall(ident("u"), TVar(al),
                          eq(Var(ident("u")), Var(ident("u")))))
    got = lp.encode_term(t)
    want = lpp.parse_lp_term("Π a : TYPE, Π u : a, eq a u u")
    assert lpp.lp_alpha_equal(got, want)


def test_encode_prenex_prefix_uses_the_typecheckers_fresh_name():
    # alpha is already a declared type symbol, so annotate() renames the
    # prenex variable; the Π binder and the eq instance must both carry the
    # name it picked, not the source name
    al = ident("alpha")
    t = PiType(al, Forall(ident("u"), TVar(al),
                          eq(Var(ident("u")), Var(ident("u")))))
    I = {al: 0}
    (iota,) = annotate(I, {}, t).iotas
    assert iota != al
    got = lp.encode_term(t, I, {})
    name = lp.mangle(iota)
    assert lp_format(got) == f"Π {name} : TYPE, Π u : {name}, eq {name} u u"


# ---------------------------------------------------------------------------
# task encodings

def test_encode_task_empty_is_bottom():
    assert lp.encode_task(Task()) == lp.LP_BOT


def test_encode_task_atom_goal():
    T = Task(sig=prop_sig("x"), goals=(Premise(ident("G"), var("x")),))
    assert lp_format(lp.encode_task(T)) == \
        "Π x : TYPE, (x → Π C : TYPE, C) → Π C : TYPE, C"


def test_encode_task_color_set():
    a = ident("a")
    color = TApp(ident("color"), ())
    set_a = TApp(ident("set"), (TVar(a),))
    al = ident("alpha")
    set_al = TApp(ident("set"), (TVar(al),))
    mem = lambda x, s: app(var("mem"), x, s)
    add2 = lambda x, s: app(var("add"), x, s)
    T = Task(
        types=((ident("color"), 0), (ident("set"), 1)),
        sig=((ident("red"), color), (ident("green"), color),
             (ident("blue"), color),
             (ident("empty"), set_a),
             (ident("add"), Arrow(TVar(a), Arrow(set_a, set_a))),
             (ident("mem"), Arrow(TVar(a), Arrow(set_a, PROP)))),
        hyps=(
            Premise(ident("H1"), PiType(al, Forall(
                ident("x"), TVar(al), Forall(ident("y"), TVar(al), Forall(
                    ident("s"), set_al,
                    imp(mem(var("x"), var("s")),
                        mem(var("x"), add2(var("y"), var("s"))))))))),
            Premise(ident("H2"), PiType(al, Forall(
                ident("x"), TVar(al), Forall(
                    ident("s"), set_al,
                    mem(var("x"), add2(var("x"), var("s"))))))),
        ),
        goals=(Premise(ident("G"), mem(
            var("green"), add2(var("red"), add2(var("green"), var("empty"))))),),
    )
    got = lp.encode_task(T)
    want = lpp.parse_lp_term(
        "Π color : TYPE, Π set : (TYPE → TYPE),"
        "Π red : color, Π green : color, Π blue : color,"
        "Π empty : (Π a : TYPE, set a),"
        "Π add : (Π a : TYPE, a → set a → set a),"
        "Π mem : (Π a : TYPE, a → set a → TYPE),"
        "(Π b : TYPE, Π x : b, Π y : b, Π s : set b,"
        " (mem b x s → mem b x (add b y s))) →"
        "(Π b : TYPE, Π x : b, Π s : set b, mem b x (add b x s)) →"
        "(mem color green (add color red (add color green (empty color))) →"
        " Π C : TYPE, C) → Π C : TYPE, C")
    assert lpp.lp_alpha_equal(got, want)


def test_encode_task_pruning_drops_untouched_symbols():
    T = Task(sig=prop_sig("x1", "x2", "x"),
             hyps=(Premise(ident("H"), var("x1")),),
             goals=(Premise(ident("G"), var("x")),))
    full = lp_format(lp.encode_task(T))
    lean = lp_format(lp.encode_task(T, prune=True))
    assert "x2" in full and "x2" not in lean
    assert lean == "Π x1 : TYPE, Π x : TYPE, x1 → (x → Π C : TYPE, C) → Π C : TYPE, C"


def test_app_correctness_identity():
    T = Task(sig=prop_sig("x"), goals=(Premise(ident("G"), var("x")),))
    got = app_correctness_type(T, [T])
    t_hat = lp.encode_task(T)
    assert got == lp.LArrow(lp.encode_task(T, prune=True), t_hat)
    assert lpp.lp_alpha_equal(got.left, got.right)


# ---------------------------------------------------------------------------
# the split application, end to end

def split_application():
    T = Task(sig=prop_sig("x1", "x2", "x"),
             hyps=(Premise(ident("H"), disj(var("x1"), var("x2"))),),
             goals=(Premise(ident("G"), var("x")),))
    T1 = Task(sig=T.sig, hyps=(Premise(ident("H"), var("x1")),), goals=T.goals)
    T2 = Task(sig=T.sig, hyps=(Premise(ident("H"), var("x2")),), goals=T.goals)
    c = cert.KSplit(False, var("x1"), var("x2"), ident("H"),
                    cert.KHole(T1), cert.KHole(T2))
    return T, [T1, T2], c


def test_the_exporter_and_the_cli_give_the_recursion_limit_back(tmp_path):
    # both raise it for their walks that call themselves, and restore the
    # caller's limit when they return
    T, L, c = split_application()
    f = tmp_path / "t.task"
    f.write_text(sexpr.to_text(T), encoding="utf-8")
    with _recursion_limit(1500):
        lp.emit_module(T, L, c)
        after_export = sys.getrecursionlimit()
        lp.proof_term(c, T, L)
        after_proof = sys.getrecursionlimit()
        assert cli.main(["parse", str(f)]) == 0
        after_main = sys.getrecursionlimit()
    assert (after_export, after_proof, after_main) == (1500, 1500, 1500)


def test_split_application_type():
    T, L, c = split_application()
    checked(T, c)
    got = app_correctness_type(T, L)
    want = lpp.parse_lp_term(
        "(Π x1 : TYPE, Π x : TYPE, x1 → (x → Π C : TYPE, C) → Π C : TYPE, C) →"
        "(Π x2 : TYPE, Π x : TYPE, x2 → (x → Π C : TYPE, C) → Π C : TYPE, C) →"
        "Π x1 : TYPE, Π x2 : TYPE, Π x : TYPE,"
        "(Π C : TYPE, (x1 → C) → (x2 → C) → C) →"
        "(x → Π C : TYPE, C) → Π C : TYPE, C")
    assert lpp.lp_alpha_equal(got, want)


def test_split_application_term():
    T, L, c = split_application()
    checked(T, c)
    got = lp.proof_term(c, T, L)
    want = lpp.parse_lp_term(
        "λ s1, λ s2, λ x1, λ x2, λ x, λ H, λ G,"
        "split x1 x2 (λ H, s1 x1 x H G) (λ H, s2 x2 x H G) H")
    assert lpp.lp_alpha_equal(got, want)


def test_split_combinator_type_in_preamble():
    decls = {d.name: d for d in lpp.parse_lp(lp.emit_preamble())
             if isinstance(d, lpp.LpSymbol)}
    want = lpp.parse_lp_term(
        "Π t1 : TYPE, Π t2 : TYPE, (t1 → Π C : TYPE, C) → (t2 → Π C : TYPE, C)"
        "→ (Π C : TYPE, (t1 → C) → (t2 → C) → C) → Π C : TYPE, C")
    assert lpp.lp_alpha_equal(decls["split"].ty, want)


def test_identity_proof_term():
    T = Task(sig=prop_sig("x"), goals=(Premise(ident("G"), var("x")),))
    c = cert.KHole(T)
    got = lp.proof_term(c, T, [T])
    want = lpp.parse_lp_term("λ t, λ x, λ G, t x G")
    assert lpp.lp_alpha_equal(got, want)


def test_trivial_hypothesis_is_the_witness():
    T = Task(sig=prop_sig("x"),
             hyps=(Premise(ident("H"), Bottom()),),
             goals=(Premise(ident("G"), var("x")),))
    c = cert.KTrivial(False, ident("H"))
    checked(T, c)
    got = lp.proof_term(c, T, [])
    assert lpp.lp_alpha_equal(got, lpp.parse_lp_term("λ x, λ H, λ G, H"))


def test_proof_term_hole_count_mismatch():
    T, L, c = split_application()
    with pytest.raises(lp.ExportError, match="holes"):
        lp.proof_term(c, T, L[:1])


def _split_with_bystander():
    # H : x1 \/ x2, K : y |- G : x, split on H
    T = Task(sig=prop_sig("x1", "x2", "y", "x"),
             hyps=(Premise(ident("H"), disj(var("x1"), var("x2"))),
                   Premise(ident("K"), var("y"))),
             goals=(Premise(ident("G"), var("x")),))
    k, leaves = via_transform(T, tr.t_split(T, ident("H")))
    return T, leaves, k


def test_hole_application_follows_the_given_task_order():
    # the resulting tasks list their hypotheses in another order than the
    # replay derives them; each s_i must take its arguments in the order of
    # task_i's own binders, or the module is ill-typed
    T, derived, k = _split_with_bystander()
    L = [dataclasses.replace(t, hyps=t.hyps[::-1]) for t in derived]
    assert checker.check_application(T, L, k)
    mod = lp.emit_module(T, L, k)
    assert ("symbol task1 : TYPE ≔ Π x1 : TYPE, Π y : TYPE, Π x : TYPE, "
            "y → x1 → (x → Π C : TYPE, C) → Π C : TYPE, C;") in mod
    assert "(λ H, s1 x1 y x K H G) (λ H, s2 x2 y x K H G)" in mod


def test_export_leaves_no_cyclic_garbage():
    # the walk's state is an argument of module-level walkers, so nothing
    # of the replay waits for the cycle collector once emit_module returns
    T = gen_chain_task(20)
    L, s = tr.t_blast(T)
    k = cert.elaborate(s, T)
    gc.collect()
    gc.disable()
    try:
        lp.emit_module(T, L, k)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_proof_term_rejects_tasks_the_certificate_does_not_derive():
    T, derived, k = _split_with_bystander()
    with pytest.raises(lp.ExportError, match="task 1 differs"):
        lp.proof_term(k, T, derived[::-1])


def _refused_by_a_rule():
    T, L, _ = split_application()
    # G : x is no truth, so the second branch cannot be closed this way
    c = cert.KSplit(False, var("x1"), var("x2"), ident("H"),
                    cert.KHole(L[0]), cert.KTrivial(True, ident("G")))
    return T, L, c


def _hole_storing_the_wrong_task():
    T, L, _ = split_application()
    c = cert.KSplit(False, var("x1"), var("x2"), ident("H"),
                    cert.KHole(L[0]), cert.KHole(L[0]))
    return T, L, c


def _ill_typed_initial_task():
    T = Task(hyps=(Premise(ident("H"), IntLit(3)),),
             goals=(Premise(ident("G"), Top()),))
    return T, [T], cert.KHole(T)


@pytest.mark.parametrize("make, where", [
    (_refused_by_a_rule, "KTrivial at [1]"),
    (_hole_storing_the_wrong_task, "KHole at [1]"),
    (_ill_typed_initial_task, "KHole at []"),
])
@pytest.mark.parametrize("export", [
    lambda T, L, c: lp.emit_module(T, L, c),
    lambda T, L, c: lp.proof_term(c, T, L),
], ids=["emit_module", "proof_term"])
def test_export_refuses_what_ccheck_refuses(make, where, export):
    T, L, c = make()
    failure = checker.ccheck(c, T).failure
    assert str(failure).startswith(where + ": ")
    with pytest.raises(lp.ExportError) as e:
        export(T, L, c)
    assert str(e.value) == f"certificate rejected: {failure}"


def _proof_of(module):
    decls = lpp.parse_lp(module)
    return next(d.body for d in decls
                if isinstance(d, lpp.LpSymbol) and d.name == "proof")


def _binders_at_holes(proof, L):
    """The λs that the holes' symbol and premise arguments refer to."""
    symbols, premises = set(), set()

    def walk(t, env):
        if isinstance(t, lp.LLam):
            walk(t.body, {**env, t.var: id(t)})
            return
        args = []
        while isinstance(t, lp.LApp):
            args.insert(0, t.arg)
            t = t.fn
        if isinstance(t, lp.LVar) and re.fullmatch("s[0-9]+", t.name):
            k = len(args) - len(L[int(t.name[1:]) - 1].premises())
            for found, part in ((symbols, args[:k]), (premises, args[k:])):
                found.update(env[a.name] for a in part
                             if isinstance(a, lp.LVar))
        else:
            for a in args:
                walk(a, env)

    walk(proof, {})
    return symbols, premises


def _applied(text, apply):
    T = cli.parse_task(text)
    return T, via_transform(T, apply(T))[0]


def _hyp_named_like_an_opened_symbol():
    # KIntroQuant declares y, then KIntroImp names its hypothesis y
    T = cli.parse_task("""(task (types) (sig (p (-> (int) prop)) (q prop))
        (hyps) (goals (G (forall (y (int)) (imp (p y) q)))))""")
    y, G = ident("y"), ident("G")
    py = app(var("p"), var("y"))
    opened = cert.KIntroQuant(True, INT, Lam(y, INT, imp(py, var("q"))), G,
                              y, cert.KHole(T))
    (t1,) = checker.step(T, opened, ())
    intro = cert.KIntroImp(py, var("q"), G, y, cert.KHole(T))
    (t2,) = checker.step(t1, intro, (0,))
    return T, dataclasses.replace(
        opened, rest=dataclasses.replace(intro, rest=cert.KHole(t2)))


@pytest.mark.parametrize("make, want", [
    (lambda: _applied(
        "(task (types) (sig (H prop)) (hyps (H H)) (goals (G H)))",
        lambda T: tr.t_axiom(T, ident("H"), ident("G"))),
     "λ H, λ h, λ G, axm H h G"),
    (lambda: _applied(
        "(task (types) (sig (x prop)) (hyps) (goals (G x)))",
        lambda T: tr.t_assert(T, ident("x"), var("x"))),
     "λ s1, λ s2, λ x, λ G, cut x (λ y, s1 x G y) (λ y, s2 x y G)"),
    (lambda: _applied(
        "(task (types) (sig (G.1 prop) (x prop)) (hyps) (goals (G (imp G.1 x))))",
        lambda T: tr.t_intro_imp(T, ident("G"))),
     "λ s1, λ g, λ x, λ G, intro_imp g x (λ h, λ G, s1 g x h G) G"),
    (_hyp_named_like_an_opened_symbol,
     "λ s1, λ p, λ q, λ G, intro_all int (λ y : int, p y → q)"
     " (λ y, λ G, intro_imp (p y) q (λ h, λ G, s1 p q y h G) G) G"),
], ids=["initial", "asserted", "introduced", "opened"])
def test_premise_binders_do_not_capture_symbols(make, want):
    # a premise named like a symbol gets a λ of its own, at the top and
    # where a rule adds it, so the symbol stays in reach
    T, k = make()
    L = checked(T, k)
    proof = _proof_of(lp.emit_module(T, L, k))
    assert lpp.lp_alpha_equal(proof, lpp.parse_lp_term(want))
    symbols, premises = _binders_at_holes(proof, L)
    assert not symbols & premises


def _rewrite_a_polymorphic_side():
    T = cli.parse_task("""(task (types (box 1) (elem 0))
        (sig (e (box a)) (f (box (elem))) (p (-> (box (elem)) prop)))
        (hyps (E (= e f)) (H (p e))) (goals (G (p f))))""")
    return T, via_transform(T, tr.t_rewrite(T, ident("E"), ident("H")))[0]


def _instantiate_at_a_polymorphic_witness():
    T = cli.parse_task("""(task (types (box 1) (elem 0))
        (sig (e (box a)) (p (-> (box (elem)) prop)))
        (hyps (H (forall (x (box (elem))) (p x)))) (goals (G (p e))))""")
    return T, via_transform(T, tr.t_instantiate(T, ident("H"), var("e")))[0]


@pytest.mark.parametrize("make, want", [
    (_instantiate_at_a_polymorphic_witness,
     "inst_all (box elem) (λ x : box elem, p x) (e elem)"),
    (_rewrite_a_polymorphic_side,
     "rewrite_hyp (box elem) (e elem) f (λ z : box elem, p z) E H"),
], ids=["instantiate", "rewrite"])
def test_carried_terms_are_typed_at_the_carried_type(make, want):
    # typed on its own, e : box 'a is ambiguous; the carried type fixes it
    T, k = make()
    L = checked(T, k)
    _agrees_with_the_oracle(T, L, k)
    module = lp.emit_module(T, L, k)
    assert want in module and "e int" not in module


def _instantiate_after_a_rewrite():
    # the rewrite's temporary Heq_inst is cleared, and the instantiation
    # after it reuses the name for another equation
    T = cli.parse_task("""(task (types) (sig (a (int)) (b (int))
        (p (-> (int) prop))) (hyps (Heq (forall (x (int)) (= x b)))
        (H (p a))) (goals (G (p b))))""")
    rewrite = tr.transform(tr.t_rewrite, ident("Heq"), ident("H"), False,
                           [var("a")])
    then = tr.compose_transforms(rewrite, lambda _i, _t: tr.transform(
        tr.t_instantiate, ident("Heq"), var("b")))
    return T, via_transform(T, then.apply(T))[0]


def _induction_after_a_rewrite():
    # the equation mentions i, and the induction's cases rebind i
    T = cli.parse_task("""(task (types) (sig (i (int)) (p (-> (int) prop))
        (q (-> (int) prop))) (hyps (E (= i 0)) (H (p i))) (goals (G (q i))))""")
    s = cert.SRewrite(False, ident("E"), ident("H"), cert.SClear(
        ident("E"), cert.SInduction(ident("i"), IntLit(0), ident("Hb"),
                                    ident("Hr"), cert.SHole(), cert.SHole())))
    return T, cert.elaborate(s, T)


@pytest.mark.parametrize("make, want", [
    (_instantiate_after_a_rewrite,
     "λ s1, λ a, λ b, λ p, λ Heq, λ H, λ G, inst_all int"
     " (λ x : int, eq int x b) a (λ Heq_5finst, rewrite_hyp int a b"
     " (λ z : int, p z) Heq_5finst H (λ H, inst_all int"
     " (λ x : int, eq int x b) b (λ Heq_5finst, s1 b p Heq H Heq_5finst G)"
     " Heq)) Heq"),
    (_induction_after_a_rewrite,
     "λ s1, λ s2, λ i, λ p, λ q, λ E, λ H, λ G, rewrite_hyp int i Z0"
     " (λ z : int, p z) E H (λ H, sind (λ n : int, q n) Z0"
     " (λ i, λ G, λ Hb, s1 i p q H Hb G)"
     " (λ i, λ G, λ Hb, λ Hr, s2 i p q H Hb Hr G) i G)"),
], ids=["instantiate", "induction"])
def test_a_rewritten_premise_is_bound_where_it_is_rewritten(make, want):
    # a rewrite binds its premise in a continuation, as every rule does, so
    # no later λ captures a name the rewrite used
    T, k = make()
    L = checked(T, k)
    assert lpp.lp_alpha_equal(_proof_of(lp.emit_module(T, L, k)),
                              lpp.parse_lp_term(want))


def test_a_premise_bound_again_is_no_longer_the_rewritten_term():
    # H is rewritten, then split: inside the branches H is the split's λ
    T = cli.parse_task("""(task (types) (sig (a (int)) (b (int))
        (p (-> (int) prop)) (q prop)) (hyps (E (= a b)) (H (or (p a) q)))
        (goals (G q)))""")
    ctx = Lam(ident("x"), INT, disj(app(var("p"), var("x")), var("q")))
    rw = cert.KRewrite(False, var("a"), var("b"), ctx, ident("H"),
                       ident("E"), cert.KHole(T))
    (t1,) = checker.step(T, rw, ())
    sp = cert.KSplit(False, app(var("p"), var("b")), var("q"), ident("H"),
                     cert.KHole(T), cert.KHole(T))
    l1, l2 = checker.step(t1, sp, (0,))
    k = dataclasses.replace(rw, rest=dataclasses.replace(
        sp, first=cert.KHole(l1), second=cert.KHole(l2)))
    want = lpp.parse_lp_term(
        "λ s1, λ s2, λ a, λ b, λ p, λ q, λ E, λ H, λ G, rewrite_hyp int a b"
        " (λ x : int, Π C : TYPE, (p x → C) → (q → C) → C) E H"
        " (λ H, split (p b) q (λ H, s1 a b p q E H G) (λ H, s2 a b q E H G) H)")
    assert lpp.lp_alpha_equal(_proof_of(lp.emit_module(T, [l1, l2], k)), want)


@pytest.mark.parametrize("what", ["task1", "initial", "proof"])
def test_emit_module_refuses_a_statement_with_a_free_name(what, monkeypatch):
    # each statement is audited as it is printed: one name leaked into it
    T, L, c = split_application()
    real_task, real_proof = lp._task_type, lp._proof_term

    def leak(t):
        return lp.LArrow(lp.LVar("leaked"), t)

    if what == "proof":
        monkeypatch.setattr(lp, "_proof_term", lambda *a: (
            lambda term, used: (leak(term), used))(*real_proof(*a)))
    else:
        target = L[0] if what == "task1" else T
        monkeypatch.setattr(lp, "_task_type", lambda task, *a: (
            leak if task is target else lambda t: t)(real_task(task, *a)))
    with pytest.raises(lp.ExportError) as e:
        lp.emit_module(T, L, c)
    assert str(e.value) == f"{what} escapes its scope: ['leaked']"


def test_a_name_used_after_its_binder_closes_is_reported(monkeypatch):
    # the audit counts each open binder of a name: closing λ leaked leaves
    # leaked free in the argument after it, and closing an inner binder of
    # x leaves the outer one open
    T, L, c = split_application()
    real_proof = lp._proof_term
    closed = lp.LLam("leaked", None, lp.LVar("leaked"))

    def leak(t):
        return lp.lapp(closed, lp.LVar("leaked"), t)

    monkeypatch.setattr(lp, "_proof_term", lambda *a: (
        lambda term, used: (leak(term), used))(*real_proof(*a)))
    with pytest.raises(lp.ExportError) as e:
        lp.emit_module(T, L, c)
    assert str(e.value) == "proof escapes its scope: ['leaked']"
    twice = lp.LLam("x", None, lp.LApp(lp.LLam("x", None, lp.LVar("x")),
                                       lp.LVar("x")))
    free: set[str] = set()
    assert lp._format(lp.LApp(twice, lp.LVar("y")), 0, {}, free, {}) == \
        "(λ x, (λ x, x) x) y"
    assert free == {"y"}


def test_a_shared_encoding_is_audited_at_each_occurrence(monkeypatch):
    # emit_module prints the encoding of x1 ∨ x2 once, under the initial
    # statement's binders of x1 and x2; its occurrence outside them in the
    # proof must still report both names
    T, L, c = split_application()
    real_proof = lp._proof_term

    def leak(c, T, L, enc):
        term, used = real_proof(c, T, L, enc)
        shared = enc(T.hyps[0].formula, T)
        closed = lp.LLam("x1", None, lp.LLam("x2", None, shared))
        return lp.lapp(term, closed, shared), used

    monkeypatch.setattr(lp, "_proof_term", leak)
    with pytest.raises(lp.ExportError) as e:
        lp.emit_module(T, L, c)
    assert str(e.value) == "proof escapes its scope: ['x1', 'x2']"


_LP_VARS = "xyz"


@st.composite
def _shared_lp_terms(draw):
    """Terms over one pool of nodes, so subterms are shared objects; the
    nodes to print once; and the statements to print, each shared node
    occurring under binders of all its names and outside any binder."""
    pool = [lp.LVar(v) for v in _LP_VARS] + [lp.LConst("c"), lp.SORT]
    atoms = len(pool)
    for _ in range(draw(st.integers(1, 14))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        v = draw(st.sampled_from(_LP_VARS))
        pool.append(draw(st.sampled_from([
            lp.LApp(a, b), lp.LArrow(a, b), lp.LProd(v, a, b),
            lp.LLam(v, None, b), lp.LLam(v, a, b)])))
    shared = draw(st.lists(st.sampled_from(pool[atoms:]), max_size=5))
    statements = [pool[-1]]
    for t in shared:
        closed = t
        for v in _LP_VARS:
            closed = lp.LLam(v, None, closed)
        pair = [closed, t] if draw(st.booleans()) else [t, closed]
        statements.append(lp.lapp(lp.LConst("f"), *pair))
    statements.append(pool[-1])
    return pool, shared, statements


@given(_shared_lp_terms(), st.integers(0, 3),
       st.dictionaries(st.sampled_from(_LP_VARS), st.integers(0, 1)))
@settings(max_examples=400, deadline=None)
def test_the_memo_printer_agrees_with_the_tree_walk(terms, prec, bound):
    # one memo across statements, as emit_module uses it: each statement's
    # text and free names are the tree walk's at every occurrence
    pool, shared, statements = terms
    memo = {id(t): None for t in shared}
    for t in statements:
        free, want_free = set(), set()
        got = lp._format(t, prec, dict(bound), free, memo)
        assert got == tree_format(t, prec, dict(bound), want_free)
        assert free == want_free


# ---------------------------------------------------------------------------
# the preamble

def test_preamble_is_static():
    assert lp.emit_preamble() == lp.emit_preamble()
    assert "\r" not in lp.emit_preamble()


def test_preamble_declares_exactly_its_advertised_names():
    decls = lpp.parse_lp(lp.emit_preamble())
    names = {d.name for d in decls if isinstance(d, lpp.LpSymbol)}
    assert names == set(lp.PREAMBLE_NAMES)


def test_preamble_eq_refl():
    decls = {d.name: d for d in lpp.parse_lp(lp.emit_preamble())
             if isinstance(d, lpp.LpSymbol)}
    want = lpp.parse_lp_term("λ t, λ x, λ Q, λ q, q")
    assert lpp.lp_alpha_equal(decls["eq_refl"].body, want)


_DATA = {"cmp", "CEq", "CLt", "CGt", "pos", "xH", "xO", "xI",
         "int", "Z0", "Zpos", "Zneg", "mask", "MNul", "MPos", "MNeg"}
_RULE_DEFINED = {"psucc", "pdbl", "padd", "paddc", "pmul", "dblm", "sdblm",
                 "dpredm", "smask", "smaskc", "mask_pos", "psub_pos", "pcmpc",
                 "pcmp", "zcmp", "zsign", "opp", "add", "sub", "mul",
                 "is_le", "is_lt", "le", "lt", "gt", "ge"}


def test_preamble_trust_surface_is_three_axioms():
    # everything without a definition is a datatype constructor, an operation
    # defined by rewrite rules, or one of the three axioms
    decls = {d.name: d for d in lpp.parse_lp(lp.emit_preamble())
             if isinstance(d, lpp.LpSymbol)}
    no_body = {n for n, d in decls.items() if d.body is None}
    assert no_body == _DATA | _RULE_DEFINED | {"em", "le_gt_cases", "int_ind"}


def test_preamble_definitions_are_closed():
    decls = lpp.parse_lp(lp.emit_preamble())
    known = set()
    for d in decls:
        if isinstance(d, lpp.LpSymbol):
            if d.ty is not None:
                assert lpp.lp_atoms(d.ty) <= known, d.name
            if d.body is not None:
                assert lpp.lp_atoms(d.body) <= known, d.name
            known.add(d.name)
        elif isinstance(d, lpp.LpRule):
            free = {n for n in lpp.lp_atoms(d.lhs) if not n.startswith("$")}
            free |= {n for n in lpp.lp_atoms(d.rhs) if not n.startswith("$")}
            assert free <= known


# ---------------------------------------------------------------------------
# integer rules, checked by a tiny first-order rewrite engine

def _head(t):
    while isinstance(t, lp.LApp):
        t = t.fn
    return t


def _rules():
    """The preamble's rules, grouped by the head constant of their lhs."""
    by_head = {}
    for d in lpp.parse_lp(lp.emit_preamble()):
        if isinstance(d, lpp.LpRule):
            by_head.setdefault(_head(d.lhs), []).append(d)
    return by_head


def _match(pat, t, binds):
    if isinstance(pat, lp.LVar) and pat.name.startswith("$"):
        if pat.name in binds:
            return binds[pat.name] == t
        binds[pat.name] = t
        return True
    if isinstance(pat, lp.LConst) and isinstance(t, lp.LConst):
        return pat.name == t.name
    if isinstance(pat, lp.LApp) and isinstance(t, lp.LApp):
        return _match(pat.fn, t.fn, binds) and _match(pat.arg, t.arg, binds)
    return pat == t


def normalize(t, rules, fuel=100000):
    """Innermost normal form of t; each rule application burns one fuel."""
    left = fuel

    def rewrite(t):
        # the arguments of t are already normal
        nonlocal left
        for r in rules.get(_head(t), ()):
            binds = {}
            if _match(r.lhs, t, binds):
                if left <= 0:
                    raise AssertionError("rewrite fuel exhausted")
                left -= 1
                return build(r.rhs, binds)
        return t

    def build(t, binds):
        # t with its pattern variables bound to normal terms, normalized
        if isinstance(t, lp.LVar) and t.name.startswith("$"):
            return binds[t.name]
        if isinstance(t, lp.LApp):
            t = lp.LApp(build(t.fn, binds), build(t.arg, binds))
        return rewrite(t)

    return build(t, {})


RULES = _rules()
INTS = st.integers(min_value=-300, max_value=300)


@settings(max_examples=300, deadline=None)
@given(INTS, INTS)
def test_rules_add(a, b):
    assert normalize(lp.lapp(lp.LConst("add"), lp._int_term(a), lp._int_term(b)),
                     RULES) == lp._int_term(a + b)


@settings(max_examples=300, deadline=None)
@given(INTS, INTS)
def test_rules_sub(a, b):
    assert normalize(lp.lapp(lp.LConst("sub"), lp._int_term(a), lp._int_term(b)),
                     RULES) == lp._int_term(a - b)


@settings(max_examples=200, deadline=None)
@given(INTS, INTS)
def test_rules_mul(a, b):
    assert normalize(lp.lapp(lp.LConst("mul"), lp._int_term(a), lp._int_term(b)),
                     RULES) == lp._int_term(a * b)


@settings(max_examples=300, deadline=None)
@given(INTS, INTS)
def test_rules_comparisons(a, b):
    for name, holds in [("le", a <= b), ("lt", a < b),
                        ("gt", a > b), ("ge", a >= b)]:
        got = normalize(lp.lapp(lp.LConst(name), lp._int_term(a),
                                lp._int_term(b)), RULES)
        assert got == (lp.LP_TOP if holds else lp.LP_BOT), (name, a, b)


# ---------------------------------------------------------------------------
# emitted modules for every rule family

def module_corpus():
    mods = []

    def add_transform(T, result):
        k, leaves = via_transform(T, result)
        mods.append(lp.emit_module(T, leaves, k))

    q, x = ident("q"), ident("x")
    a, b, i, p = ident("a"), ident("b"), ident("i"), ident("p")
    al = ident("alpha")

    T = Task(sig=prop_sig("x1", "x2", "x"),
             hyps=(Premise(ident("H"), disj(var("x1"), var("x2"))),),
             goals=(Premise(ident("G"), conj(var("x"), var("x"))),))
    add_transform(T, tr.t_split(T, ident("H")))
    add_transform(T, tr.t_split(T, ident("G")))
    T = Task(sig=T.sig, hyps=T.hyps,
             goals=(Premise(ident("G"), disj(var("x"), var("x"))),))
    add_transform(T, tr.t_destruct(T, ident("G"), ident("G1"), ident("G2")))

    T = Task(sig=prop_sig("x"),
             hyps=(Premise(ident("H"), conj(var("x"), Not(var("x")))),),
             goals=(Premise(ident("G"), imp(var("x"), var("x"))),))
    add_transform(T, tr.t_destruct(T, ident("H"), ident("H1"), ident("H2")))
    add_transform(T, tr.t_intro_imp(T, ident("G")))
    add_transform(T, tr.t_blast(T))

    T = Task(sig=prop_sig("x", "y"),
             hyps=(Premise(ident("H"), imp(var("x"), var("y"))),),
             goals=(Premise(ident("G"), var("y")),))
    add_transform(T, tr.t_split_imp(T, ident("H")))
    add_transform(T, tr.t_assert(T, ident("A"), var("x")))
    add_transform(T, tr.t_clear(T, ident("H")))

    T = Task(sig=prop_sig("x"),
             hyps=(Premise(ident("H"), Not(var("x"))),),
             goals=(Premise(ident("G"), Not(var("x"))),))
    add_transform(T, tr.t_swap_neg(T, ident("H")))
    add_transform(T, tr.t_swap_neg(T, ident("G")))

    T = Task(sig=prop_sig("x", "y"),
             hyps=(Premise(ident("H"), iff(var("x"), var("y"))),),
             goals=(Premise(ident("G"), var("x")),))
    add_transform(T, tr.t_unfold_iff(T, ident("H")))

    parr = Arrow(INT, PROP)
    T = Task(sig=((p, parr),),
             hyps=(Premise(ident("H"), Forall(ident("v"), INT,
                                              app(var("p"), Var(ident("v"))))),),
             goals=(Premise(ident("G"), Exists(ident("v"), INT,
                                               app(var("p"), Var(ident("v"))))),))
    add_transform(T, tr.t_instantiate(T, ident("H"), IntLit(7)))
    add_transform(T, tr.t_instantiate(T, ident("G"), IntLit(7)))

    T = Task(sig=((p, parr),),
             hyps=(Premise(ident("H"), Exists(ident("v"), INT,
                                              app(var("p"), Var(ident("v"))))),),
             goals=(Premise(ident("G"), Forall(ident("v"), INT,
                                               app(var("p"), Var(ident("v"))))),))
    add_transform(T, tr.t_intro(T, ident("H")))
    add_transform(T, tr.t_intro(T, ident("G")))

    T = Task(sig=((q, PROP),),
             hyps=(Premise(ident("H"), PiType(al, Forall(
                 ident("v"), TVar(al), var("q")))),),
             goals=(Premise(ident("G"), PiType(al, imp(var("q"), var("q")))),))
    add_transform(T, tr.t_inst_type(T, ident("H"), INT))
    add_transform(T, tr.t_intro(T, ident("G")))

    T = Task(sig=((p, parr), (a, INT), (b, INT)),
             hyps=(Premise(ident("E"), eq(Var(a), Var(b))),
                   Premise(ident("H"), app(var("p"), Var(a)))),
             goals=(Premise(ident("G"), app(var("p"), Var(a))),))
    add_transform(T, tr.t_rewrite(T, ident("E"), ident("H")))
    add_transform(T, tr.t_rewrite(T, ident("E"), ident("G")))

    T = Task(sig=((p, parr), (i, INT)),
             goals=(Premise(ident("G"), app(var("p"), Var(i))),))
    add_transform(T, tr.t_induction(T, ident("G"), i, IntLit(0)))

    # revert and eq_refl have no dedicated op; drive the kernel directly
    T = Task(sig=prop_sig("x"),
             hyps=(Premise(ident("H"), var("x")),),
             goals=(Premise(ident("G"), var("x")),))
    k = cert.elaborate(cert.SRevert(ident("H"), ident("G"),
                                    cert.SIntroImp(ident("G"), ident("H2"),
                                                   cert.SAxiom(ident("H2"), ident("G")))), T)
    mods.append(lp.emit_module(T, checked(T, k), k))

    T = Task(sig=((a, INT),),
             goals=(Premise(ident("G"), eq(Var(a), Var(a))),))
    k = cert.KEqRefl(Var(a), ident("G"))
    mods.append(lp.emit_module(T, checked(T, k), k))

    return mods


MODULES = module_corpus()


def test_modules_are_well_scoped():
    # emit_module audits internally; re-check through the parser to make the
    # guarantee independent of the emitter's own bookkeeping
    for mod in MODULES:
        decls = lpp.parse_lp(mod)
        known = set(lp.PREAMBLE_NAMES)
        for d in decls:
            if isinstance(d, lpp.LpSymbol):
                for side in (d.ty, d.body):
                    if side is not None:
                        assert lpp.lp_atoms(side) <= known, (d.name, mod)
                known.add(d.name)


def test_modules_parse_and_roundtrip():
    for mod in MODULES:
        decls = lpp.parse_lp(mod)
        assert isinstance(decls[0], lpp.LpRequire)
        assert decls[0].path == "certforge.preamble"
        for d in decls[1:]:
            assert isinstance(d, lpp.LpSymbol)
            again = lpp.parse_lp_term(lp_format(d.body))
            assert lpp.lp_alpha_equal(d.body, again)


def test_module_bytes_are_pinned():
    # lp_bytes counts bytes, so a same-length change to the text would pass
    # the benchmark; this digest was taken before emit_module printed each
    # shared encoding once, and must not move
    h = hashlib.sha256()
    for mod in MODULES:
        h.update(mod.encode("utf-8"))
    for n in [*range(1, 40), 150]:
        T = gen_chain_task(n)
        k, leaves = via_transform(T, tr.t_blast(T))
        h.update(lp.emit_module(T, leaves, k).encode("utf-8"))
    h.update(lp.emit_preamble().encode("utf-8"))
    assert h.hexdigest() == \
        "bff2854d59a30e84420b76c31f307e968fb5fd25d92123cc4c9ed926e3b8bb81"


def test_module_bytes_are_deterministic():
    T = gen_chain_task(10)
    k, leaves = via_transform(T, tr.t_blast(T))
    assert lp.emit_module(T, leaves, k) == lp.emit_module(T, leaves, k)


def test_module_is_utf8_lf():
    mod = MODULES[0]
    raw = mod.encode("utf-8")
    assert b"\r" not in raw
    assert mod.endswith("\n")


def test_hole_application_order_follows_declarations():
    # two holes: the first identifier must serve the first resulting task,
    # and its arguments must list symbols before premises in task order
    T, L, c = split_application()
    checked(T, c)
    term = lp.proof_term(c, T, L)
    # strip λ s1, λ s2, λ x1, λ x2, λ x, λ H, λ G
    names = []
    while isinstance(term, lp.LLam):
        names.append(term.var)
        term = term.body
    assert names == ["s1", "s2", "x1", "x2", "x", "H", "G"]


# ---------------------------------------------------------------------------
# the memoized encoder against the per-formula encoding

def _agrees_with_the_oracle(T, L, k):
    # one Encoder for all three, in emit_module's order
    enc = lp.Encoder()
    assert lp.proof_term(k, T, L, enc) == lp.proof_term(k, T, L, per_formula)
    for leaf in L:
        assert lp.encode_task(leaf, prune=True, encoder=enc) == \
            lp.encode_task(leaf, prune=True, encoder=per_formula)
    assert lp.encode_task(T, encoder=enc) == \
        lp.encode_task(T, encoder=per_formula)


_ATOMS = tuple(var(c) for c in "abcd")


def _shared_formula(rng, depth, pool):
    # reuses formulas built before, so premises share subformula objects
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.3:
        f = rng.choice(_ATOMS + (Top(), Bottom()))
    elif rng.random() < 0.2:
        f = Not(_shared_formula(rng, depth - 1, pool))
    else:
        op = rng.choice((conj, disj, imp, iff))
        f = op(_shared_formula(rng, depth - 1, pool),
               _shared_formula(rng, depth - 1, pool))
    pool.append(f)
    return f


def _applications(T):
    n1, n2 = ident("N1"), ident("N2")
    for p in T.premises():
        for t in (tr.t_split, tr.t_intro_imp, tr.t_split_imp, tr.t_swap_neg,
                  tr.t_unfold_iff, tr.t_trivial, tr.t_clear):
            yield t, (T, p.name)
        yield tr.t_destruct, (T, p.name, n1, n2)
    yield tr.t_assert, (T, n1, T.premises()[0].formula)
    yield tr.t_blast, (T,)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_encoder_agrees_with_the_per_formula_encoding_on_prop_tasks(seed):
    rng = random.Random(seed)
    pool = []
    T = Task(sig=tuple((a.name, PROP) for a in _ATOMS),
             hyps=tuple(Premise(ident(f"H{i}"), _shared_formula(rng, 3, pool))
                        for i in range(rng.randrange(3))),
             goals=tuple(Premise(ident(f"G{i}"), _shared_formula(rng, 3, pool))
                         for i in range(1, rng.randrange(1, 3) + 1)))
    applied = 0
    for t, args in _applications(T):
        try:
            k, L = via_transform(T, t(*args))
        except tr.TransformError:
            continue
        _agrees_with_the_oracle(T, L, k)
        applied += 1
    assert applied > 0


def test_encoder_agrees_with_the_per_formula_encoding_on_the_fol_script():
    T = cli.parse_task(_FOL_TASK)
    for apply, feed in _fol_script():
        L, s = apply(T)
        k = cert.elaborate(s, T)
        _agrees_with_the_oracle(T, checked(T, k), k)
        T = L[feed]


@pytest.mark.parametrize("parse", [False, True], ids=["built", "parsed"])
def test_encoder_agrees_with_the_per_formula_encoding_on_chain(parse):
    # a parsed task holds one object per distinct subterm (sexpr's tables
    # share repeats), a built one shares only the atoms it reuses
    T = gen_chain_task(12)
    if parse:
        T = cli.parse_task(sexpr.to_text(T))
    k, L = via_transform(T, tr.t_blast(T))
    _agrees_with_the_oracle(T, L, k)


def _choose_task(goal):
    A = TVar(ident("a"))
    return Task(sig=((ident("choose"), A), (ident("p"), Arrow(INT, PROP))),
                hyps=(Premise(ident("H"), Forall(ident("x"), INT,
                                                 app(var("p"), var("x")))),),
                goals=(Premise(ident("G"), goal),))


_CHOOSE = var("choose")


@pytest.mark.parametrize("goal, apply", [
    (_CHOOSE, lambda T: tr.t_instantiate(T, ident("H"), IntLit(0))),
    (conj(_CHOOSE, Top()), lambda T: tr.t_split(T, ident("G"))),
    (Not(_CHOOSE), lambda T: tr.t_swap_neg(T, ident("G"))),
], ids=["top", "operand", "negated"])
def test_polymorphic_formula_encodes_at_type(goal, apply):
    # choose : 'a standing for a proposition is prop at the instance prop,
    # TYPE in λΠ, at the top of a formula and as an operand alike
    T = _choose_task(goal)
    k, L = via_transform(T, apply(T))
    _agrees_with_the_oracle(T, L, k)
    module = lp.emit_module(T, L, k)
    assert "choose TYPE" in module and "choose int" not in module


def test_the_memo_key_separates_prop_from_term_judgments():
    # the same choose object is a witness of type int and a goal operand of
    # type prop; under one key the first encoding would serve both
    choose = _CHOOSE
    T = _choose_task(conj(choose, app(var("p"), choose)))
    k, L = via_transform(T, tr.t_instantiate(T, ident("H"), choose))
    assert k.witness is choose and T.goals[0].formula.left is choose
    _agrees_with_the_oracle(T, L, k)
    enc = lp.Encoder()
    body = lp_format(lp.proof_term(k, T, L, enc))
    initial = lp_format(lp.encode_task(T, encoder=enc))
    assert "inst_all int (λ x : int, p x) (choose int)" in body
    assert "(choose TYPE → p (choose int) → C)" in initial


def test_encode_task_refuses_a_type_quantifier_below_a_connective():
    # a prefix heads a whole formula only; as an operand it is no prenex
    T = Task(sig=prop_sig("x"),
             goals=(Premise(ident("G"), conj(PiType(ident("a"), Top()),
                                             var("x"))),))
    with pytest.raises(TypingError, match="under another constructor"):
        lp.encode_task(T)


def test_the_memo_key_separates_typing_contexts():
    # opening G declares the type b#1, so the same H object, kept in the
    # resulting task, renames its prefix to b#2 there and to b#1 in the
    # initial task
    T = cli.parse_task("""(task (types) (sig (q (-> b prop)))
        (hyps (H (pi b (forall (u b) (q u)))))
        (goals (G (pi b (forall (u b) (q u))))))""")
    k, L = via_transform(T, tr.t_intro(T, ident("G")))
    assert L[0].hyps[0].formula is T.hyps[0].formula
    _agrees_with_the_oracle(T, L, k)
    module = lp.emit_module(T, L, k)
    assert "(Π b_u2 : TYPE, Π u : b_u2, q b_u2 u) → ((Π u : b_u1" in module
    assert "(Π b_u1 : TYPE, Π u : b_u1, q b_u1 u) → ((Π b_u1" in module


def test_a_premise_kept_across_a_declaration_is_encoded_once():
    # opening G declares n#1, which H does not mention: the resulting task
    # keeps H's Typing, so one encoding (and one printed text) serves both
    # tasks, as one scheme encoding serves each signature entry
    T = cli.parse_task("""(task (types) (sig (p (-> (int) prop)) (q prop))
        (hyps (H (and q (p 1))))
        (goals (G (forall (n (int)) (p n)))))""")
    k, L = via_transform(T, tr.t_intro(T, ident("G")))
    h = T.hyps[0].formula
    assert L[0].hyps[0].formula is h and L[0].sig[:2] == T.sig
    enc = lp.Encoder()
    assert enc(h, T) is enc(h, L[0])
    assert enc.scheme(T.sig[0][1]) is enc.scheme(L[0].sig[0][1])
    _agrees_with_the_oracle(T, L, k)


@pytest.mark.parametrize("n", [20, 40])
def test_emit_module_annotates_no_chain_formula(n, annotate_calls):
    # every formula of a chain export is a premise the replay judged, or an
    # operand along its spine, so the exporter reads the typing the replay
    # kept; the per-formula encoding handed annotate 975 nodes at n=20 and
    # 3555 at n=40, and typing each atom on its own up to 2n
    T = gen_chain_task(n)
    k, L = via_transform(T, tr.t_blast(T))
    annotate_calls.clear()
    lp.emit_module(T, L, k)
    assert dict(annotate_calls) == {}


_POLY_TASK = """(task (types (box 1) (elem 0))
  (sig (f (-> (int) (int))) (p (-> (int) prop))
       (wrap (-> a (box a))) (q (-> (box a) prop)) (e0 (elem)))
  (hyps
    (Hpoly (pi a (forall (x a) (q (wrap x)))))
    (Heq (forall (y (int)) (imp (>= y 2) (= (f y) (+ y 5)))))
    (Hw (and (q (wrap e0)) (not (= (wrap e0) (wrap e0))))))
  (goals (G (forall (n (int)) (imp (q (wrap e0)) (p (f n)))))))"""

# the node fields holding a term the certificate carries rather than a
# formula some task holds as a premise
_CARRIED = {cert.KIntroQuant: ("pred",), cert.KInstQuant: ("pred", "witness"),
            cert.KRewrite: ("left", "right", "context"),
            cert.KEqRefl: ("term",), cert.KInduction: ("context", "bound")}


def test_emit_module_annotates_only_carried_terms_on_a_first_order_script(
        annotate_calls):
    # wrap and q are polymorphic and = is interpreted, so every premise
    # holds instances; the exporter reads them from the typing the replay
    # kept, KInstType's predicate included, and types on its own only the
    # terms the certificate carries. A fresh task and a loaded
    # certificate, whose formulas no typing context judged, go through
    # encode_term and must give the same module.
    calls = annotate_calls["lp_export"]

    def fresh(task):
        return sexpr.task_loads(sexpr.to_text(task))

    T = cli.parse_task(_POLY_TASK)
    script = [(lambda T: tr.t_intro(T, ident("G")), 0),
              (lambda T: tr.t_inst_type(T, ident("Hpoly"),
                                        TApp(ident("elem"), ())), 0),
              (lambda T: tr.t_rewrite(T, ident("Heq"), ident("G")), 1)]
    rules = set()
    for apply, feed in script:
        k, L = via_transform(T, apply(T))
        nodes = [node for _, node, _ in checker.derive(k, T)]
        rules |= {type(node) for node in nodes}
        carried = {id(getattr(node, name)) for node in nodes
                   for name in _CARRIED.get(type(node), ())}
        calls.clear()
        module = lp.emit_module(T, L, k)
        own = len(calls)
        built = [t for t in calls if id(t) not in carried]
        assert built == []
        again = lp.emit_module(fresh(T), [fresh(leaf) for leaf in L],
                               cert.cert_loads(cert.cert_dumps(k)))
        assert again == module
        assert len(calls) - own > own
        _agrees_with_the_oracle(T, L, k)
        T = L[feed]
    assert {cert.KIntroQuant, cert.KInstType, cert.KRewrite} <= rules


def test_a_loaded_rewrite_certificate_exports_at_in_memory_cost(
        annotate_calls):
    # KSplitImp encodes the operands of the premise it splits, which the
    # replay judged. The certificate's own copies are only alpha-equal to
    # them: loaded, they are other objects than the instance KInstQuant
    # builds by substitution, and typing them cost 2 annotate calls more
    calls = annotate_calls["lp_export"]
    T = cli.parse_task(_FOL_TASK)
    rules = set()
    for apply, feed in _fol_script():
        k, L = via_transform(T, apply(T))
        rules |= {type(node) for _, node, _ in checker.derive(k, T)}
        calls.clear()
        module = lp.emit_module(T, L, k)
        in_memory = len(calls)
        calls.clear()
        assert lp.emit_module(T, L, cert.cert_loads(cert.cert_dumps(k))) \
            == module
        assert len(calls) <= in_memory
        T = L[feed]
    assert cert.KSplitImp in rules


# ---------------------------------------------------------------------------
# mangling

def test_mangle_is_injective_on_awkward_names():
    names = [
        Ident("H.1"), Ident("H_1"), Ident("H", 1), Ident("H#1"),
        Ident("H.1", 1), Ident("x_05"), Ident("x", 5), Ident("x\x12"),
        Ident("x", 12), Ident("split"), Ident("u_split"), Ident("s1"),
        Ident("task3"), Ident("C"), Ident("int"), Ident("proof"),
        Ident("1x"), Ident("λ"), Ident("_"),
    ]
    rendered = [lp.mangle(n) for n in names]
    assert len(set(rendered)) == len(rendered)
    for r in rendered:
        assert lpp.parse_lp_term(r) == lp.LConst(r)


def _mangle_reference(name):
    # the per-character definition mangle's fast path must agree with
    out = []
    for k, ch in enumerate(name.name):
        if (ch.isascii() and ch.isalnum()) and not (k == 0 and ch.isdigit()):
            out.append(ch)
        else:
            out.append("_%02x" % ord(ch))
    base = "".join(out) or "_5f"
    if name.uid:
        base += f"_u{name.uid}"
    if (base in lp._LP_KEYWORDS or base in lp._EMITTER_NAMES
            or base in lp.PREAMBLE_NAMES
            or re.fullmatch(r"(s|task)[0-9]+", base) is not None
            or base.startswith("u_")):
        base = "u_" + base
    return base


_NAME_PARTS = st.one_of(
    st.text("abcxyzACQ019_", max_size=6),
    st.text(max_size=4),
    st.sampled_from(["", "1", "1x", "x1", "λ", "é", "u", "u_", "u_x", "s", "s1",
                     "s01", "task", "task12", "tasks1", "split", "TYPE", "C",
                     "proof", "int", "initial", "Q", "xH", "_", "H.1"]),
)


@given(st.lists(_NAME_PARTS, min_size=1, max_size=2).map("".join),
       st.one_of(st.just(0), st.integers(0, 30)))
@settings(max_examples=500, deadline=None)
def test_mangle_agrees_with_the_per_character_reference(name, uid):
    assert lp.mangle(Ident(name, uid)) == _mangle_reference(Ident(name, uid))


def test_mangle_avoids_the_preamble():
    for taken in ("split", "add", "int", "eq", "s7", "task1", "C", "initial",
                  "Q", "proof", "TYPE", "symbol", "require"):
        out = lp.mangle(Ident(taken))
        assert out not in lp.PREAMBLE_NAMES
        assert out not in ("C", "Q", "initial", "proof", "TYPE")
        assert lpp.parse_lp_term(out) == lp.LConst(out)


# ---------------------------------------------------------------------------
# optional external checking

@pytest.mark.skipif(not os.environ.get("CERTFORGE_LP_CHECKER"),
                    reason="no external λΠ checker configured")
def test_external_checker_accepts_the_corpus(tmp_path):
    checker_cmd = os.environ["CERTFORGE_LP_CHECKER"]
    (tmp_path / "preamble.lp").write_text(lp.emit_preamble(), encoding="utf-8")
    for i, mod in enumerate(MODULES):
        path = tmp_path / f"mod{i}.lp"
        path.write_text(mod, encoding="utf-8")
        proc = subprocess.run([checker_cmd, str(path)], cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
