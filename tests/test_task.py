from __future__ import annotations

import copy
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certforge import cli, core, sexpr
from certforge import task as task_module
from certforge import transforms as tr
from certforge.cert import KHole, cert_dumps, cert_loads, elaborate
from certforge.checker import ccheck
from certforge.core import (
    INT,
    PROP,
    RESERVED,
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
    annotate,
    app,
    arrow,
    conj,
    disj,
    eq,
    free_vars,
    ident,
    iff,
    imp,
    subterms,
    type_heads,
    var,
)
from certforge.task import (
    Premise,
    Task,
    TaskError,
    gen_chain_task,
    ill_typed_reason,
    task_alpha_equal,
    task_list_alpha_equal,
    typing_of,
    used_declarations,
    well_typed,
)
from oracles import brute_force_valid
from test_acceptance import _FOL_TASK, _fol_script

P, Q, R, S = (var(n) for n in ("p", "q", "r", "s"))


def mk_task(atoms, hyps=(), goals=()):
    return Task(
        sig=tuple((ident(a), PROP) for a in atoms),
        hyps=tuple(Premise(ident(f"H{i+1}"), f) for i, f in enumerate(hyps)),
        goals=tuple(Premise(ident(f"G{i+1}"), f) for i, f in enumerate(goals)),
    )


# ---------------------------------------------------------------------------
# Construction invariants


def test_reserved_names_rejected():
    names = ["int", "=", "+", "*", "-", ">", "<", ">=", "<="]
    assert RESERVED == set(names)
    # a name is reserved whatever its disambiguator
    for name in [Ident(n, uid) for n in names for uid in (0, 2)]:
        with pytest.raises(TaskError, match="interpreted and reserved"):
            Task(types=((name, 0),))
        with pytest.raises(TaskError, match="interpreted and reserved"):
            Task(sig=((name, arrow(INT, INT, PROP)),))


@pytest.mark.parametrize("text, decls, message", [
    ("(task (types (prop 0)) (sig (true prop)) (hyps) (goals (G true)))",
     {"types": ((ident("prop"), 0),), "sig": ((ident("true"), PROP),)},
     "type symbol prop names the type of formulas"),
    ("(task (types) (sig (true prop)) (hyps) (goals (G true)))",
     {"sig": ((ident("true"), PROP),)}, "symbol true names a constant"),
    ("(task (types) (sig (false (int))) (hyps) (goals))",
     {"sig": ((ident("false"), INT),)}, "symbol false names a constant"),
    ("(task (types (prop#2 1)) (sig) (hyps) (goals))",
     {"types": ((Ident("prop", 2), 1),)},
     "type symbol prop#2 names the type of formulas"),
])
def test_a_symbol_named_like_a_constant_is_refused(text, decls, message):
    # no formula can name a symbol true or false (the reader reads both as
    # constants), nor a type name a type symbol prop
    with pytest.raises(TaskError, match=message):
        sexpr.task_loads(text)
    with pytest.raises(TaskError, match=message):
        Task(**decls)


def test_a_symbol_named_like_a_constant_with_a_uid_is_declared():
    # true#1 and false#2 read back as themselves
    T = sexpr.task_loads("(task (types) (sig (true#1 prop) (false#2 prop)) "
                         "(hyps (H true#1)) (goals (G false#2)))")
    assert [str(n) for n, _ in T.sig] == ["true#1", "false#2"]
    assert T.hyps[0].formula == var("true#1")


def test_duplicate_declarations_rejected():
    with pytest.raises(TaskError):
        Task(types=((ident("c"), 0), (ident("c"), 0)))
    with pytest.raises(TaskError):
        Task(sig=((ident("x"), INT), (ident("x"), INT)))


def test_duplicate_premise_names_rejected():
    T = mk_task(["p"], hyps=[P], goals=[Q])
    with pytest.raises(TaskError, match="H1 used twice"):
        T.append(False, Premise(ident("H1"), P))
    with pytest.raises(TaskError, match="G1 used twice"):
        T.replace(False, 0, (Premise(ident("K"), P), Premise(ident("G1"), P)))
    with pytest.raises(TaskError, match="K used twice"):
        T.replace(True, 0, (Premise(ident("K"), P), Premise(ident("K"), P)))
    # the premise replaced gives its name up
    assert T.replace(False, 0, (Premise(ident("H1"), Q),)).premise_names() \
        == {ident("H1"), ident("G1")}
    with pytest.raises(TaskError):
        Task(sig=((ident("p"), PROP),),
             hyps=(Premise(ident("H"), P),),
             goals=(Premise(ident("H"), P),))


def test_find_replace_append():
    T = mk_task(["p", "q"], hyps=[P, Q], goals=[disj(P, Q)])
    found = T.find("H2")
    assert found is not None
    is_goal, idx, prem = found
    assert not is_goal and idx == 1 and prem.formula == Q
    T2 = T.replace(False, 1, (Premise(ident("K"), conj(P, Q)),))
    assert [p.name.name for p in T2.hyps] == ["H1", "K"]
    T3 = T.append(True, Premise(ident("G9"), P))
    assert [p.name.name for p in T3.goals] == ["G1", "G9"]
    assert T.find("missing") is None


# ---------------------------------------------------------------------------
# Well-typedness


def test_well_typed_polymorphic_sets_task():
    color = TApp(ident("color"), ())

    def set_of(ty):
        return TApp(ident("set"), (ty,))

    a = TVar(ident("a"))
    x, y, s = ident("x"), ident("y"), ident("s")
    mem = var("mem")
    add = var("add")
    T = Task(
        types=((ident("color"), 0), (ident("set"), 1)),
        sig=(
            (ident("red"), color),
            (ident("green"), color),
            (ident("blue"), color),
            (ident("empty"), set_of(a)),
            (ident("add"), arrow(a, set_of(a), set_of(a))),
            (ident("mem"), arrow(a, set_of(a), PROP)),
        ),
        hyps=(
            Premise(ident("H1"), PiType(
                ident("a"),
                Forall(x, a, Forall(y, a, Forall(s, set_of(a), imp(
                    app(mem, Var(x), Var(s)),
                    app(mem, Var(x), app(add, Var(y), Var(s))))))))),
            Premise(ident("H2"), PiType(
                ident("a"),
                Forall(x, a, Forall(s, set_of(a), app(
                    mem, Var(x), app(add, Var(x), Var(s))))))),
        ),
        goals=(
            Premise(ident("G"), app(mem, var("green"),
                                    app(add, var("red"),
                                        app(add, var("green"), var("empty"))))),
        ),
    )
    assert well_typed(T)


def test_extend_sig_types_kept_formulas_again():
    # F is prop under T's signature, and judging T records it in T's typing
    # context; declaring x makes F's binder shadow a declared symbol, so the
    # extended task, which starts a context of its own, must type F again
    F = Forall(ident("x"), INT, P)
    T = mk_task(["p"], goals=[F])
    assert well_typed(T)
    T2 = T.extend_sig(ident("x"), INT)
    assert T2.goals[0].formula is F
    assert not well_typed(T2)
    assert not well_typed(T2.append(False, Premise(ident("H9"), P)))
    assert well_typed(T.append(False, Premise(ident("H9"), P)))


def test_extend_types_judges_again_a_premise_whose_iota_it_declares():
    # typing the goal renames its prefix variable a to the type symbol a#1;
    # once a#1 is declared, a fresh context picks a#2, and so must the
    # extended task; the hypothesis neither mentions a#1 nor picked it
    T = cli.parse_task("""(task (types (box 1))
      (sig (wrap (-> a (box a))) (q (-> (box a) prop)) (k (int)))
      (hyps (H (= k k)))
      (goals (G (pi a (forall (u a) (q (wrap u)))))))""")
    assert well_typed(T)
    assert typing_of(T, T.goals[0].formula)[0].iotas == (ident("a#1"),)
    E = T.extend_types(ident("a#1"), 0)
    assert well_typed(E)
    assert typing_of(E, E.goals[0].formula)[0].iotas == (ident("a#2"),)
    assert typing_of(E, E.hyps[0].formula) == typing_of(T, T.hyps[0].formula)


# random small tasks over one set of declarations, with the names an
# extension may declare: x and n are bound by premises, d occurs free
# undeclared, a and b are type prefix variables, a#1 and b#1 the iotas a
# typing renames them to, t is an undeclared type symbol, and k and elem
# are declared already
_EXT_TERMS = [ident(n) for n in ("x", "n", "d", "k")]
_EXT_TYPES = [ident(n) for n in ("a", "b", "a#1", "b#1", "t", "elem")]
_ELEM = TApp(ident("elem"), ())
_ext_ann = st.sampled_from([INT, _ELEM, TApp(ident("box"), (_ELEM,)),
                            TApp(ident("t"), ())])
_ext_int = st.one_of(st.sampled_from(_EXT_TERMS).map(Var),
                     st.builds(lambda: IntLit(0)))
_ext_any = st.one_of(_ext_int, st.sampled_from(["c", "u"]).map(var))
_ext_atom = st.one_of(
    _ext_int.map(lambda t: app(var("p"), t)),
    _ext_any.map(lambda t: app(var("q"), app(var("wrap"), t))),
    st.tuples(_ext_int, _ext_int).map(lambda t: eq(*t)),
    st.builds(Top),
)
_ext_formula = st.recursive(_ext_atom, lambda inner: st.one_of(
    inner.map(Not),
    st.tuples(st.sampled_from(["and", "or", "imp"]), inner, inner)
      .map(lambda t: BinOp(*t)),
    st.tuples(st.sampled_from(_EXT_TERMS[:3]), _ext_ann, inner)
      .map(lambda t: Forall(*t)),
    st.tuples(st.sampled_from(_EXT_TERMS[:3]), _ext_ann, inner)
      .map(lambda t: Exists(*t)),
), max_leaves=6)
_ext_premise = st.one_of(
    _ext_formula,
    st.tuples(st.sampled_from(_EXT_TYPES[:2]), _ext_formula).map(
        lambda t: PiType(t[0], Forall(ident("u"), TVar(t[0]), t[1]))),
)


@st.composite
def _ext_tasks(draw):
    hyps = draw(st.lists(_ext_premise, max_size=3))
    goals = draw(st.lists(_ext_premise, min_size=1, max_size=2))
    return Task(
        types=((ident("box"), 1), (ident("elem"), 0)),
        sig=((ident("p"), arrow(INT, PROP)),
             (ident("q"), arrow(TApp(ident("box"), (TVar(ident("a")),)), PROP)),
             (ident("wrap"), arrow(TVar(ident("a")),
                                   TApp(ident("box"), (TVar(ident("a")),)))),
             (ident("c"), _ELEM), (ident("k"), INT)),
        hyps=tuple(Premise(ident(f"H{i}"), f) for i, f in enumerate(hyps)),
        goals=tuple(Premise(ident(f"G{i}"), f) for i, f in enumerate(goals)))


def _spine(f):
    """f and every operand along its Not/BinOp spine."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        if isinstance(g, Not):
            todo.append(g.body)
        elif isinstance(g, BinOp):
            todo += (g.left, g.right)


@settings(max_examples=300, deadline=None)
@given(_ext_tasks(), st.sampled_from(["judged", "unjudged"]),
       st.one_of(st.tuples(st.just("sig"), st.sampled_from(_EXT_TERMS),
                           st.sampled_from([INT, _ELEM])),
                 st.tuples(st.just("types"), st.sampled_from(_EXT_TYPES),
                           st.integers(0, 1))))
def test_an_extension_judges_as_a_fresh_context(T, judged, extension):
    # the extended task starts from its parent's judgments; a fresh
    # context over the same declarations must reach the same verdict and
    # type every premise and operand the same way. Equal copies of the
    # declared types keep fresh from finding E's context
    if judged == "judged":
        well_typed(T)
    kind, name, decl = extension
    extend = T.extend_sig if kind == "sig" else T.extend_types
    try:
        E = extend(name, decl)
    except TaskError:
        with pytest.raises(TaskError):
            Task(T.types + ((name, decl),) if kind == "types" else T.types,
                 T.sig + ((name, decl),) if kind == "sig" else T.sig,
                 T.hyps, T.goals)
        return
    fresh = Task(E.types, tuple((n, copy.deepcopy(ty)) for n, ty in E.sig),
                 E.hyps, E.goals)
    assert typing_of(fresh, E.premises()[0].formula) is None
    assert well_typed(E) == well_typed(fresh)
    if well_typed(fresh):
        for p in E.premises():
            for g in _spine(p.formula):
                assert typing_of(E, g) == typing_of(fresh, g)


def test_a_derived_task_is_judged_on_what_its_edit_added():
    # H is ill-typed; a task derived before anything was judged still
    # judges what it keeps, and one that drops H no longer holds it
    H = Premise(ident("H"), Var(ident("x")))
    T = Task(sig=((ident("x"), INT), (ident("p"), PROP)), hyps=(H,),
             goals=(Premise(ident("G"), P),))
    kept = T.append(False, Premise(ident("K"), P))
    dropped = T.replace(False, 0, ())
    assert not well_typed(kept)
    assert well_typed(dropped)
    assert not well_typed(T)
    assert well_typed(dropped.append(True, Premise(ident("G2"), Not(P))))
    assert not well_typed(dropped.append(True, H))


def test_replaying_an_intro_does_not_grow_with_the_kept_premises(
        annotate_calls):
    # the opened goal is the one premise judged again under the new
    # declaration; the kept quantified hypotheses keep their judgments
    # (before, every replay typed each of them again)
    calls = annotate_calls["task"]

    def count(width):
        extra = " ".join(
            f"(W{j} (forall (z (int)) (imp (<= z {j}) (p (+ z 1)))))"
            for j in range(width))
        T = cli.parse_task(f"""(task (types (box 1) (elem 0))
          (sig (p (-> (int) prop)) (wrap (-> a (box a)))
               (q (-> (box a) prop)))
          (hyps (Hpoly (pi a (forall (x a) (q (wrap x))))) {extra})
          (goals (G (forall (n (int)) (p n)))))""")
        assert well_typed(T)
        calls.clear()
        L, s = tr.t_intro(T, ident("G"))
        k = elaborate(s, T)
        assert ccheck(k, T).ok
        return len(calls)

    assert count(4) == count(16)


def test_ccheck_of_an_elaborated_chain_types_nothing(annotate_calls):
    T = gen_chain_task(20)
    _, s = tr.t_blast(T)
    k = elaborate(s, T)
    annotate_calls.clear()
    assert ccheck(k, T).ok
    assert dict(annotate_calls) == {}


def test_well_typed_rejects_non_prop_premise():
    T = Task(sig=((ident("x"), INT),),
             goals=(Premise(ident("G"), Var(ident("x"))),))
    assert not well_typed(T)


def test_well_typed_judges_premises_against_prop():
    # choose : 'a is prop at the instance prop; typed alone it would be
    # ambiguous
    choose = Var(ident("choose"))
    sig = ((ident("choose"), TVar(ident("a"))),)
    for goal in (choose, conj(choose, Top()), Not(choose)):
        assert well_typed(Task(sig=sig, goals=(Premise(ident("G"), goal),)))
    f = ident("f")
    T = Task(sig=((f, arrow(TVar(ident("a")), TVar(ident("a")))),),
             goals=(Premise(ident("G"), app(Var(f), Var(f))),))
    assert not well_typed(T)


def test_judging_a_task_leaves_no_cyclic_garbage():
    # annotate's walker takes its state as an argument and all_idents
    # walks types in module functions: no closure refers to itself, so a
    # judgment frees what it built without the cycle collector (116
    # objects for this task while both were nested functions)
    T = sexpr.task_from_sexpr(sexpr.loads(_FOL_TASK))
    gc.collect()
    gc.disable()
    try:
        assert well_typed(T)
        assert gc.collect() == 0
    finally:
        gc.enable()


_DEEP_DECLARATIONS = """
import sys
sys.setrecursionlimit(40000)
from certforge.core import INT, PROP, arrow, eq, ident, var
from certforge.task import Premise, Task, task_alpha_equal

def task(*extra):
    deep = arrow(*[INT] * 30_000, PROP)
    return Task(sig=((ident("f"), deep), *extra),
                goals=(Premise(ident("G"), eq(var("f"), var("f"))),))

# equal declarations, then declarations that differ in an unused symbol
assert task_alpha_equal(task(), task())
assert task_alpha_equal(task(), task((ident("g"), INT)))
"""


def test_tasks_declaring_a_deep_type_compare_without_crashing():
    # the dataclass __eq__ recurses through C: comparing these two tasks
    # with it killed the interpreter (SIGSEGV) under the recursion limit
    # the CLI sets, and at depth 10 000 returned True
    src = Path(core.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _DEEP_DECLARATIONS],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_kernel_types_no_operand_of_a_judged_premise_again(annotate_calls):
    # each KIntroImp leaves an operand of a goal already judged prop as the
    # new goal; well_typed finds it recorded, so the annotate calls of a
    # replay do not grow with the chain (59 at n=20 and 119 at n=40 when
    # only whole premises were recorded)
    calls = annotate_calls["task"]

    def counts(n):
        calls.clear()
        T = gen_chain_task(n)
        _, s = tr.t_blast(T)
        k = elaborate(s, T)
        assert ccheck(k, T).ok
        built = len(calls)
        calls.clear()
        assert ccheck(cert_loads(cert_dumps(k)), gen_chain_task(n)).ok
        return built, len(calls)

    assert counts(20) == counts(40)


_OPERANDS = Task(
    sig=((ident("p"), PROP), (ident("q"), PROP), (ident("r"), PROP)),
    hyps=(Premise(ident("H"), imp(var("p"), var("q"))),
          Premise(ident("A"), conj(var("p"), var("r"))),
          Premise(ident("O"), disj(var("q"), var("r"))),
          Premise(ident("N"), Not(var("r")))),
    goals=(Premise(ident("G"), imp(var("r"), var("q"))),))


@pytest.mark.parametrize("apply", [
    lambda T: tr.t_split_imp(T, ident("H")),
    lambda T: tr.t_destruct(T, ident("A"), ident("A1"), ident("A2")),
    lambda T: tr.t_split(T, ident("O")),
    lambda T: tr.t_swap_neg(T, ident("N")),
], ids=["split_imp", "destruct", "split", "swap_neg"])
def test_a_loaded_certificate_types_no_operand_it_leaves(apply,
                                                        annotate_calls):
    # the loaded node carries its own copies of the operands; the rule
    # leaves the matched premise's, which the judged task has recorded
    T = _OPERANDS
    _, s = apply(T)
    loaded = cert_loads(cert_dumps(elaborate(s, T)))
    annotate_calls.clear()
    assert ccheck(loaded, T).ok
    assert dict(annotate_calls) == {}


def test_a_loaded_chain_is_matched_in_linear_time(monkeypatch):
    # KIntroImp leaves the node's own goal, the object the next node of a
    # loaded chain holds, so that node matches it by identity; the goal's
    # operand in the task would be walked in full at every node
    calls = []
    alpha = core._alpha

    def counting(*args):
        calls.append(None)
        return alpha(*args)

    monkeypatch.setattr(core, "_alpha", counting)

    def walked(n):
        T = gen_chain_task(n)
        _, s = tr.t_blast(T)
        loaded = cert_loads(cert_dumps(elaborate(s, T)))
        calls.clear()
        assert ccheck(loaded, T).ok
        return len(calls)

    assert walked(80) < 2.5 * walked(40)


@pytest.mark.parametrize("n", [20, 40])
def test_blast_elaborate_and_ccheck_type_the_chain_goal_once(
        n, annotate_calls):
    # elaborate judges its task before it steps, so the goal is typed whole
    # once and every operand a rule leaves as a goal is found recorded;
    # when only the children were judged, t_blast's first steps typed p1
    # and the goal's tail on their own before the goal (3 calls)
    T = gen_chain_task(n)
    _, s = tr.t_blast(T)
    k = elaborate(s, T)
    assert ccheck(k, T).ok
    assert dict(annotate_calls) == {"task": [T.goals[0].formula]}


_WRAPPED = """(task (types (box 1) (elem 0))
  (sig (wrap (-> a (box a))) (q (-> (box a) prop)) (e0 (elem))
       (choose a))
  (hyps (H (and (q (wrap e0)) (not (= (wrap e0) (wrap e0))))))
  (goals (G (imp choose (or (= e0 e0) (q (wrap (wrap e0))))))))"""


def test_an_ill_typed_task_is_refused_at_its_first_failing_premise():
    A = TVar(ident("a"))
    sig = ((ident("f"), arrow(A, A)), (ident("p"), PROP))
    ok = Task(sig=sig, goals=(Premise(ident("G"), var("p")),))
    ambiguous = ok.append(False, Premise(ident("H"), app(var("f"), var("f"))))
    not_prop = ambiguous.append(False, Premise(ident("K"), IntLit(3)))
    assert well_typed(ok)
    # the first task well_typed refuses, and in it the first premise
    assert ill_typed_reason([ok, not_prop, ambiguous]) == \
        "premise H: instance of f at [0] is ambiguous"
    assert ill_typed_reason([Task(sig=sig, hyps=not_prop.hyps[1:])]) == \
        "premise K has type (int), not prop"
    # or the signature's fault
    undeclared = Task(sig=((ident("e"), TApp(ident("set"), (A,))),))
    assert ill_typed_reason([undeclared]) == "undeclared type symbol set"


def test_typing_of_answers_only_for_what_the_context_judged(annotate_calls):
    T = cli.parse_task(_WRAPPED)
    H = T.hyps[0].formula
    assert typing_of(T, H)[1] == ()
    assert typing_of(T, H.right.body)[1] == (1, 0)
    # an equal copy built apart, a formula below an atom and a task never
    # judged
    wrapped = app(var("wrap"), var("e0"))
    copy = conj(app(var("q"), wrapped), Not(eq(wrapped, wrapped)))
    assert copy == H and copy is not H
    for f in (copy, H.left.arg):
        assert typing_of(T, f) is None
    # a task never judged, built with T's declarations while T lives,
    # starts from T's judgments: same declarations, same judgment
    fresh = Task(types=T.types, sig=T.sig, hyps=T.hyps)
    assert _same_answer(typing_of(fresh, H), typing_of(T, H))
    # one declaration more is another context, which judged nothing
    more = Task(types=T.types, sig=T.sig + ((ident("c"), PROP),),
                hyps=T.hyps)
    assert typing_of(more, H) is None
    # reading the text again while T is alive gives T's own formula under
    # T's declarations, so the new task starts from T's judgments too
    again = cli.parse_task(_WRAPPED)
    assert again.hyps[0].formula is H
    assert typing_of(T, again.hyps[0].formula)[1] == ()
    assert _same_answer(typing_of(again, H), typing_of(T, H))
    # answering reads the judgment: it types nothing
    assert dict(annotate_calls) == {"task": [H, T.goals[0].formula]}


def _same_answer(got, want):
    """typing_of gave both the same Typing object at the same path."""
    return got is not None and got[0] is want[0] and got[1] == want[1]


def _read(text):
    return sexpr.task_from_sexpr(sexpr.loads(text))


def test_a_task_read_again_while_the_first_lives_is_not_judged_again(
        annotate_calls, monkeypatch):
    T = _read(_WRAPPED)
    assert well_typed(T)
    annotate_calls.clear()
    # nor is its signature checked again
    checked = []
    monkeypatch.setattr(task_module, "check_signature",
                        lambda I, sig: checked.append(sig))
    again = _read(_WRAPPED)
    assert well_typed(again)
    assert dict(annotate_calls) == {} and checked == []
    for p, q in zip(T.premises(), again.premises()):
        assert typing_of(again, q.formula)[0] is typing_of(T, p.formula)[0]
    # so is a task a transformation derived, read back from its text
    L, _ = tr.t_destruct(T, ident("H"), ident("H1"), ident("H2"))
    annotate_calls.clear()
    for t in L:
        assert well_typed(_read(sexpr.to_text(t)))
    assert dict(annotate_calls) == {}


def test_a_task_read_again_after_the_first_died_is_judged_again(
        annotate_calls):
    T = _read(_WRAPPED)
    assert well_typed(T)
    # the formulas and declared types stay alive, so the re-read key is the
    # dropped task's: only the context's death makes it a miss
    kept = [p.formula for p in T.premises()], T.sig
    del T
    annotate_calls.clear()
    again = _read(_WRAPPED)
    assert all(p.formula is f for p, f in zip(again.premises(), kept[0]))
    assert well_typed(again)
    assert annotate_calls["task"] == kept[0]


def test_a_task_starts_from_live_judgments_only_for_the_same_declarations(
        annotate_calls):
    box, elem, x = ident("box"), ident("elem"), ident("x")
    types = ((box, 1), (elem, 0))
    sig = ((ident("q"), PROP), (x, PROP),
           (ident("p"), arrow(TVar(ident("a")), PROP)))
    goal = Premise(ident("G"), imp(var("q"), var("q")))
    T = Task(types=types, sig=sig, goals=(goal,))
    assert well_typed(T)
    variants = {
        "arity": (((box, 2), (elem, 0)), sig),
        "uid": (types, (sig[0], (ident("x#1"), PROP), sig[2])),
        "type": (types, (sig[0], (x, INT), sig[2])),
        "sig order": (types, (sig[1], sig[0], sig[2])),
        "types order": (types[::-1], sig),
    }
    # new tuples of the same declarations find T's judgments
    same = Task(types=tuple(list(types)), sig=tuple(list(sig)), goals=(goal,))
    assert _same_answer(typing_of(same, goal.formula),
                        typing_of(T, goal.formula))
    annotate_calls.clear()
    assert well_typed(same)
    for why, (ts, ss) in variants.items():
        U = Task(types=ts, sig=ss, goals=(goal,))
        assert typing_of(U, goal.formula) is None, why
        assert well_typed(U), why
    assert annotate_calls["task"] == [goal.formula] * len(variants)


def test_an_extension_is_found_only_under_its_own_declarations(
        annotate_calls):
    q, r = Premise(ident("G"), var("q")), Premise(ident("R"), var("r"))
    T = Task(sig=((ident("q"), PROP),), goals=(q,))
    assert well_typed(T)
    U = T.extend_sig(ident("r"), PROP)
    assert well_typed(U.append(False, r))
    # a task of U's declarations finds U's context; one of T's does not,
    # and r stays undeclared there
    annotate_calls.clear()
    assert typing_of(Task(types=U.types, sig=U.sig, hyps=(r,)),
                     r.formula) is not None
    assert typing_of(Task(types=T.types, sig=T.sig, hyps=(r,)),
                     r.formula) is None
    assert not well_typed(Task(types=T.types, sig=T.sig, hyps=(r,)))
    assert annotate_calls["task"] == [r.formula]


def test_a_task_never_judged_does_not_hide_a_judged_one(annotate_calls):
    # the table keeps the last context that began judging: tasks built and
    # dropped unjudged, as a loaded certificate's leaf tasks are, leave
    # T's judgments to be found
    T = _read(_WRAPPED)
    assert well_typed(T)
    for _ in range(2):
        Task(types=T.types, sig=T.sig, goals=T.goals)
    gc.collect()
    annotate_calls.clear()
    assert well_typed(_read(_WRAPPED))
    assert dict(annotate_calls) == {}


def test_a_task_takes_judgments_only_from_a_context_still_alive(
        annotate_calls):
    # a task built while T lives takes T's judgments when first asked; by
    # then T, and with it the context it would take them from, has died
    T = _read(_WRAPPED)
    assert well_typed(T)
    U = Task(types=T.types, sig=T.sig, hyps=T.hyps, goals=T.goals)
    del T
    gc.collect()
    annotate_calls.clear()
    assert typing_of(U, U.hyps[0].formula) is None
    assert well_typed(U)
    assert annotate_calls["task"] == [p.formula for p in U.premises()]


def test_the_context_table_lets_go_of_dead_contexts():
    # each task has declarations of its own and dies once judged; the
    # table keeps no more than twice its live entries past its floor
    for i in range(3 * task_module._SWEEP_FLOOR):
        assert well_typed(Task(sig=((ident(f"c{i}"), PROP),),
                               goals=(Premise(ident("G"), var(f"c{i}")),)))
    assert len(task_module._CONTEXTS) < 2 * task_module._SWEEP_FLOOR


def test_a_chain_of_readings_lets_each_earlier_context_go():
    # each reading is made while the one before lives, and finds its
    # judgments; it takes them, not the context, so that context dies with
    # the tasks holding it
    T = _read(_WRAPPED)
    assert well_typed(T)
    first = weakref.ref(T._ctx)
    for name in ("H1", "H2", "H3"):
        U = T.append(False, Premise(ident(name), T.goals[0].formula))
        V = _read(sexpr.to_text(U))
        assert typing_of(V, V.hyps[-1].formula) is not None
        assert well_typed(V)
        T = V
    del U, V
    gc.collect()
    assert first() is None


@pytest.mark.parametrize("formula, reason", [
    (var("e0"), "premise K has type (elem), not prop"),
    (app(var("e0"), var("e0")),
     "premise K: cannot unify (elem) with (-> (elem) ?1) in application"),
    (eq(var("choose"), var("choose")),
     "premise K: instance of = at [0, 0] is ambiguous"),
])
def test_an_ill_typed_premise_is_refused_beside_found_judgments(formula,
                                                                 reason):
    T = cli.parse_task(_WRAPPED)
    bad = Task(types=T.types, sig=T.sig,
               hyps=T.hyps + (Premise(ident("K"), formula),), goals=T.goals)
    H = T.hyps[0].formula
    assert _same_answer(typing_of(bad, H), typing_of(T, H))
    assert not well_typed(bad)
    assert ill_typed_reason([bad]) == reason
    # the refusal records nothing: it is refused every time
    assert not well_typed(bad)
    assert typing_of(T, formula) is None


def test_an_operand_is_read_at_the_instances_typing_it_alone_picks(
        annotate_calls):
    T = cli.parse_task(_WRAPPED)
    annotate_calls.clear()
    operands = []
    for p in T.premises():
        todo = [p.formula]
        while todo:
            g = todo.pop()
            operands.append(g)
            if isinstance(g, Not):
                todo.append(g.body)
            elif isinstance(g, BinOp):
                todo += (g.left, g.right)
    assert len(operands) == 9
    for g in operands:
        info, path = typing_of(T, g)
        at = {p[len(path):]: inst for p, inst in info.inst.items()
              if p[:len(path)] == path}
        alone = annotate(T.types_map(), T.sig_map(), g, PROP)
        assert at == alone.inst, g
    # choose is read at prop, e0 = e0 at elem, wrap (wrap e0) at box elem
    G = T.goals[0].formula
    assert typing_of(T, G.left)[0].inst[(0,)] == (PROP,)
    assert dict(annotate_calls) == {}


def _used_by_two_walks(T):
    """used_declarations as it was first written: free_vars of each
    premise, then a walk of its subterms for the binder annotations."""
    used, heads = set(), set()
    for p in T.premises():
        used |= free_vars(p.formula)
        for s in subterms(p.formula):
            if isinstance(s, (Lam, Exists, Forall)):
                heads |= type_heads(s.ty)
    ssyms = tuple(e for e in T.sig if e[0] in used)
    for _, scheme in ssyms:
        heads |= type_heads(scheme)
    return tuple(e for e in T.types if e[0] in heads), ssyms


def test_used_declarations_agrees_with_the_two_walk_definition():
    tasks = [gen_chain_task(n) for n in (1, 5, 12)]
    T = cli.parse_task(_FOL_TASK)
    for apply, feed in _fol_script():
        L, _ = apply(T)
        tasks += L
        T = L[feed]
    # a name bound, then used free after its binder closes, then bound
    # twice over itself
    x, elem = ident("x"), TApp(ident("elem"), ())
    box = TApp(ident("box"), (elem,))
    tasks.append(Task(
        types=((ident("box"), 1), (ident("elem"), 0), (ident("u"), 0)),
        sig=((x, INT), (ident("p"), arrow(TVar(ident("a")), PROP))),
        goals=(Premise(ident("G"), conj(
            Forall(x, elem, app(var("p"), Var(x))),
            conj(app(var("p"), Var(x)),
                 Exists(x, box, Forall(x, elem, Top()))))),)))
    for T in tasks:
        assert used_declarations(T) == _used_by_two_walks(T)
    assert len(tasks) == 15


def test_used_declarations_walks_a_deep_premise_without_recursion():
    x, elem = ident("x"), TApp(ident("elem"), ())
    f = app(var("r"), var("y"))
    for _ in range(10_000):
        f = Forall(x, elem, conj(app(var("q"), Var(x)), Not(f)))
    elem_q = arrow(elem, PROP)
    box_elem = TApp(ident("box"), (elem,))
    T = Task(types=((ident("unused"), 0), (ident("box"), 1),
                    (ident("elem"), 0)),
             sig=((ident("q"), elem_q), (ident("z"), INT),
                  (ident("r"), arrow(box_elem, PROP)), (ident("y"), box_elem),
                  (x, INT)),
             hyps=(Premise(ident("H"), f),))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = used_declarations(T)
    except RecursionError:
        got = "RecursionError"
    finally:
        sys.setrecursionlimit(old)
    assert got == (((ident("box"), 1), (ident("elem"), 0)),
                   ((ident("q"), elem_q), (ident("r"), arrow(box_elem, PROP)),
                    (ident("y"), box_elem)))


def test_well_typed_rejects_unbound():
    T = Task(goals=(Premise(ident("G"), Var(ident("nope"))),))
    assert not well_typed(T)


def test_well_typed_checks_the_signature_against_the_declared_types():
    # typing the goal renames its prenex a to a fresh type name, a#1; that
    # name is local to the goal and does not declare a#1 for the signature
    a1 = TApp(Ident("a", 1), ())
    goal = PiType(ident("a"), Forall(ident("x"), TVar(ident("a")), Top()))
    T = Task(sig=((ident("z"), a1),), goals=(Premise(ident("G"), goal),))
    assert not well_typed(T)
    rep = ccheck(KHole(T), T)
    assert not rep.ok
    assert "not well-typed" in rep.failure.message


# ---------------------------------------------------------------------------
# The truth-table oracle of tests/oracles.py, frozen against hand-checked rows

HAND_TABLE = [
    # (hyps, goals, expected)
    ([], [disj(P, Not(P))], True),
    ([], [P], False),
    ([conj(P, Q)], [P], True),
    ([disj(P, Q)], [P], False),
    ([imp(P, Q), P], [Q], True),
    ([disj(P, Q)], [P, Q], True),  # goals read disjunctively
    ([P], [], False),
    ([conj(P, Not(P))], [], True),  # unsatisfiable hypotheses
    ([], [iff(iff(P, Q), iff(Q, P))], True),
    ([Bottom()], [Q], True),
    ([], [Top()], True),
    ([Not(Not(P))], [P], True),
    ([imp(P, Q)], [imp(Q, P)], False),
]


@pytest.mark.parametrize("hyps,goals,expected", HAND_TABLE,
                         ids=[f"row{k}" for k in range(len(HAND_TABLE))])
def test_oracle_hand_table(hyps, goals, expected):
    assert brute_force_valid(list(hyps), list(goals)) is expected


_atoms4 = st.sampled_from([P, Q, R, S])
_prop_leaf = st.one_of(st.sampled_from([Top(), Bottom()]), _atoms4)
_prop_terms = st.recursive(
    _prop_leaf,
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(st.sampled_from(["and", "or", "imp", "iff"]), inner, inner)
          .map(lambda t: BinOp(*t))),
    max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(st.lists(_prop_terms, max_size=2), st.lists(_prop_terms, min_size=1, max_size=2),
       _prop_terms)
def test_oracle_weakening_monotone(hyps, goals, extra):
    if brute_force_valid(hyps, goals):
        assert brute_force_valid(hyps + [extra], goals) is True
        assert brute_force_valid(hyps, goals + [extra]) is True


# ---------------------------------------------------------------------------
# Chain family


def test_chain_task_shape():
    T1 = gen_chain_task(1)
    assert len(T1.goals) == 1 and not T1.hyps
    assert T1.goals[0].formula == imp(var("p1"), var("p1"))
    T3 = gen_chain_task(3)
    want = imp(var("p1"),
               imp(var("p1"), var("p2")),
               imp(var("p2"), var("p3")),
               var("p3"))
    assert T3.goals[0].formula == want


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_chain_task_valid_and_typed(n):
    T = gen_chain_task(n)
    assert well_typed(T)
    assert brute_force_valid([], [T.goals[0].formula]) is True


def test_chain_task_rejects_bad_n():
    with pytest.raises(ValueError):
        gen_chain_task(0)


# ---------------------------------------------------------------------------
# Task alpha-equality


def test_task_alpha_equal_basic():
    T = mk_task(["p", "q"], hyps=[conj(P, Q)], goals=[P])
    same = mk_task(["p", "q"], hyps=[conj(P, Q)], goals=[P])
    assert task_alpha_equal(T, same)
    assert not task_alpha_equal(T, mk_task(["p", "q"], hyps=[conj(Q, P)], goals=[P]))
    renamed_premise = Task(
        sig=T.sig, hyps=(Premise(ident("other"), conj(P, Q)),), goals=T.goals)
    assert not task_alpha_equal(T, renamed_premise)


def test_task_alpha_equal_on_equal_declarations():
    # equal types and sig tuples, premises alpha-equal but distinct objects;
    # the reversed signature takes the comparison of used declarations
    s = TApp(ident("s"), ())
    types = ((ident("s"), 0),)
    sig = ((ident("p"), arrow(s, PROP)), (ident("q"), PROP))

    def task(x, goal, sig=sig):
        hyp = Forall(ident(x), s, app(var("p"), var(x)))
        return Task(types, sig, (Premise(ident("H"), hyp),),
                    (Premise(ident("G"), goal),))

    T = task("x", var("q"))
    for decls in (sig, sig[::-1]):
        assert task_alpha_equal(T, task("y", var("q"), decls))
        assert not task_alpha_equal(T, task("y", Not(var("q")), decls))


def test_task_alpha_equal_ignores_premise_order():
    T1 = mk_task(["p", "q"], hyps=[P, Q])
    T2 = Task(sig=T1.sig, hyps=(T1.hyps[1], T1.hyps[0]))
    assert task_alpha_equal(T1, T2)


def test_task_alpha_equal_ignores_unused_declarations():
    T1 = mk_task(["p"], goals=[P])
    T2 = Task(sig=T1.sig + ((ident("unused"), INT),),
              types=((ident("junk"), 0),),
              goals=T1.goals)
    assert task_alpha_equal(T1, T2)
    # but a used symbol must be declared the same way
    T3 = Task(sig=((ident("p"), INT),), goals=(Premise(ident("G1"), P),))
    assert not task_alpha_equal(T1, T3)


def test_task_alpha_equal_formulas_up_to_alpha():
    x, y = ident("x"), ident("y")
    f1 = Forall(x, INT, eq(Var(x), Var(x)))
    f2 = Forall(y, INT, eq(Var(y), Var(y)))
    T1 = Task(goals=(Premise(ident("G"), f1),))
    T2 = Task(goals=(Premise(ident("G"), f2),))
    assert task_alpha_equal(T1, T2)


def test_task_alpha_equal_scheme_renaming():
    a, b = TVar(ident("a")), TVar(ident("b"))
    T1 = Task(types=((ident("set"), 1),),
              sig=((ident("empty"), TApp(ident("set"), (a,))),
                   (ident("p"), PROP)),
              goals=(Premise(ident("G"), eq(var("empty"), var("empty"))),))
    T2 = Task(types=((ident("set"), 1),),
              sig=((ident("empty"), TApp(ident("set"), (b,))),),
              goals=(Premise(ident("G"), eq(var("empty"), var("empty"))),))
    assert task_alpha_equal(T1, T2)


def test_task_list_alpha_equal_is_ordered():
    T1 = mk_task(["p"], goals=[P])
    T2 = mk_task(["p"], hyps=[P])
    assert task_list_alpha_equal([T1, T2], [T1, T2])
    assert not task_list_alpha_equal([T1, T2], [T2, T1])
    assert not task_list_alpha_equal([T1], [T1, T1])
