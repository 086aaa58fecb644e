"""Kernel and surface certificate trees.

Kernel certificates spell out every formula they touch and are what the
checker replays. Surface certificates are the terse form transformations
produce: premise names only, no carried tasks except none at all (SHole is
bare). Elaboration turns the latter into the former by replaying the
certificate against the initial task and reading the payloads off it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from . import sexpr
from .core import (
    INT,
    App,
    BinOp,
    Bottom,
    Exists,
    Forall,
    Ident,
    IntLit,
    Lam,
    Not,
    PiType,
    Term,
    Top,
    Type,
    TypingError,
    Var,
    all_idents,
    alpha_equal,
    conj,
    disj,
    eq,
    free_vars,
    fresh_ident,
    ident,
    subst_term,
    typecheck,
)
from .task import Task


class CertError(Exception):
    pass


# ---------------------------------------------------------------------------
# Kernel certificates


class KernelCert:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class KHole(KernelCert):
    task: Task


@dataclass(frozen=True, slots=True)
class KTrivial(KernelCert):
    goal: bool
    name: Ident


@dataclass(frozen=True, slots=True)
class KAxiom(KernelCert):
    formula: Term
    hyp: Ident
    goal: Ident


@dataclass(frozen=True, slots=True)
class KAssert(KernelCert):
    name: Ident
    formula: Term
    proof: KernelCert  # goal branch: ... |- Delta, name: formula
    rest: KernelCert   # hypothesis branch: ..., name: formula |- Delta


@dataclass(frozen=True, slots=True)
class KSplit(KernelCert):
    goal: bool
    left: Term
    right: Term
    name: Ident
    first: KernelCert
    second: KernelCert


@dataclass(frozen=True, slots=True)
class KDestruct(KernelCert):
    goal: bool
    left: Term
    right: Term
    name: Ident
    left_name: Ident
    right_name: Ident
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KClear(KernelCert):
    goal: bool
    formula: Term
    name: Ident
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KSwapNeg(KernelCert):
    # premise `name` on the given side reads "not formula"; it moves to the
    # other side as `formula` under the same name
    goal: bool
    formula: Term
    name: Ident
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KIntroImp(KernelCert):
    left: Term
    right: Term
    name: Ident      # goal left => right
    hyp_name: Ident  # receives left as a new hypothesis
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KSplitImp(KernelCert):
    left: Term
    right: Term
    name: Ident       # hypothesis left => right, dropped in the side branch
    goal_name: Ident  # new goal carrying left in the side branch
    side: KernelCert
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KUnfoldIff(KernelCert):
    goal: bool
    left: Term
    right: Term
    name: Ident
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KRevert(KernelCert):
    hyp_formula: Term
    goal_formula: Term
    hyp: Ident
    goal: Ident
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KIntroQuant(KernelCert):
    goal: bool
    ty: Type
    pred: Term  # the body as a lambda
    name: Ident
    fresh: Ident
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KInstQuant(KernelCert):
    goal: bool
    ty: Type
    pred: Term
    name: Ident
    inst_name: Ident
    witness: Term
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KIntroType(KernelCert):
    formula: Term  # the full Pi formula
    name: Ident
    iota: Ident
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KInstType(KernelCert):
    formula: Term
    name: Ident
    inst_name: Ident
    ty: Type
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KEqRefl(KernelCert):
    term: Term
    name: Ident


@dataclass(frozen=True, slots=True)
class KRewrite(KernelCert):
    goal: bool
    left: Term
    right: Term
    context: Term  # lambda; target premise reads context[left]
    name: Ident
    eq_name: Ident
    rest: KernelCert


@dataclass(frozen=True, slots=True)
class KInduction(KernelCert):
    var: Ident
    bound: Term
    context: Term  # lambda over int; the goal reads context[var]
    goal_name: Ident
    hyp_name: Ident
    rec_name: Ident
    base: KernelCert
    rec: KernelCert


# ---------------------------------------------------------------------------
# Surface certificates


class SurfaceCert:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class SHole(SurfaceCert):
    pass


@dataclass(frozen=True, slots=True)
class STrivial(SurfaceCert):
    name: Ident


@dataclass(frozen=True, slots=True)
class SAxiom(SurfaceCert):
    hyp: Ident
    goal: Ident


@dataclass(frozen=True, slots=True)
class SAssert(SurfaceCert):
    name: Ident
    formula: Term
    proof: SurfaceCert
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SSplit(SurfaceCert):
    name: Ident
    first: SurfaceCert
    second: SurfaceCert


@dataclass(frozen=True, slots=True)
class SDestruct(SurfaceCert):
    name: Ident
    left_name: Ident
    right_name: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SConstruct(SurfaceCert):
    left_name: Ident
    right_name: Ident
    name: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SClear(SurfaceCert):
    name: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SSwapNeg(SurfaceCert):
    name: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SIntroImp(SurfaceCert):
    name: Ident
    hyp_name: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SSplitImp(SurfaceCert):
    name: Ident
    goal_name: Ident
    side: SurfaceCert
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SUnfoldIff(SurfaceCert):
    name: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SRevert(SurfaceCert):
    hyp: Ident
    goal: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SIntroQuant(SurfaceCert):
    name: Ident
    fresh: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SInstQuant(SurfaceCert):
    name: Ident
    inst_name: Ident
    witness: Term
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SIntroType(SurfaceCert):
    name: Ident
    iota: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SInstType(SurfaceCert):
    name: Ident
    inst_name: Ident
    ty: Type
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SEqRefl(SurfaceCert):
    name: Ident


@dataclass(frozen=True, slots=True)
class SEqSym(SurfaceCert):
    name: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SEqTrans(SurfaceCert):
    first: Ident
    second: Ident
    name: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SRewrite(SurfaceCert):
    right_to_left: bool
    eq_name: Ident
    name: Ident
    rest: SurfaceCert


@dataclass(frozen=True, slots=True)
class SInduction(SurfaceCert):
    var: Ident
    bound: Term
    hyp_name: Ident
    rec_name: Ident
    base: SurfaceCert
    rec: SurfaceCert


# ---------------------------------------------------------------------------
# Tree plumbing


def _child_fields(node) -> list[str]:
    base = KernelCert if isinstance(node, KernelCert) else SurfaceCert
    return [f.name for f in dataclasses.fields(node)
            if isinstance(getattr(node, f.name), base)]


def cert_children(node):
    return tuple(getattr(node, n) for n in _child_fields(node))


def _with_children(node, new):
    names = _child_fields(node)
    assert len(names) == len(new)
    return dataclasses.replace(node, **dict(zip(names, new)))


def leaves(c: KernelCert) -> list[Task]:
    """Tasks stored at KHole nodes, left to right."""
    if isinstance(c, KHole):
        return [c.task]
    out: list[Task] = []
    for child in cert_children(c):
        out.extend(leaves(child))
    return out


def count_holes(s: SurfaceCert) -> int:
    if isinstance(s, SHole):
        return 1
    return sum(count_holes(k) for k in cert_children(s))


def fill_holes(s: SurfaceCert, fillers) -> SurfaceCert:
    """Replace the i-th SHole (in-order) by fillers[i]."""
    fillers = list(fillers)
    if count_holes(s) != len(fillers):
        raise CertError(
            f"certificate has {count_holes(s)} holes, got {len(fillers)} fillers")
    it = iter(fillers)

    def rec(node):
        if isinstance(node, SHole):
            return next(it)
        kids = cert_children(node)
        return _with_children(node, tuple(rec(k) for k in kids))

    return rec(s)


# ---------------------------------------------------------------------------
# Serialization

_KERNEL_CLASSES = [
    KHole, KTrivial, KAxiom, KAssert, KSplit, KDestruct, KClear, KSwapNeg,
    KIntroImp, KSplitImp, KUnfoldIff, KRevert, KIntroQuant, KInstQuant,
    KIntroType, KInstType, KEqRefl, KRewrite, KInduction,
]
_SURFACE_CLASSES = [
    SHole, STrivial, SAxiom, SAssert, SSplit, SDestruct, SConstruct, SClear,
    SSwapNeg, SIntroImp, SSplitImp, SUnfoldIff, SRevert, SIntroQuant,
    SInstQuant, SIntroType, SInstType, SEqRefl, SEqSym, SEqTrans, SRewrite,
    SInduction,
]
_BY_NAME = {cls.__name__: cls for cls in _KERNEL_CLASSES + _SURFACE_CLASSES}


def _encode_field(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, Ident):
        return str(v)
    if isinstance(v, Term):
        return sexpr.term_to_sexpr(v)
    if isinstance(v, Type):
        return sexpr.type_to_sexpr(v)
    if isinstance(v, Task):
        return sexpr.task_to_sexpr(v)
    if isinstance(v, (KernelCert, SurfaceCert)):
        return cert_to_sexpr(v)
    raise CertError(f"cannot serialize payload {v!r}")


def cert_to_sexpr(c):
    if isinstance(c, SHole):
        return "SHole"
    name = type(c).__name__
    return [name] + [_encode_field(getattr(c, f.name))
                     for f in dataclasses.fields(c)]


def _decode_field(form, kind: type):
    if kind is bool:
        if not isinstance(form, bool):
            raise CertError(f"expected #t/#f, got {form!r}")
        return form
    if kind is Ident:
        if not isinstance(form, str):
            raise CertError(f"expected an identifier, got {form!r}")
        return ident(form)
    if kind is Term:
        return sexpr.term_from_sexpr(form)
    if kind is Type:
        return sexpr.type_from_sexpr(form)
    if kind is Task:
        return sexpr.task_from_sexpr(form)
    if kind in (KernelCert, SurfaceCert):
        return cert_from_sexpr(form)
    raise CertError(f"unhandled payload kind {kind!r}")


# field annotations name the payload kinds; this is the wire schema
_KINDS = {"bool": bool, "Ident": Ident, "Term": Term, "Type": Type,
          "Task": Task, "KernelCert": KernelCert, "SurfaceCert": SurfaceCert}


def cert_from_sexpr(form):
    if form == "SHole":
        return SHole()
    if not (isinstance(form, list) and form and isinstance(form[0], str)):
        raise CertError(f"bad certificate syntax {form!r}")
    cls = _BY_NAME.get(form[0])
    if cls is None:
        raise CertError(f"unknown certificate constructor {form[0]}")
    fields = dataclasses.fields(cls)
    if len(form) != len(fields) + 1:
        raise CertError(
            f"{form[0]} takes {len(fields)} payloads, got {len(form) - 1}")
    args = [_decode_field(f, _KINDS[fld.type])
            for f, fld in zip(form[1:], fields)]
    return cls(*args)


def cert_dumps(c) -> str:
    return sexpr.dumps(cert_to_sexpr(c))


def cert_loads(text: str):
    return cert_from_sexpr(sexpr.loads(text))


# ---------------------------------------------------------------------------
# Elaboration

_OPNAME = {"and": "a conjunction", "or": "a disjunction",
           "imp": "an implication", "iff": "an equivalence"}


def _steps(T: Task, node: KernelCert) -> list[Task]:
    """Run one kernel step during elaboration; CertError on rule violation."""
    from . import checker

    try:
        return checker.step(T, node, ())
    except checker.CheckError as e:
        raise CertError(e.failure.message) from e


def _premise(T: Task, name: Ident, want_goal: bool | None = None):
    found = T.find(name)
    if found is None:
        raise CertError(f"no premise named {name}")
    is_goal, _, prem = found
    if want_goal is not None and is_goal != want_goal:
        raise CertError(f"premise {name} is not a "
                        f"{'goal' if want_goal else 'hypothesis'}")
    return is_goal, prem


def _shaped(prem, want: str, who: str) -> BinOp:
    f = prem.formula
    if isinstance(f, PiType):
        # the guard behind the destruct bug: connective-level certificates
        # must not look through a type quantifier
        raise CertError(f"{who}: premise {prem.name} is type-quantified; "
                        "introduce or instantiate the type first")
    if not (isinstance(f, BinOp) and f.op == want):
        raise CertError(f"{who}: premise {prem.name} is not {_OPNAME[want]}")
    return f


def _eq_parts(prem, who: str) -> tuple[Term, Term]:
    f = prem.formula
    if (isinstance(f, App) and isinstance(f.fn, App)
            and isinstance(f.fn.fn, Var) and str(f.fn.fn.name) == "="):
        return f.fn.arg, f.arg
    raise CertError(f"{who}: premise {prem.name} is not an equality")


def _fresh_premise(T: Task, base: str) -> Ident:
    return fresh_ident(base, T.premise_names())


def _term_type(T: Task, t: Term) -> Type:
    try:
        return typecheck(T.types_map(), T.sig_map(), t)
    except TypingError as e:
        raise CertError(str(e)) from e


def _abstract(T: Task, formula: Term, needle: Term) -> Term:
    """The rewriting context: formula with every free occurrence of needle
    abstracted into a fresh bound variable."""
    needed = free_vars(needle)
    z = fresh_ident("z", all_idents(formula) | all_idents(needle))
    count = 0

    def walk(t: Term, blocked: frozenset[Ident]) -> Term:
        nonlocal count
        if not (needed & blocked) and alpha_equal(t, needle):
            count += 1
            return Var(z)
        if isinstance(t, (Var, Top, Bottom, IntLit)):
            return t
        if isinstance(t, Not):
            return Not(walk(t.body, blocked))
        if isinstance(t, BinOp):
            return BinOp(t.op, walk(t.left, blocked), walk(t.right, blocked))
        if isinstance(t, App):
            return App(walk(t.fn, blocked), walk(t.arg, blocked))
        if isinstance(t, (Lam, Exists, Forall)):
            return type(t)(t.var, t.ty, walk(t.body, blocked | {t.var}))
        if isinstance(t, PiType):
            return PiType(t.var, walk(t.body, blocked))
        raise CertError(f"cannot rewrite inside {t!r}")

    body = walk(formula, frozenset())
    if count == 0:
        raise CertError("no occurrence of the equation side in the premise")
    return Lam(z, _term_type(T, needle), body)


def elaborate(s: SurfaceCert, T: Task) -> KernelCert:
    """Replay s against T, filling in the formulas each rule touches.

    T must be well-typed. Raises CertError when a premise is missing, has
    the wrong shape for the certificate applied to it, or a side condition
    fails; the resulting kernel certificate passes ccheck against T.
    """
    if isinstance(s, SHole):
        return KHole(T)

    if isinstance(s, STrivial):
        is_goal, _ = _premise(T, s.name)
        node = KTrivial(is_goal, s.name)
        _steps(T, node)
        return node

    if isinstance(s, SAxiom):
        _, hyp = _premise(T, s.hyp, want_goal=False)
        node = KAxiom(hyp.formula, s.hyp, s.goal)
        _steps(T, node)
        return node

    if isinstance(s, SEqRefl):
        _, goal = _premise(T, s.name, want_goal=True)
        a, _b = _eq_parts(goal, "SEqRefl")
        node = KEqRefl(a, s.name)
        _steps(T, node)
        return node

    if isinstance(s, SAssert):
        node = KAssert(s.name, s.formula, KHole(T), KHole(T))
        t1, t2 = _steps(T, node)
        return dataclasses.replace(node, proof=elaborate(s.proof, t1),
                                   rest=elaborate(s.rest, t2))

    if isinstance(s, SSplit):
        is_goal, prem = _premise(T, s.name)
        f = _shaped(prem, "and" if is_goal else "or", "SSplit")
        node = KSplit(is_goal, f.left, f.right, s.name, KHole(T), KHole(T))
        t1, t2 = _steps(T, node)
        return dataclasses.replace(node, first=elaborate(s.first, t1),
                                   second=elaborate(s.second, t2))

    if isinstance(s, SDestruct):
        is_goal, prem = _premise(T, s.name)
        f = _shaped(prem, "or" if is_goal else "and", "SDestruct")
        node = KDestruct(is_goal, f.left, f.right, s.name,
                         s.left_name, s.right_name, KHole(T))
        (t1,) = _steps(T, node)
        return dataclasses.replace(node, rest=elaborate(s.rest, t1))

    if isinstance(s, SClear):
        is_goal, prem = _premise(T, s.name)
        node = KClear(is_goal, prem.formula, s.name, KHole(T))
        (t1,) = _steps(T, node)
        return dataclasses.replace(node, rest=elaborate(s.rest, t1))

    if isinstance(s, SSwapNeg):
        is_goal, prem = _premise(T, s.name)
        f = prem.formula
        if not isinstance(f, Not):
            raise CertError(f"SSwapNeg: premise {s.name} is not a negation")
        node = KSwapNeg(is_goal, f.body, s.name, KHole(T))
        (t1,) = _steps(T, node)
        return dataclasses.replace(node, rest=elaborate(s.rest, t1))

    if isinstance(s, SIntroImp):
        _, prem = _premise(T, s.name, want_goal=True)
        f = _shaped(prem, "imp", "SIntroImp")
        node = KIntroImp(f.left, f.right, s.name, s.hyp_name, KHole(T))
        (t1,) = _steps(T, node)
        return dataclasses.replace(node, rest=elaborate(s.rest, t1))

    if isinstance(s, SSplitImp):
        _, prem = _premise(T, s.name, want_goal=False)
        f = _shaped(prem, "imp", "SSplitImp")
        node = KSplitImp(f.left, f.right, s.name, s.goal_name,
                         KHole(T), KHole(T))
        t1, t2 = _steps(T, node)
        return dataclasses.replace(node, side=elaborate(s.side, t1),
                                   rest=elaborate(s.rest, t2))

    if isinstance(s, SUnfoldIff):
        is_goal, prem = _premise(T, s.name)
        f = _shaped(prem, "iff", "SUnfoldIff")
        node = KUnfoldIff(is_goal, f.left, f.right, s.name, KHole(T))
        (t1,) = _steps(T, node)
        return dataclasses.replace(node, rest=elaborate(s.rest, t1))

    if isinstance(s, SRevert):
        _, hyp = _premise(T, s.hyp, want_goal=False)
        _, goal = _premise(T, s.goal, want_goal=True)
        node = KRevert(hyp.formula, goal.formula, s.hyp, s.goal, KHole(T))
        (t1,) = _steps(T, node)
        return dataclasses.replace(node, rest=elaborate(s.rest, t1))

    if isinstance(s, SIntroQuant):
        is_goal, prem = _premise(T, s.name)
        f = prem.formula
        want = Forall if is_goal else Exists
        if isinstance(f, PiType):
            raise CertError(f"SIntroQuant: premise {s.name} is "
                            "type-quantified; use SIntroType")
        if not isinstance(f, want):
            raise CertError(f"SIntroQuant: premise {s.name} is not "
                            f"{'universal' if is_goal else 'existential'}")
        pred = Lam(f.var, f.ty, f.body)
        node = KIntroQuant(is_goal, f.ty, pred, s.name, s.fresh, KHole(T))
        (t1,) = _steps(T, node)
        return dataclasses.replace(node, rest=elaborate(s.rest, t1))

    if isinstance(s, SInstQuant):
        is_goal, prem = _premise(T, s.name)
        f = prem.formula
        want = Exists if is_goal else Forall
        if isinstance(f, PiType):
            raise CertError(f"SInstQuant: premise {s.name} is "
                            "type-quantified; use SInstType")
        if not isinstance(f, want):
            raise CertError(f"SInstQuant: premise {s.name} is not "
                            f"{'existential' if is_goal else 'universal'}")
        pred = Lam(f.var, f.ty, f.body)
        node = KInstQuant(is_goal, f.ty, pred, s.name, s.inst_name,
                          s.witness, KHole(T))
        (t1,) = _steps(T, node)
        return dataclasses.replace(node, rest=elaborate(s.rest, t1))

    if isinstance(s, SIntroType):
        _, prem = _premise(T, s.name, want_goal=True)
        if not isinstance(prem.formula, PiType):
            raise CertError(f"SIntroType: premise {s.name} is not "
                            "type-quantified")
        node = KIntroType(prem.formula, s.name, s.iota, KHole(T))
        (t1,) = _steps(T, node)
        return dataclasses.replace(node, rest=elaborate(s.rest, t1))

    if isinstance(s, SInstType):
        _, prem = _premise(T, s.name, want_goal=False)
        if not isinstance(prem.formula, PiType):
            raise CertError(f"SInstType: premise {s.name} is not "
                            "type-quantified")
        node = KInstType(prem.formula, s.name, s.inst_name, s.ty, KHole(T))
        (t1,) = _steps(T, node)
        return dataclasses.replace(node, rest=elaborate(s.rest, t1))

    if isinstance(s, SConstruct):
        return _elab_construct(s, T)
    if isinstance(s, SEqSym):
        return _elab_eq_sym(s, T)
    if isinstance(s, SEqTrans):
        return _elab_eq_trans(s, T)
    if isinstance(s, SRewrite):
        return _elab_rewrite(s, T)
    if isinstance(s, SInduction):
        return _elab_induction(s, T)

    raise CertError(f"unknown surface certificate {s!r}")


def _elab_construct(s: SConstruct, T: Task) -> KernelCert:
    g1, p1 = _premise(T, s.left_name)
    g2, p2 = _premise(T, s.right_name)
    if g1 != g2:
        raise CertError("SConstruct: premises are on different sides")
    t1, t2 = p1.formula, p2.formula
    merged = disj(t1, t2) if g1 else conj(t1, t2)
    shell = KAssert(s.name, merged, KHole(T), KHole(T))
    t_goal, t_hyp = _steps(T, shell)

    if g1:
        # the merged disjunction closes against the two original goals
        sp = KSplit(False, t1, t2, s.name, KHole(T), KHole(T))
        tx, ty = _steps(t_hyp, sp)
        ax1 = KAxiom(t1, s.name, s.left_name)
        _steps(tx, ax1)
        ax2 = KAxiom(t2, s.name, s.right_name)
        _steps(ty, ax2)
        closing = dataclasses.replace(sp, first=ax1, second=ax2)
        cl1 = KClear(True, t1, s.left_name, KHole(T))
        (ta,) = _steps(t_goal, cl1)
        cl2 = KClear(True, t2, s.right_name, KHole(T))
        (tb,) = _steps(ta, cl2)
        child = elaborate(s.rest, tb)
        continuing = dataclasses.replace(
            cl1, rest=dataclasses.replace(cl2, rest=child))
        return dataclasses.replace(shell, proof=continuing, rest=closing)

    # hypothesis side: the merged conjunction is proved from the originals
    sp = KSplit(True, t1, t2, s.name, KHole(T), KHole(T))
    tx, ty = _steps(t_goal, sp)
    ax1 = KAxiom(t1, s.left_name, s.name)
    _steps(tx, ax1)
    ax2 = KAxiom(t2, s.right_name, s.name)
    _steps(ty, ax2)
    closing = dataclasses.replace(sp, first=ax1, second=ax2)
    cl1 = KClear(False, t1, s.left_name, KHole(T))
    (ta,) = _steps(t_hyp, cl1)
    cl2 = KClear(False, t2, s.right_name, KHole(T))
    (tb,) = _steps(ta, cl2)
    child = elaborate(s.rest, tb)
    continuing = dataclasses.replace(
        cl1, rest=dataclasses.replace(cl2, rest=child))
    return dataclasses.replace(shell, proof=closing, rest=continuing)


def _elab_eq_sym(s: SEqSym, T: Task) -> KernelCert:
    is_goal, prem = _premise(T, s.name)
    a, b = _eq_parts(prem, "SEqSym")
    orig, flip = eq(a, b), eq(b, a)
    ty = _term_type(T, a)
    tmp = _fresh_premise(T, f"{s.name.name}_sym")
    shell = KAssert(tmp, flip, KHole(T), KHole(T))
    t_goal, t_hyp = _steps(T, shell)

    if not is_goal:
        # prove b = a from a = b, then rename it into the old premise
        z = fresh_ident("z", all_idents(b))
        rw = KRewrite(True, a, b, Lam(z, ty, eq(b, Var(z))), tmp, s.name,
                      KHole(T))
        (t_rw,) = _steps(t_goal, rw)
        refl = KEqRefl(b, tmp)
        _steps(t_rw, refl)
        proof = dataclasses.replace(rw, rest=refl)

        cl1 = KClear(False, orig, s.name, KHole(T))
        (ta,) = _steps(t_hyp, cl1)
        ren = KAssert(s.name, flip, KHole(T), KHole(T))
        tb1, tb2 = _steps(ta, ren)
        ax = KAxiom(flip, tmp, s.name)
        _steps(tb1, ax)
        cl2 = KClear(False, flip, tmp, KHole(T))
        (tc,) = _steps(tb2, cl2)
        child = elaborate(s.rest, tc)
        rest = dataclasses.replace(cl1, rest=dataclasses.replace(
            ren, proof=ax, rest=dataclasses.replace(cl2, rest=child)))
        return dataclasses.replace(shell, proof=proof, rest=rest)

    # goal premise: the continuation lives in the assertion's goal branch
    cl1 = KClear(True, orig, s.name, KHole(T))
    (ta,) = _steps(t_goal, cl1)
    ren = KAssert(s.name, flip, KHole(T), KHole(T))
    tb1, tb2 = _steps(ta, ren)
    cl2 = KClear(True, flip, tmp, KHole(T))
    (tc,) = _steps(tb1, cl2)
    ax = KAxiom(flip, s.name, tmp)
    _steps(tb2, ax)
    child = elaborate(s.rest, tc)
    proof = dataclasses.replace(cl1, rest=dataclasses.replace(
        ren, proof=dataclasses.replace(cl2, rest=child), rest=ax))

    z = fresh_ident("z", all_idents(a))
    rw = KRewrite(True, b, a, Lam(z, ty, eq(a, Var(z))), s.name, tmp,
                  KHole(T))
    (t_rw,) = _steps(t_hyp, rw)
    refl = KEqRefl(a, s.name)
    _steps(t_rw, refl)
    rest = dataclasses.replace(rw, rest=refl)
    return dataclasses.replace(shell, proof=proof, rest=rest)


def _elab_eq_trans(s: SEqTrans, T: Task) -> KernelCert:
    _, p1 = _premise(T, s.first, want_goal=False)
    _, p2 = _premise(T, s.second, want_goal=False)
    a, b = _eq_parts(p1, "SEqTrans")
    b2, c = _eq_parts(p2, "SEqTrans")
    if not alpha_equal(b, b2):
        raise CertError("SEqTrans: the middle terms differ")
    ty = _term_type(T, a)
    shell = KAssert(s.name, eq(a, c), KHole(T), KHole(T))
    t_goal, t_rest = _steps(T, shell)

    z = fresh_ident("z", all_idents(c))
    rw = KRewrite(True, a, b, Lam(z, ty, eq(Var(z), c)), s.name, s.first,
                  KHole(T))
    (t_rw,) = _steps(t_goal, rw)
    ax = KAxiom(eq(b, c), s.second, s.name)
    _steps(t_rw, ax)
    proof = dataclasses.replace(rw, rest=ax)
    child = elaborate(s.rest, t_rest)
    return dataclasses.replace(shell, proof=proof, rest=child)


def _elab_rewrite(s: SRewrite, T: Task) -> KernelCert:
    _, heq = _premise(T, s.eq_name, want_goal=False)
    l, r = _eq_parts(heq, "SRewrite")
    is_goal, target = _premise(T, s.name)

    if not s.right_to_left:
        ctx = _abstract(T, target.formula, l)
        node = KRewrite(is_goal, l, r, ctx, s.name, s.eq_name, KHole(T))
        (t1,) = _steps(T, node)
        return dataclasses.replace(node, rest=elaborate(s.rest, t1))

    # flip the equation into a temporary hypothesis, rewrite, drop it
    flip = eq(r, l)
    ty = _term_type(T, l)
    tmp = _fresh_premise(T, f"{s.eq_name.name}_sym")
    shell = KAssert(tmp, flip, KHole(T), KHole(T))
    t_goal, t_rest = _steps(T, shell)

    z = fresh_ident("z", all_idents(r))
    rw1 = KRewrite(True, l, r, Lam(z, ty, eq(r, Var(z))), tmp, s.eq_name,
                   KHole(T))
    (t_rw,) = _steps(t_goal, rw1)
    refl = KEqRefl(r, tmp)
    _steps(t_rw, refl)
    proof = dataclasses.replace(rw1, rest=refl)

    ctx = _abstract(T, target.formula, r)
    rw2 = KRewrite(is_goal, r, l, ctx, s.name, tmp, KHole(T))
    (t2,) = _steps(t_rest, rw2)
    cl = KClear(False, flip, tmp, KHole(T))
    (t3,) = _steps(t2, cl)
    child = elaborate(s.rest, t3)
    rest = dataclasses.replace(rw2, rest=dataclasses.replace(cl, rest=child))
    return dataclasses.replace(shell, proof=proof, rest=rest)


def _elab_induction(s: SInduction, T: Task) -> KernelCert:
    if len(T.goals) != 1:
        raise CertError("SInduction needs exactly one goal")
    gname = T.goals[0].name
    i = s.var

    # premises depending on i go into the goal first (and come back after)
    deps = [p for p in T.hyps if i in free_vars(p.formula)]
    cur = T
    reverts = []
    for p in reversed(deps):
        gf = cur.goals[0].formula
        node = KRevert(p.formula, gf, p.name, gname, KHole(cur))
        (cur,) = _steps(cur, node)
        reverts.append((p.formula, gf, p.name))

    goal_f = cur.goals[0].formula
    n = fresh_ident("n", cur.formula_idents() | {i})
    context = Lam(n, INT, subst_term(goal_f, i, Var(n)))
    shell = KInduction(i, s.bound, context, gname, s.hyp_name, s.rec_name,
                       KHole(cur), KHole(cur))
    t_base, t_rec = _steps(cur, shell)

    def reintro(t: Task):
        intros = []
        for p in deps:
            found = t.find(gname)
            assert found is not None
            f = found[2].formula
            if not (isinstance(f, BinOp) and f.op == "imp"):
                raise CertError("SInduction: reverted goal lost its shape")
            node = KIntroImp(f.left, f.right, gname, p.name, KHole(t))
            (t,) = _steps(t, node)
            intros.append((f.left, f.right, p.name))
        return intros, t

    base_intros, t_base2 = reintro(t_base)
    rec_intros, t_rec2 = reintro(t_rec)

    def nest(intros, child):
        for left, right, hyp in reversed(intros):
            child = KIntroImp(left, right, gname, hyp, child)
        return child

    out: KernelCert = dataclasses.replace(
        shell,
        base=nest(base_intros, elaborate(s.base, t_base2)),
        rec=nest(rec_intros, elaborate(s.rec, t_rec2)))
    for hf, gf, hn in reversed(reverts):
        out = KRevert(hf, gf, hn, gname, out)
    return out
