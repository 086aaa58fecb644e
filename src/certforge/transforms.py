"""Certifying transformations over proof tasks.

Every operation either returns (resulting tasks, surface certificate) or
raises TransformError and returns nothing.  The pair always comes out of
one code path: build the surface certificate, replay it against the input
task (cert.elaborate; t_blast elaborates each search step with
cert.elaborate_node as it takes it), and read the resulting tasks off the
kernel certificate's leaves.  A successful return has therefore already
survived the rule-by-rule validation; the leaves and the task list cannot
drift apart.  The kernel certificate is kept on the surface one returned
(cert.keep_kernel), so the caller's elaborate on the same pair returns it
instead of replaying it again.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Set
from dataclasses import dataclass
from itertools import compress
from operator import is_, not_

from . import cert
from .cert import CertError, KernelCert, SurfaceCert
from .core import (
    RESERVED,
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
    Var,
    alpha_equal,
    eq_sides,
    free_vars,
    fresh_ident,
    ident,
    subst_term,
)
from .task import Premise, Task, well_typed

Result = tuple[list[Task], SurfaceCert]


class TransformError(Exception):
    """The transformation does not apply; no tasks, no certificate."""


@dataclass(frozen=True, slots=True)
class CertifyingTransform:
    """A named transformation: apply(T) -> (resulting tasks, certificate)."""

    name: str
    apply: Callable[[Task], Result]


def transform(op, /, *args, name: str | None = None) -> CertifyingTransform:
    """Package an operation with its arguments, for composition."""
    if name is None:
        name = op.__name__.removeprefix("t_")
    return CertifyingTransform(name, lambda T: op(T, *args))


# ---------------------------------------------------------------------------
# Shared plumbing

# names the freshness side conditions refuse outright, whatever the uid
_RESERVED = RESERVED | {"prop"}


def _elaborate(T: Task, s: SurfaceCert) -> KernelCert:
    try:
        return cert.elaborate(s, T)
    except CertError as e:
        raise TransformError(str(e)) from e


def _certify(T: Task, s: SurfaceCert) -> Result:
    k = _elaborate(T, s)
    cert.keep_kernel(s, T, k)
    return cert.leaves(k), s


def _premise(T: Task, name: Ident, who: str) -> tuple[bool, Premise]:
    found = T.find(name)
    if found is None:
        raise TransformError(f"{who}: no premise named {name}")
    is_goal, _, prem = found
    return is_goal, prem


def _fresh(base: str | Ident, avoid: Set[Ident]) -> Ident:
    """fresh_ident, skipping every ident whose name is reserved.

    base#k shares base's name, so a reserved base gives way to base_.
    """
    base = ident(base)
    if base.name in _RESERVED:
        base = Ident(base.name + "_")
    return fresh_ident(base, avoid)


def _fresh_name(base: str, used: set[Ident]) -> Ident:
    out = _fresh(base, used)
    used.add(out)
    return out


# ---------------------------------------------------------------------------
# Elementary transformations

def t_identity(T: Task) -> Result:
    return _certify(T, cert.SHole())


identity = CertifyingTransform("identity", t_identity)


def t_trivial(T: Task, P: Ident) -> Result:
    return _certify(T, cert.STrivial(P))


def t_axiom(T: Task, H: Ident, G: Ident) -> Result:
    return _certify(T, cert.SAxiom(H, G))


def t_assert(T: Task, name: Ident, formula: Term) -> Result:
    return _certify(T, cert.SAssert(name, formula, cert.SHole(), cert.SHole()))


def t_split(T: Task, P: Ident) -> Result:
    return _certify(T, cert.SSplit(P, cert.SHole(), cert.SHole()))


def t_destruct(T: Task, P: Ident, P1: Ident, P2: Ident) -> Result:
    return _certify(T, cert.SDestruct(P, P1, P2, cert.SHole()))


def t_construct(T: Task, P1: Ident, P2: Ident, P: Ident) -> Result:
    return _certify(T, cert.SConstruct(P1, P2, P, cert.SHole()))


def t_clear(T: Task, P: Ident) -> Result:
    return _certify(T, cert.SClear(P, cert.SHole()))


def t_swap_neg(T: Task, P: Ident) -> Result:
    return _certify(T, cert.SSwapNeg(P, cert.SHole()))


def t_intro_imp(T: Task, P: Ident) -> Result:
    hyp_name = _fresh(f"{P}.1", T.premise_names())
    return _certify(T, cert.SIntroImp(P, hyp_name, cert.SHole()))


def t_split_imp(T: Task, P: Ident) -> Result:
    goal_name = _fresh(f"{P}.1", T.premise_names())
    return _certify(
        T, cert.SSplitImp(P, goal_name, cert.SHole(), cert.SHole()))


def t_unfold_iff(T: Task, P: Ident) -> Result:
    return _certify(T, cert.SUnfoldIff(P, cert.SHole()))


# ---------------------------------------------------------------------------
# Quantifiers

def t_instantiate(T: Task, H: Ident, u: Term) -> Result:
    inst_name = _fresh(f"{H}_inst", T.premise_names())
    return _certify(T, cert.SInstQuant(H, inst_name, u, cert.SHole()))


def t_inst_type(T: Task, H: Ident, ty) -> Result:
    inst_name = _fresh(f"{H}_inst", T.premise_names())
    return _certify(T, cert.SInstType(H, inst_name, ty, cert.SHole()))


def t_intro(T: Task, P: Ident) -> Result:
    is_goal, prem = _premise(T, P, "t_intro")
    f = prem.formula
    if isinstance(f, PiType):
        if not is_goal:
            raise TransformError(
                f"t_intro: {P} is a type-quantified hypothesis; "
                "instantiate it instead")
        iota = _fresh(f.var, T.every_ident())
        return _certify(T, cert.SIntroType(P, iota, cert.SHole()))
    if isinstance(f, Forall if is_goal else Exists):
        fresh = _fresh(f.var, T.every_ident())
        return _certify(T, cert.SIntroQuant(P, fresh, cert.SHole()))
    side = "goal" if is_goal else "hypothesis"
    raise TransformError(f"t_intro: {side} {P} does not start with a binder")


# ---------------------------------------------------------------------------
# Rewriting

def _eq_spine(f: Term) -> tuple[list, Term, Term]:
    """Strip the forall/condition prefix down to the equation.

    Returns (spine, l, r) where spine entries are ("all", var, ty) and
    ("cond", formula), outermost first, with no substitution applied.
    """
    spine = []
    while True:
        if isinstance(f, Forall):
            spine.append(("all", f.var, f.ty))
            f = f.body
        elif isinstance(f, BinOp) and f.op == "imp":
            spine.append(("cond", f.left))
            f = f.right
        else:
            break
    sides = eq_sides(f)
    if sides is None:
        raise TransformError(
            "t_rewrite: the premise does not end in an equality")
    return spine, sides[0], sides[1]


def _match_pattern(pat: Term, t: Term, pvars: frozenset[Ident],
                   binds: dict[Ident, Term]) -> bool:
    if isinstance(pat, Var) and pat.name in pvars:
        if pat.name in binds:
            return alpha_equal(binds[pat.name], t)
        binds[pat.name] = t
        return True
    if isinstance(pat, (Lam, Forall, Exists, PiType)):
        # first-order only: a binder in the pattern must match literally
        return not (free_vars(pat) & pvars) and alpha_equal(pat, t)
    if type(pat) is not type(t):
        return False
    if isinstance(pat, Var):
        return pat.name == t.name
    if isinstance(pat, IntLit):
        return pat.value == t.value
    if isinstance(pat, (Top, Bottom)):
        return True
    if isinstance(pat, Not):
        return _match_pattern(pat.body, t.body, pvars, binds)
    if isinstance(pat, BinOp):
        return (pat.op == t.op
                and _match_pattern(pat.left, t.left, pvars, binds)
                and _match_pattern(pat.right, t.right, pvars, binds))
    if isinstance(pat, App):
        return (_match_pattern(pat.fn, t.fn, pvars, binds)
                and _match_pattern(pat.arg, t.arg, pvars, binds))
    return False


def _find_instantiation(pattern: Term, pvars: frozenset[Ident],
                        formula: Term) -> dict[Ident, Term] | None:
    """Leftmost-outermost subterm of `formula` matching `pattern`.

    Searched on an explicit stack, in preorder, each subterm with the
    binders above it: a nested walker that calls itself would be a
    reference cycle."""
    todo = [(formula, frozenset())]
    while todo:
        t, blocked = todo.pop()
        binds: dict[Ident, Term] = {}
        if _match_pattern(pattern, t, pvars, binds):
            # a witness mentioning a locally bound variable cannot leave
            # its binder, so keep scanning
            if all(not (free_vars(u) & blocked) for u in binds.values()):
                return binds
        if isinstance(t, (Not, PiType)):
            todo.append((t.body, blocked))
        elif isinstance(t, BinOp):
            todo += ((t.right, blocked), (t.left, blocked))
        elif isinstance(t, App):
            todo += ((t.arg, blocked), (t.fn, blocked))
        elif isinstance(t, (Lam, Forall, Exists)):
            todo.append((t.body, blocked | {t.var}))
    return None


def t_rewrite(T: Task, Heq: Ident, P: Ident, right_to_left: bool = False,
              inst: Iterable[Term] | None = None) -> Result:
    """Rewrite with an equation living under foralls and conditions.

    The premise Heq must look like forall xs. c1 => ... => ck => (l = r).
    `inst` instantiates xs in order; leave it None to infer the terms by
    matching l (or r) against the target premise.  Each condition becomes
    an extra resulting task, in order, ahead of the rewritten one.
    """
    _, heq = _premise(T, Heq, "t_rewrite")
    _, target = _premise(T, P, "t_rewrite")
    spine, l_raw, r_raw = _eq_spine(heq.formula)
    binders = [v for kind, v, *_ in spine if kind == "all"]

    if inst is None:
        pattern = r_raw if right_to_left else l_raw
        binds = _find_instantiation(
            pattern, frozenset(binders), target.formula)
        if binds is None:
            raise TransformError(
                f"t_rewrite: no subterm of {P} matches the equation")
        missing = [x for x in binders if x not in binds]
        if missing:
            raise TransformError(
                f"t_rewrite: cannot infer a term for {missing[0]}; "
                "pass inst explicitly")
        inst = [binds[x] for x in binders]
    else:
        inst = list(inst)
        if len(inst) != len(binders):
            raise TransformError(
                f"t_rewrite: the equation takes {len(binders)} "
                f"instantiation terms, got {len(inst)}")

    # walk the spine: instantiate each forall into a fresh copy, split off
    # each condition as a side goal; the original hypothesis stays intact
    used = set(T.premise_names())
    witnesses = iter(inst)
    cur = Heq
    shape = heq.formula
    temps: list[Ident] = []
    shell: list[tuple] = []
    conds = 0
    for entry in spine:
        if entry[0] == "all":
            u = next(witnesses)
            nxt = _fresh_name(f"{Heq}_inst", used)
            shell.append(("inst", cur, nxt, u))
            temps.append(nxt)
            cur = nxt
            shape = subst_term(shape.body, entry[1], u)
        else:
            if cur == Heq:
                # copy first: splitting would chew up the caller's premise
                tmp = _fresh_name(f"{Heq}_inst", used)
                shell.append(("copy", cur, tmp, shape))
                temps.append(tmp)
                cur = tmp
            conds += 1
            gname = _fresh_name(f"{Heq}.{conds}", used)
            shell.append(("cond", cur, gname))
            shape = shape.right

    return _assemble_rewrite(T, shell, temps, cur, P, right_to_left)


def _assemble_rewrite(T, shell, temps, cur, P, right_to_left) -> Result:
    s: SurfaceCert = cert.SHole()
    for tmp in reversed(temps):
        s = cert.SClear(tmp, s)
    s = cert.SRewrite(right_to_left, cur, P, s)
    for entry in reversed(shell):
        if entry[0] == "inst":
            _, frm, nxt, u = entry
            s = cert.SInstQuant(frm, nxt, u, s)
        elif entry[0] == "copy":
            _, frm, tmp, formula = entry
            s = cert.SAssert(tmp, formula, cert.SAxiom(frm, tmp), s)
        else:
            _, frm, gname = entry
            s = cert.SSplitImp(frm, gname, cert.SHole(), s)
    return _certify(T, s)


# ---------------------------------------------------------------------------
# Induction

def t_induction(T: Task, G: Ident, i: Ident, a: Term) -> Result:
    is_goal, _ = _premise(T, G, "t_induction")
    if not is_goal:
        raise TransformError(f"t_induction: {G} is not a goal")
    if len(T.goals) != 1 or T.goals[0].name != G:
        raise TransformError("t_induction: the task must have exactly the "
                             f"goal {G}")
    used = set(T.premise_names())
    hyp_name = _fresh_name(f"H{i}", used)
    rec_name = _fresh_name("H_rec", used)
    return _certify(
        T, cert.SInduction(i, a, hyp_name, rec_name,
                           cert.SHole(), cert.SHole()))


# ---------------------------------------------------------------------------
# Composition

def compose_transforms(t1: CertifyingTransform,
                       t2_selector: Callable[[int, Task],
                                             CertifyingTransform | None],
                       ) -> CertifyingTransform:
    """Apply t1, then whatever t2_selector picks for each resulting task.

    The selector gets (index, task) and returns a transform to run on that
    task, or None to keep it as a leaf.  The combined certificate splices
    each sub-certificate into the matching hole, so the resulting task
    list and the certificate leaves stay aligned.  Any component failure
    aborts the whole application.
    """

    def apply(T: Task) -> Result:
        tasks, s = t1.apply(T)
        out: list[Task] = []
        fillers: list[SurfaceCert] = []
        kernels: list[KernelCert | None] = []
        for idx, task in enumerate(tasks):
            t2 = t2_selector(idx, task)
            if t2 is None:
                out.append(task)
                fillers.append(cert.SHole())
                kernels.append(cert.KHole(task))
            else:
                sub_tasks, sub_s = t2.apply(task)
                out.extend(sub_tasks)
                fillers.append(sub_s)
                kernels.append(cert.kept_kernel(sub_s, task))
        filled = cert.fill_holes(s, fillers)
        # splice the kernels only if each was built on the very task at
        # its hole; otherwise the caller's elaborate replays
        k = cert.kept_kernel(s, T)
        if k is not None and all(kk is not None for kk in kernels):
            holes = cert.leaves(k)
            if len(holes) == len(tasks) and all(map(is_, holes, tasks)):
                cert.keep_kernel(filled, T, cert.fill_holes(k, kernels))
        return out, filled

    return CertifyingTransform(f"compose({t1.name})", apply)


# ---------------------------------------------------------------------------
# blast

def _prop_kind(p: Premise) -> str:
    f = p.formula
    if isinstance(f, BinOp):
        return f.op
    if isinstance(f, Not):
        return "not"
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Bottom):
        return "bottom"
    if isinstance(f, (Var, App, IntLit)):
        return "atom"
    raise TransformError(f"t_blast: premise {p.name} is not propositional")


def _added(old: tuple[Premise, ...],
           new: tuple[Premise, ...]) -> list[Premise]:
    """The premises of new that old lacks, in order: by identity, in C."""
    kept = set(map(id, old))
    return list(compress(new, map(not_, map(kept.__contains__,
                                            map(id, new)))))


def _blast_step(T: Task, parent: Task | None) -> SurfaceCert:
    """One tableau step: close if possible, else decompose goals, then hyps.

    parent is the task whose step derived T, if any. It was decomposed, so
    it had no falsity hypothesis, no truth goal and no hypothesis equal to
    a goal; T keeps the rest of its premises as the same objects on the
    same sides, so only a premise the step added can close T. The axiom
    scan keeps its hypothesis-major order over the pairs left.
    """
    if parent is None:
        hyps, goals = T.hyps, T.goals
    else:
        hyps, goals = _added(parent.hyps, T.hyps), _added(parent.goals, T.goals)
    for p in hyps:
        if isinstance(p.formula, Bottom):
            return cert.STrivial(p.name)
    for p in goals:
        if isinstance(p.formula, Top):
            return cert.STrivial(p.name)
    added = set(map(id, hyps))
    for h in T.hyps if goals else hyps:
        for g in T.goals if id(h) in added else goals:
            if alpha_equal(h.formula, g.formula):
                return cert.SAxiom(h.name, g.name)
    names = T.premise_names()
    for p in T.goals:
        kind = _prop_kind(p)
        if kind == "and":
            return cert.SSplit(p.name, cert.SHole(), cert.SHole())
        if kind == "or":
            return cert.SDestruct(p.name, _fresh(f"{p.name}.1", names),
                                  _fresh(f"{p.name}.2", names), cert.SHole())
        if kind == "imp":
            return cert.SIntroImp(p.name, _fresh(f"{p.name}.1", names),
                                  cert.SHole())
        if kind == "not":
            return cert.SSwapNeg(p.name, cert.SHole())
        if kind == "iff":
            return cert.SUnfoldIff(p.name, cert.SHole())
        if kind == "bottom":
            return cert.SClear(p.name, cert.SHole())
    for p in T.hyps:
        kind = _prop_kind(p)
        if kind == "and":
            return cert.SDestruct(p.name, _fresh(f"{p.name}.1", names),
                                  _fresh(f"{p.name}.2", names), cert.SHole())
        if kind == "or":
            return cert.SSplit(p.name, cert.SHole(), cert.SHole())
        if kind == "imp":
            return cert.SSplitImp(p.name, _fresh(f"{p.name}.1", names),
                                  cert.SHole(), cert.SHole())
        if kind == "not":
            return cert.SSwapNeg(p.name, cert.SHole())
        if kind == "iff":
            return cert.SUnfoldIff(p.name, cert.SHole())
        if kind == "top":
            return cert.SClear(p.name, cert.SHole())
    raise TransformError("t_blast: cannot close the task")


def _blast_node(item):
    """t_blast's expand: item is a task and the task whose step derived it
    (None at the root). One search step, elaborated against the task: its
    surface node, which elaborates to one kernel node, and the tasks that
    node leaves, each with the task it came from."""
    t, parent = item
    s = _blast_step(t, parent)
    k, kids = cert.elaborate_node((s, t))
    return (s, k), [(sub, t) for _, sub in kids]


def _splice(step, kids):
    """A step's surface and kernel nodes with the certificates of the tasks
    it leaves in their holes."""
    s, k = step
    subs, kernels = zip(*kids)
    return cert.with_children(s, subs), cert.with_children(k, kernels)


def t_blast(T: Task) -> Result:
    """Close a propositional task outright, or fail.

    Goal-directed: every step first tries to close the branch with an
    axiom or truth/falsity, then decomposes the leftmost compound goal,
    then the leftmost compound hypothesis.  Each step is an elementary
    certifying step; the blast of each task it leaves fills the matching
    hole, so the certificate is exactly the trace.  The search runs on
    cert.rebuild and builds the kernel certificate as it goes: T is judged
    once, each step's surface node is elaborated once, against the task at
    hand, and both nodes take their children's certificates in their
    holes.
    """
    if not well_typed(T):
        raise TransformError("the task is not well-typed")
    try:
        s, k = cert.rebuild((T, None), _blast_node, _splice)
    except CertError as e:
        raise TransformError(str(e)) from e
    cert.keep_kernel(s, T, k)
    return [], s
