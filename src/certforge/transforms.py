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
from operator import is_

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


# The step that takes a compound premise apart, by its side and connective:
# the surface node, the suffixes of the fresh names it takes (on the bases
# P.1, then P.2, for the premise P), and its holes. The holes are shared:
# the search puts the certificates of the tasks a step leaves in their
# place (_splice).
_NO, _ONE, _TWO = (), (".1",), (".1", ".2")
_HOLE = cert.SHole()
_HOLES1, _HOLES2 = (_HOLE,), (_HOLE, _HOLE)
_GOAL_STEPS = {"and": (cert.SSplit, _NO, _HOLES2),
               "or": (cert.SDestruct, _TWO, _HOLES1),
               "imp": (cert.SIntroImp, _ONE, _HOLES1),
               "not": (cert.SSwapNeg, _NO, _HOLES1),
               "iff": (cert.SUnfoldIff, _NO, _HOLES1),
               "bottom": (cert.SClear, _NO, _HOLES1)}
_HYP_STEPS = {"and": (cert.SDestruct, _TWO, _HOLES1),
              "or": (cert.SSplit, _NO, _HOLES2),
              "imp": (cert.SSplitImp, _ONE, _HOLES2),
              "not": (cert.SSwapNeg, _NO, _HOLES1),
              "iff": (cert.SUnfoldIff, _NO, _HOLES1),
              "top": (cert.SClear, _NO, _HOLES1)}


def _head(t: Term):
    """What alpha-equal terms share at t, a formula under no binder of a
    well-typed task: the name of the variable heading an application
    spine (no other term heads one of type prop), a connective, or else
    the kind of node."""
    while type(t) is App:
        t = t.fn
    cls = type(t)
    if cls is Var:
        return t.name.name
    if cls is BinOp:
        return t.op
    return cls


def _key(f: Term):
    """A key that alpha-equal formulas share, read off their top two
    levels, none of which is under a binder."""
    cls = type(f)
    if cls is BinOp:
        return f.op, _head(f.left), _head(f.right)
    if cls is Not:
        return cls, _head(f.body)
    return _head(f)


def _free_name(names, base: str, k: int) -> Ident:
    """The first of base#k, base#(k+1), ... (base itself for suffix 0) that
    is not in names."""
    name = Ident(base, k)
    while name in names:
        k += 1
        name = Ident(base, k)
    return name


# A side of at most this many premises is scanned whole for the premises
# that may close against an added one; a wider side is looked up in an
# index of its premises by _key, built when first needed.
_WIDE = 8

_GONE = object()  # on the trail: the entry was not in its dict


class _Search:
    """t_blast's search state: what each step reads of the task at hand,
    kept up to date from the edits the steps make.

    - by_key: per side (False for the hypotheses), None or an index of
      the side's premises by _key of their formula, each by its id. A
      side gets its index when the axiom scan first looks at it wide.
    - low: per fresh-name base, a suffix below which every name of the
      base is a premise's; a fresh name is probed for from there.
    - trail: each change to by_key, its indexes and low, as (the dict or
      list changed, the key, the value before or _GONE), so that it can
      be undone.

    cert.rebuild expands the search's tasks depth first, in preorder, so
    one state serves every branch. A task is expanded with the length of
    the trail after its parent's step: the expansion first undoes the
    changes made since (its siblings' subtrees), then applies the edit of
    the parent's step, and the tasks the step leaves get the length after.

    The edit that made a task from its parent names the side and premise
    the parent's step took apart and the fresh names it gave. The task
    holds the premises of those names, and of the name of the premise
    taken apart, that it has; they are all the premises it has and its
    parent lacks. Every other premise is its parent's, the same object on
    the same side. The parent was taken apart, so it had no falsity
    hypothesis, no truth goal and no hypothesis alpha-equal to a goal:
    only an added premise can close the task, and the axiom scan looks
    only at pairs with one. It keeps the hypothesis-major order of the
    whole scan among the pairs it finds.

    The edit also gives the index of the leftmost premise on each side
    that may be compound. Every premise left of it is an atom that no step
    changes: a step replaces the premise it takes apart, the leftmost
    compound one, where it stands, or adds premises at the end.
    """

    __slots__ = ("by_key", "low", "trail")

    def __init__(self) -> None:
        self.by_key: list[dict | None] = [None, None]
        self.low: dict[str, int] = {}
        self.trail: list[tuple] = []

    def node(self, item):
        """t_blast's expand: item is a task, the edit that made it (None at
        the root) and the length of the trail after its parent's step. One
        search step, elaborated against the task: its surface node, which
        elaborates to one kernel node, and the tasks that node leaves, each
        as an item."""
        t, edit, mark = item
        if edit is None:
            s, edit = self._step(t, t.hyps, t.goals, 0, 0)
        else:
            hyps, goals = self._enter(t, edit, mark)
            s, edit = self._step(t, hyps, goals, edit[3], edit[4])
        k, kids = cert.elaborate_node((s, t))
        mark = len(self.trail)
        return (s, k), [(sub, edit, mark) for _, sub in kids]

    def _enter(self, t: Task, edit, mark: int):
        """Bring the state from where the trail's first mark entries leave it
        to t, which edit made, and return the premises edit added to t's
        hypotheses and goals, in order."""
        trail = self.trail
        while len(trail) > mark:
            d, key, old = trail.pop()
            if old is _GONE:
                del d[key]
            else:
                d[key] = old
        is_goal, gone, fresh, _, _ = edit
        by_key, low = self.by_key, self.low
        index = by_key[is_goal]
        if index is not None:
            bucket = index[_key(gone.formula)]
            del bucket[id(gone)]
            trail.append((bucket, id(gone), gone))
        hyps, goals = [], []
        by_name = t._by_name
        for name in (gone.name, *fresh):
            found = by_name.get(name)
            if found is None:
                continue
            side, p = found
            (goals if side else hyps).append(p)
            if by_key[side] is not None:
                self._put(by_key[side], p)
            # a name at its base's mark moves the mark past it
            if low.get(name.name) == name.uid:
                trail.append((low, name.name, name.uid))
                low[name.name] = name.uid + 1
        name = gone.name
        if low.get(name.name, 0) > name.uid and name not in by_name:
            trail.append((low, name.name, low[name.name]))
            low[name.name] = name.uid
        return hyps, goals

    def _put(self, index: dict, p: Premise) -> None:
        key = _key(p.formula)
        bucket = index.get(key)
        if bucket is None:
            bucket = index[key] = {}
        bucket[id(p)] = p
        self.trail.append((bucket, id(p), _GONE))

    def _step(self, t: Task, hyps, goals, goal_at: int, hyp_at: int):
        """The step for t, whose step-added hypotheses and goals are hyps and
        goals, and whose compound premises start at goal_at and hyp_at at
        the earliest: close it if possible, else take apart the leftmost
        compound goal, else the leftmost compound hypothesis. Returns the
        surface node and the edit it makes (None if it closes t)."""
        for p in hyps:
            if isinstance(p.formula, Bottom):
                return cert.STrivial(p.name), None
        for p in goals:
            if isinstance(p.formula, Top):
                return cert.STrivial(p.name), None
        pair = self._axiom(t, hyps, goals)
        if pair is not None:
            return cert.SAxiom(pair[0].name, pair[1].name), None
        side = t.goals
        for i in range(goal_at, len(side)):
            step = _GOAL_STEPS.get(_prop_kind(side[i]))
            if step is not None:
                return self._take_apart(t, side[i], step, True, i, hyp_at)
        goal_at, side = len(side), t.hyps
        for i in range(hyp_at, len(side)):
            step = _HYP_STEPS.get(_prop_kind(side[i]))
            if step is not None:
                return self._take_apart(t, side[i], step, False, goal_at, i)
        raise TransformError("t_blast: cannot close the task")

    def _axiom(self, t: Task, hyps, goals) -> tuple[Premise, Premise] | None:
        """The first hypothesis-goal pair of t, hypothesis-major, whose
        formulas are alpha-equal, among the pairs with a step-added
        premise."""
        found = []
        for h in hyps:
            for g in self._candidates(t.goals, True, h.formula):
                if alpha_equal(h.formula, g.formula):
                    found.append((h, g))
        if goals:
            added = set(map(id, hyps))
            for g in goals:
                for h in self._candidates(t.hyps, False, g.formula):
                    if id(h) not in added \
                            and alpha_equal(h.formula, g.formula):
                        found.append((h, g))
        if len(found) > 1:
            at_h, at_g = list(map(id, t.hyps)), list(map(id, t.goals))
            return min(found, key=lambda pair: (at_h.index(id(pair[0])),
                                                at_g.index(id(pair[1]))))
        return found[0] if found else None

    def _candidates(self, side, is_goal: bool, f: Term):
        """The premises of side, the goals or else the hypotheses of the
        task at hand, that may be alpha-equal to f: all of them if the side
        is narrow, else the ones that share f's key."""
        if len(side) <= _WIDE:
            return side
        index = self.by_key[is_goal]
        if index is None:
            index = {}
            self.trail.append((self.by_key, is_goal, None))
            self.by_key[is_goal] = index
            for p in side:
                self._put(index, p)
        bucket = index.get(_key(f))
        return bucket.values() if bucket else ()

    def _take_apart(self, t: Task, p: Premise, step, is_goal: bool,
                    goal_at: int, hyp_at: int):
        """The surface node that takes p apart, and its edit."""
        make, suffixes, holes = step
        fresh = ()
        for suffix in suffixes:
            fresh += (self._fresh(t, f"{p.name}{suffix}"),)
        return (make(p.name, *fresh, *holes),
                (is_goal, p, fresh, goal_at, hyp_at))

    def _fresh(self, t: Task, base: str) -> Ident:
        """_fresh(base, t.premise_names()), probed for from base's mark. A
        base here ends in .1 or .2: ident reads it with uid 0, and no
        reserved name ends so."""
        low = self.low
        at = low.get(base)
        name = _free_name(t._by_name, base, at or 0)
        if name.uid != at:
            self.trail.append((low, base, _GONE if at is None else at))
            low[base] = name.uid
        return name


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
    holes. A step reads the task through the search state (_Search), which
    each step brings up to date from its own edit, so it costs what the
    step added, not the width of the task.
    """
    if not well_typed(T):
        raise TransformError("the task is not well-typed")
    try:
        s, k = cert.rebuild((T, None, 0), _Search().node, _splice)
    except CertError as e:
        raise TransformError(str(e)) from e
    cert.keep_kernel(s, T, k)
    return [], s
