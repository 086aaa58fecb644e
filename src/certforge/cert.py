"""Kernel and surface certificate trees.

Kernel certificates spell out every formula they touch and are what the
checker replays. Surface certificates are the terse form transformations
produce: premise names only, no carried tasks (SHole is bare).

Elaboration turns the latter into the former. At task T, each surface
constructor's kernel(T) returns the kernel node, or the nest of kernel
nodes, it stands for: a skeleton whose formulas are read off T and whose
open children are the constructor's own surface subcertificates. One
replay steps the skeleton with checker.step and elaborates each child
against the task that step derived for it; SHole becomes the KHole of that
task.
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
    Var,
    all_idents,
    alpha_equal,
    conj,
    disj,
    eq,
    eq_sides,
    free_vars,
    fresh_ident,
    ident,
    subst_term,
)
from .task import Task, TaskError, typing_of, well_typed


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
    # (task, kernel certificate) a transformation elaborated this very
    # certificate into on that very task (see keep_kernel); unset otherwise
    __slots__ = ("_kept",)

    def kernel(self, T: Task) -> KernelCert:
        """The kernel skeleton this certificate stands for at task T: its
        formulas read off T, this certificate's own subcertificates where
        the kernel children go (see elaborate). CertError when T lacks the
        premises it names or they have the wrong shape."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class SHole(SurfaceCert):
    pass


@dataclass(frozen=True, slots=True)
class STrivial(SurfaceCert):
    name: Ident

    def kernel(self, T):
        is_goal, _ = _premise(T, self.name)
        return KTrivial(is_goal, self.name)


@dataclass(frozen=True, slots=True)
class SAxiom(SurfaceCert):
    hyp: Ident
    goal: Ident

    def kernel(self, T):
        _, hyp = _premise(T, self.hyp, want_goal=False)
        return KAxiom(hyp.formula, self.hyp, self.goal)


@dataclass(frozen=True, slots=True)
class SAssert(SurfaceCert):
    name: Ident
    formula: Term
    proof: SurfaceCert
    rest: SurfaceCert

    def kernel(self, T):
        return KAssert(self.name, self.formula, self.proof, self.rest)


@dataclass(frozen=True, slots=True)
class SSplit(SurfaceCert):
    name: Ident
    first: SurfaceCert
    second: SurfaceCert

    def kernel(self, T):
        is_goal, prem = _premise(T, self.name)
        f = _shaped(prem, "and" if is_goal else "or", "SSplit")
        return KSplit(is_goal, f.left, f.right, self.name, self.first,
                      self.second)


@dataclass(frozen=True, slots=True)
class SDestruct(SurfaceCert):
    name: Ident
    left_name: Ident
    right_name: Ident
    rest: SurfaceCert

    def kernel(self, T):
        is_goal, prem = _premise(T, self.name)
        f = _shaped(prem, "or" if is_goal else "and", "SDestruct")
        return KDestruct(is_goal, f.left, f.right, self.name, self.left_name,
                         self.right_name, self.rest)


@dataclass(frozen=True, slots=True)
class SConstruct(SurfaceCert):
    left_name: Ident
    right_name: Ident
    name: Ident
    rest: SurfaceCert

    def kernel(self, T):
        g1, p1 = _premise(T, self.left_name)
        g2, p2 = _premise(T, self.right_name)
        if g1 != g2:
            raise CertError("SConstruct: premises are on different sides")
        t1, t2 = p1.formula, p2.formula
        l, r, n = self.left_name, self.right_name, self.name
        if g1:
            # the merged disjunction closes against the two original goals
            return KAssert(
                n, disj(t1, t2),
                KClear(True, t1, l, KClear(True, t2, r, self.rest)),
                KSplit(False, t1, t2, n, KAxiom(t1, n, l), KAxiom(t2, n, r)))
        # hypothesis side: the merged conjunction is proved from the originals
        return KAssert(
            n, conj(t1, t2),
            KSplit(True, t1, t2, n, KAxiom(t1, l, n), KAxiom(t2, r, n)),
            KClear(False, t1, l, KClear(False, t2, r, self.rest)))


@dataclass(frozen=True, slots=True)
class SClear(SurfaceCert):
    name: Ident
    rest: SurfaceCert

    def kernel(self, T):
        is_goal, prem = _premise(T, self.name)
        return KClear(is_goal, prem.formula, self.name, self.rest)


@dataclass(frozen=True, slots=True)
class SSwapNeg(SurfaceCert):
    name: Ident
    rest: SurfaceCert

    def kernel(self, T):
        is_goal, prem = _premise(T, self.name)
        if not isinstance(prem.formula, Not):
            raise CertError(f"SSwapNeg: premise {self.name} is not a negation")
        return KSwapNeg(is_goal, prem.formula.body, self.name, self.rest)


@dataclass(frozen=True, slots=True)
class SIntroImp(SurfaceCert):
    name: Ident
    hyp_name: Ident
    rest: SurfaceCert

    def kernel(self, T):
        _, prem = _premise(T, self.name, want_goal=True)
        f = _shaped(prem, "imp", "SIntroImp")
        return KIntroImp(f.left, f.right, self.name, self.hyp_name, self.rest)


@dataclass(frozen=True, slots=True)
class SSplitImp(SurfaceCert):
    name: Ident
    goal_name: Ident
    side: SurfaceCert
    rest: SurfaceCert

    def kernel(self, T):
        _, prem = _premise(T, self.name, want_goal=False)
        f = _shaped(prem, "imp", "SSplitImp")
        return KSplitImp(f.left, f.right, self.name, self.goal_name,
                         self.side, self.rest)


@dataclass(frozen=True, slots=True)
class SUnfoldIff(SurfaceCert):
    name: Ident
    rest: SurfaceCert

    def kernel(self, T):
        is_goal, prem = _premise(T, self.name)
        f = _shaped(prem, "iff", "SUnfoldIff")
        return KUnfoldIff(is_goal, f.left, f.right, self.name, self.rest)


@dataclass(frozen=True, slots=True)
class SRevert(SurfaceCert):
    hyp: Ident
    goal: Ident
    rest: SurfaceCert

    def kernel(self, T):
        _, hyp = _premise(T, self.hyp, want_goal=False)
        _, goal = _premise(T, self.goal, want_goal=True)
        return KRevert(hyp.formula, goal.formula, self.hyp, self.goal,
                       self.rest)


@dataclass(frozen=True, slots=True)
class SIntroQuant(SurfaceCert):
    name: Ident
    fresh: Ident
    rest: SurfaceCert

    def kernel(self, T):
        is_goal, prem = _premise(T, self.name)
        f = prem.formula
        if isinstance(f, PiType):
            raise CertError(f"SIntroQuant: premise {self.name} is "
                            "type-quantified; use SIntroType")
        if not isinstance(f, Forall if is_goal else Exists):
            raise CertError(f"SIntroQuant: premise {self.name} is not "
                            f"{'universal' if is_goal else 'existential'}")
        return KIntroQuant(is_goal, f.ty, Lam(f.var, f.ty, f.body), self.name,
                           self.fresh, self.rest)


@dataclass(frozen=True, slots=True)
class SInstQuant(SurfaceCert):
    name: Ident
    inst_name: Ident
    witness: Term
    rest: SurfaceCert

    def kernel(self, T):
        is_goal, prem = _premise(T, self.name)
        f = prem.formula
        if isinstance(f, PiType):
            raise CertError(f"SInstQuant: premise {self.name} is "
                            "type-quantified; use SInstType")
        if not isinstance(f, Exists if is_goal else Forall):
            raise CertError(f"SInstQuant: premise {self.name} is not "
                            f"{'existential' if is_goal else 'universal'}")
        return KInstQuant(is_goal, f.ty, Lam(f.var, f.ty, f.body), self.name,
                          self.inst_name, self.witness, self.rest)


@dataclass(frozen=True, slots=True)
class SIntroType(SurfaceCert):
    name: Ident
    iota: Ident
    rest: SurfaceCert

    def kernel(self, T):
        _, prem = _premise(T, self.name, want_goal=True)
        if not isinstance(prem.formula, PiType):
            raise CertError(f"SIntroType: premise {self.name} is not "
                            "type-quantified")
        return KIntroType(prem.formula, self.name, self.iota, self.rest)


@dataclass(frozen=True, slots=True)
class SInstType(SurfaceCert):
    name: Ident
    inst_name: Ident
    ty: Type
    rest: SurfaceCert

    def kernel(self, T):
        _, prem = _premise(T, self.name, want_goal=False)
        if not isinstance(prem.formula, PiType):
            raise CertError(f"SInstType: premise {self.name} is not "
                            "type-quantified")
        return KInstType(prem.formula, self.name, self.inst_name, self.ty,
                         self.rest)


@dataclass(frozen=True, slots=True)
class SEqRefl(SurfaceCert):
    name: Ident

    def kernel(self, T):
        _, goal = _premise(T, self.name, want_goal=True)
        a, _b = _eq_parts(goal, "SEqRefl")
        return KEqRefl(a, self.name)


@dataclass(frozen=True, slots=True)
class SEqSym(SurfaceCert):
    name: Ident
    rest: SurfaceCert

    def kernel(self, T):
        is_goal, prem = _premise(T, self.name)
        a, b = _eq_parts(prem, "SEqSym")
        orig, flip = eq(a, b), eq(b, a)
        ty = _eq_type(T, prem)
        n = self.name
        tmp = fresh_ident(f"{n.name}_sym", T.premise_names())
        if not is_goal:
            # prove b = a from a = b, then rename it into the old premise
            return KAssert(
                tmp, flip, _symmetry(a, b, ty, tmp, n),
                KClear(False, orig, n, KAssert(
                    n, flip, KAxiom(flip, tmp, n),
                    KClear(False, flip, tmp, self.rest))))
        # goal premise: the continuation lives in the assertion's goal branch
        return KAssert(
            tmp, flip,
            KClear(True, orig, n, KAssert(
                n, flip, KClear(True, flip, tmp, self.rest),
                KAxiom(flip, n, tmp))),
            _symmetry(b, a, ty, n, tmp))


@dataclass(frozen=True, slots=True)
class SEqTrans(SurfaceCert):
    first: Ident
    second: Ident
    name: Ident
    rest: SurfaceCert

    def kernel(self, T):
        _, p1 = _premise(T, self.first, want_goal=False)
        _, p2 = _premise(T, self.second, want_goal=False)
        a, b = _eq_parts(p1, "SEqTrans")
        b2, c = _eq_parts(p2, "SEqTrans")
        if not alpha_equal(b, b2):
            raise CertError("SEqTrans: the middle terms differ")
        z = fresh_ident("z", all_idents(c))
        return KAssert(
            self.name, eq(a, c),
            KRewrite(True, a, b, Lam(z, _eq_type(T, p1), eq(Var(z), c)),
                     self.name, self.first,
                     KAxiom(eq(b, c), self.second, self.name)),
            self.rest)


@dataclass(frozen=True, slots=True)
class SRewrite(SurfaceCert):
    right_to_left: bool
    eq_name: Ident
    name: Ident
    rest: SurfaceCert

    def kernel(self, T):
        _, heq = _premise(T, self.eq_name, want_goal=False)
        l, r = _eq_parts(heq, "SRewrite")
        ty = _eq_type(T, heq)
        is_goal, target = _premise(T, self.name)
        if not self.right_to_left:
            return KRewrite(is_goal, l, r, _abstract(target.formula, l, ty),
                            self.name, self.eq_name, self.rest)
        # flip the equation into a temporary hypothesis, rewrite, drop it
        flip = eq(r, l)
        tmp = fresh_ident(f"{self.eq_name.name}_sym", T.premise_names())
        return KAssert(
            tmp, flip, _symmetry(l, r, ty, tmp, self.eq_name),
            KRewrite(is_goal, r, l, _abstract(target.formula, r, ty),
                     self.name, tmp, KClear(False, flip, tmp, self.rest)))


@dataclass(frozen=True, slots=True)
class SInduction(SurfaceCert):
    var: Ident
    bound: Term
    hyp_name: Ident
    rec_name: Ident
    base: SurfaceCert
    rec: SurfaceCert

    def kernel(self, T):
        if len(T.goals) != 1:
            raise CertError("SInduction needs exactly one goal")
        g, i = T.goals[0], self.var
        for p in reversed(T.hyps):
            if i in free_vars(p.formula):
                # the last hypothesis mentioning i goes into the goal, and
                # comes back as a hypothesis in both cases
                inner = dataclasses.replace(
                    self, base=SIntroImp(g.name, p.name, self.base),
                    rec=SIntroImp(g.name, p.name, self.rec))
                return KRevert(p.formula, g.formula, p.name, g.name, inner)
        n = fresh_ident("n", T.formula_idents() | {i})
        context = Lam(n, INT, subst_term(g.formula, i, Var(n)))
        return KInduction(i, self.bound, context, g.name, self.hyp_name,
                          self.rec_name, self.base, self.rec)


# ---------------------------------------------------------------------------
# Tree plumbing

_BY_NAME = {cls.__name__: cls for base in (KernelCert, SurfaceCert)
            for cls in base.__subclasses__()}
# Every field, per constructor, in the order the text lists them.
_FIELDS = {cls: tuple(f.name for f in dataclasses.fields(cls))
           for cls in _BY_NAME.values()}
# Subcertificate fields per constructor, read off the declared field types:
# a skeleton's kernel nodes hold surface certificates there.
_CHILD_FIELDS = {cls: tuple(f.name for f in dataclasses.fields(cls)
                            if f.type in ("KernelCert", "SurfaceCert"))
                 for cls in _BY_NAME.values()}
# a node's subcertificates come after its other fields
assert all(_FIELDS[cls][len(_FIELDS[cls]) - len(names):] == names
           for cls, names in _CHILD_FIELDS.items())


def cert_children(node):
    return tuple(getattr(node, n) for n in _CHILD_FIELDS[type(node)])


def with_children(node, new):
    cls = type(node)
    assert len(_CHILD_FIELDS[cls]) == len(new)
    names = _FIELDS[cls]
    return cls(*[getattr(node, n) for n in names[:len(names) - len(new)]],
               *new)


def leaves(c: KernelCert) -> list[Task]:
    """Tasks stored at KHole nodes, left to right."""
    out: list[Task] = []
    todo = [c]
    while todo:
        node = todo.pop()
        if isinstance(node, KHole):
            out.append(node.task)
        else:
            todo.extend(reversed(cert_children(node)))
    return out


def rebuild(root, expand, finish):
    """The value of the tree below root, built bottom-up on an explicit
    stack. expand(item) returns (head, items) and is called on every item
    in preorder, left to right; items is a sequence. An item whose items
    are empty is a leaf and its value is head; any other item's value is
    finish(head, the values of its items)."""
    head, items = expand(root)
    if not items:
        return head
    # one frame per item being built: its head, the values of its items so
    # far, and its items still to expand
    stack = [(head, [], iter(items))]
    while True:
        head, values, todo = stack[-1]
        for item in todo:
            sub, items = expand(item)
            if items:
                stack.append((sub, [], iter(items)))
                break
            values.append(sub)
        else:
            stack.pop()
            value = finish(head, values)
            if not stack:
                return value
            stack[-1][1].append(value)


def fill_holes(c, fillers):
    """Replace the i-th hole (in preorder) by fillers[i]: the SHole nodes of a
    surface certificate, the KHole nodes of a kernel one. The walk never
    enters a filler."""
    hole = SHole if isinstance(c, SurfaceCert) else KHole
    fillers = list(fillers)
    it = iter(fillers)
    used = 0

    def fill(node):
        nonlocal used
        if isinstance(node, hole):
            used += 1
            return next(it, None), ()
        return node, cert_children(node)

    out = rebuild(c, fill, with_children)
    if used != len(fillers):
        raise CertError(
            f"certificate has {used} holes, got {len(fillers)} fillers")
    return out


def keep_kernel(s: SurfaceCert, T: Task, k: KernelCert) -> None:
    """Keep k on s as s elaborated against T: elaborate(s, T) returns it for
    this very s and this very T without a replay. The entry is an attribute
    of s, so it is keyed by identity and dies with s. Elaboration is not
    trusted, ccheck replays what it returns, so a transformation may keep
    only the certificate elaborate would build."""
    object.__setattr__(s, "_kept", (T, k))


def kept_kernel(s, T: Task) -> KernelCert | None:
    """The kernel certificate kept on s for this very T, or None."""
    kept = getattr(s, "_kept", None)
    if kept is None or kept[0] is not T:
        return None
    return kept[1]


# ---------------------------------------------------------------------------
# Serialization

def _node_text(node):
    """cert_dumps' expand: a node's constructor name and its fields."""
    names = _FIELDS.get(type(node))
    if names is None:
        raise CertError(f"cannot serialize payload {node!r}")
    return type(node).__name__, [getattr(node, n) for n in names]


# field annotations name the payload kinds; this is the wire schema
_KINDS = {"bool": bool, "Ident": Ident, "Term": Term, "Type": Type,
          "Task": Task, "KernelCert": KernelCert, "SurfaceCert": SurfaceCert}


def _read_bool(tokens, i, cache):
    tok = tokens[i]
    if tok == "#t":
        return True, i + 1
    if tok == "#f":
        return False, i + 1
    raise CertError(f"expected #t/#f, got {sexpr.quote_at(tokens, i)}")


def _read_ident(tokens, i, cache):
    name = sexpr.read_ident(tokens, i)
    if name is None:
        raise CertError(
            f"expected an identifier, got {sexpr.quote_at(tokens, i)}")
    return name, i + 1


_READERS = {bool: _read_bool, Ident: _read_ident, Term: sexpr.read_term,
            Type: sexpr.read_type, Task: sexpr.read_task}


def _schema(cls):
    """The readers of cls's payloads before its subcertificates, the kinds
    of its subcertificates, its number of payloads, and its own kind."""
    kinds = tuple(_KINDS[f.type] for f in dataclasses.fields(cls))
    split = len(kinds) - len(_CHILD_FIELDS[cls])
    return (tuple(_READERS[k] for k in kinds[:split]), kinds[split:],
            len(kinds),
            KernelCert if issubclass(cls, KernelCert) else SurfaceCert)


_SCHEMA = {cls: _schema(cls) for cls in _BY_NAME.values()}


def _node_misfit(tokens, o, lists) -> str | None:
    name = tokens[o + 1]
    n = _SCHEMA[_BY_NAME[name]][2]
    got = len(lists[o]) - 1
    return None if got == n else f"{name} takes {n} payloads, got {got}"


def _head_error(tokens, i) -> CertError:
    """The error for a list at tokens[i] that names no constructor."""
    head = tokens[i + 1]
    if head in "()" or not isinstance(sexpr.form_at(tokens, i + 1), str):
        return CertError(f"bad certificate syntax {sexpr.quote_at(tokens, i)}")
    return CertError(f"unknown certificate constructor {head}")


def _closed(tokens, i, frames) -> int:
    """Close the innermost open node, whose payloads are all read: the
    index after its )."""
    if tokens[i] != ")":
        raise CertError(sexpr.first_misfit(tokens, [frames[-1][3]],
                                           _node_misfit))
    frames.pop()
    return i + 1


def _read_cert(tokens, i, cache):
    """The certificate at tokens[i] and the index after it (a reader as
    sexpr's are). A node's payloads are read with sexpr's readers, then its
    kind is checked against the one its parent's field wants, then its
    subcertificates are read, so errors come in preorder."""
    # per open node: its constructor, its values so far, its schema and
    # its index
    frames: list[tuple] = []
    want = None  # the kind the next node must have; None at the root
    try:
        while True:
            tok = tokens[i]
            if tok == "(":
                cls = _BY_NAME.get(tokens[i + 1])
                if cls is None:
                    raise _head_error(tokens, i)
                schema = _SCHEMA[cls]
                args: list = []
                frames.append((cls, args, schema, i))
                i += 2
                for read in schema[0]:
                    value, i = read(tokens, i, cache)
                    args.append(value)
                if want is not None and schema[3] is not want:
                    raise CertError(f"{cls.__name__} is not a {want.__name__}")
                if schema[1]:
                    want = schema[1][0]
                    continue
                i = _closed(tokens, i, frames)
                node = cls(*args)
            elif tok == "SHole":
                if want is KernelCert:
                    raise CertError("SHole is not a KernelCert")
                i += 1
                node = SHole()
            else:
                raise CertError(
                    f"bad certificate syntax {sexpr.quote_at(tokens, i)}")
            # give node to its parent, and close each node that completes
            while frames:
                cls, args, schema, _ = frames[-1]
                args.append(node)
                left = schema[2] - len(args)
                if left:
                    want = schema[1][-left]
                    break
                i = _closed(tokens, i, frames)
                node = cls(*args)
            else:
                return node, i
    except (CertError, sexpr.SexprError, TaskError, IndexError):
        message = sexpr.first_misfit(tokens, [f[3] for f in frames],
                                     _node_misfit)
        if message is not None:
            raise CertError(message) from None
        raise


def cert_dumps(c) -> str:
    """The text cert_loads reads back as c, printed by sexpr's printer in
    one pass: each formula, type or task object is walked once per call,
    and its later occurrences copy the text it printed."""
    return sexpr.to_text(c, _node_text)


def cert_loads(text: str):
    """The certificate `text` spells; CertError for text that spells none,
    truncated or unbalanced text included.

    One pass over the text's tokens builds each node when its ) arrives.
    Formulas are built through core's constructors, which hash-cons them,
    so a subterm structurally identical to a live one, such as a formula
    of the task the certificate is checked against, is that very object."""
    try:
        return sexpr.read_text(_read_cert, text)
    except (sexpr.SexprError, TaskError) as e:
        raise CertError(f"malformed certificate text: {e}") from e


# ---------------------------------------------------------------------------
# Elaboration

_OPNAME = {"and": "a conjunction", "or": "a disjunction",
           "imp": "an implication", "iff": "an equivalence"}


def _premise(T: Task, name: Ident, want_goal: bool | None = None):
    found = T._by_name.get(name)
    if found is None:
        raise CertError(f"no premise named {name}")
    is_goal, prem = found
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
    sides = eq_sides(prem.formula)
    if sides is None:
        raise CertError(f"{who}: premise {prem.name} is not an equality")
    return sides


def _eq_type(T: Task, prem) -> Type:
    """The type the equation prem equates at: the instance of its =, as
    T's typing context judged it. T is judged: elaborate judges the root
    task and checker.step every task it derives."""
    info, path = typing_of(T, prem.formula)
    return info.inst[path + (0, 0)][0]


def _symmetry(a: Term, b: Term, ty: Type, goal: Ident,
              hyp: Ident) -> KernelCert:
    """Close the goal b = a with the hypothesis a = b: rewrite the goal
    to b = b, which reflexivity closes."""
    z = fresh_ident("z", all_idents(b))
    return KRewrite(True, a, b, Lam(z, ty, eq(b, Var(z))), goal, hyp,
                    KEqRefl(b, goal))


def _abstract(formula: Term, needle: Term, ty: Type) -> Term:
    """The rewriting context: formula with every free occurrence of needle
    (of type ty) abstracted into a fresh bound variable."""
    z = fresh_ident("z", all_idents(formula) | all_idents(needle))
    hits: list[Term] = []
    body = _abstract_in(formula, needle, free_vars(needle), z, frozenset(), hits)
    if not hits:
        raise CertError("no occurrence of the equation side in the premise")
    return Lam(z, ty, body)


def _abstract_in(t: Term, needle: Term, needed: frozenset[Ident], z: Ident,
                 blocked: frozenset[Ident], hits: list[Term]) -> Term:
    """_abstract's walk below binders of the names in blocked; each
    occurrence replaced is added to hits. A module function: a nested
    walker that calls itself is a reference cycle."""
    if not (needed & blocked) and alpha_equal(t, needle):
        hits.append(t)
        return Var(z)
    if isinstance(t, (Var, Top, Bottom, IntLit)):
        return t
    if isinstance(t, Not):
        return Not(_abstract_in(t.body, needle, needed, z, blocked, hits))
    if isinstance(t, BinOp):
        return BinOp(t.op, _abstract_in(t.left, needle, needed, z, blocked, hits),
                     _abstract_in(t.right, needle, needed, z, blocked, hits))
    if isinstance(t, App):
        return App(_abstract_in(t.fn, needle, needed, z, blocked, hits),
                   _abstract_in(t.arg, needle, needed, z, blocked, hits))
    if isinstance(t, (Lam, Exists, Forall)):
        return type(t)(t.var, t.ty, _abstract_in(
            t.body, needle, needed, z, blocked | {t.var}, hits))
    if isinstance(t, PiType):
        return PiType(t.var, _abstract_in(t.body, needle, needed, z, blocked, hits))
    raise CertError(f"cannot rewrite inside {t!r}")


def elaborate_node(item):
    """elaborate's expand: item is a certificate c and the task T it
    applies to. A surface c is expanded into its kernel skeleton at T (an
    SHole into the KHole of T); the kernel node is stepped once by
    checker.step, and each of its children is paired with the task that
    step derives for it."""
    c, T = item
    if isinstance(c, SurfaceCert):
        if isinstance(c, SHole):
            return KHole(T), ()
        c = c.kernel(T)
    try:
        tasks = checker.step(T, c, ())
    except checker.CheckError as e:
        raise CertError(e.failure.message) from e
    return c, [(getattr(c, name), t)
               for name, t in zip(_CHILD_FIELDS[type(c)], tasks)]


def elaborate(s: SurfaceCert, T: Task) -> KernelCert:
    """Replay s against T, filling in the formulas each rule touches.

    A transformation keeps the kernel certificate it built for the
    certificate it returns (keep_kernel); for that very s on that very T,
    checked by identity, elaborate returns it, and replays otherwise.

    T is judged first (CertError if it is not well-typed), so its premises
    and their operands are recorded in its typing context before any rule
    leaves one of them as a premise of its own. The replay is rebuild with
    elaborate_node, so it takes no interpreter stack per level: each
    surface node is expanded into its kernel skeleton at the task it
    applies to, every kernel node of the skeleton is stepped once by
    checker.step, and its children are elaborated against the tasks that
    step derives. Raises CertError at the first failing rule in
    depth-first, left-to-right order: a missing premise, a premise of the
    wrong shape for the certificate applied to it, or a failed side
    condition. The resulting kernel certificate passes ccheck against T.
    """
    kept = kept_kernel(s, T)
    if kept is not None:
        return kept
    if not isinstance(s, SurfaceCert):
        raise CertError(f"unknown surface certificate {type(s).__name__}")
    if not well_typed(T):
        raise CertError("the task is not well-typed")
    return rebuild((s, T), elaborate_node, with_children)


# checker imports this module, so it is bound last; elaboration only reads
# it at call time.
from . import checker  # noqa: E402
