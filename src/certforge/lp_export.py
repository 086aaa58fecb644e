"""Shallow λΠ embedding of tasks and kernel certificates.

Propositions become types through the usual impredicative encodings
(conjunction, disjunction, falsity as their elimination schemes), a task
becomes the type stating that its premises entail absurdity, and a checked
certificate becomes a lambda term built from a fixed set of combinators that
live in a hand-written preamble. emit_module() renders one application
T -> L as a single deterministic text file:

    symbol task1 : TYPE = (each resulting task, encoded)
    symbol initial : TYPE = (the initial task, encoded)
    symbol proof : task1 -> ... -> taskN -> initial = (the certificate)

emit_module raises ExportError for every certificate ccheck refuses and
every L that differs from the leaves the certificate derives.

One Encoder per emit_module call serves the proof term and every task
statement, and encodes each judgment once. The Encoder reads the typing
the replay already did instead of typing again: task.judgment gives the
record the task's typing context keeps of a formula it judged, which is
its key, so a premise every task keeps is encoded once; on a miss,
task.typing_of gives the Typing and the formula's path in its premise, and
the formula is encoded from that Typing at that path, a negation or
connective from its operands' encodings. Only the terms a certificate
carries (witnesses, predicates, rewrite sides, a reflexivity term) and
formulas no context judged are typed, whole, keyed on (the task's typing
context, the term, the type it is judged against); a chain export types
nothing. Each signature scheme is encoded once.

The proof term is built in one pass over checker.derive's list of nodes,
from last to first, so each node finds its children's terms made.

emit_module prints each encoding the Encoder returned once: its text and
the names free in it are kept for the call, and every later occurrence
reuses them, adding the parentheses its place requires.

Nothing here typechecks λΠ terms; emitted text is kept honest by structural
golden tests, premise λs named apart from every symbol, the free-name audit
of the walk that prints each statement (exact at every occurrence of a
shared encoding), and optionally an external checker (see tests). The
preamble's trust surface is three axioms: excluded middle, totality of <=
versus > on int, and bounded course-of-values induction; every other
combinator is a definition.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

from . import cert, checker
from .core import (
    INT,
    INTERPRETED,
    PROP,
    App,
    Arrow,
    BinOp,
    Bottom,
    Exists,
    Forall,
    Ident,
    IntLit,
    Lam,
    Not,
    PiType,
    Prop,
    TApp,
    TVar,
    Term,
    Top,
    Type,
    Typing,
    Var,
    annotate,
    type_heads,
    type_vars,
)
from .task import (Task, judgment, task_alpha_equal, typing_of,
                   used_declarations)


class ExportError(Exception):
    """Not a checked application, or a failed consistency check (scope audit)."""


# ---------------------------------------------------------------------------
# λΠ terms

class LpTerm:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class LSort(LpTerm):
    """The sort of propositions-as-types, printed TYPE."""


@dataclass(frozen=True, slots=True)
class LProd(LpTerm):
    var: str
    dom: LpTerm
    body: LpTerm


@dataclass(frozen=True, slots=True)
class LArrow(LpTerm):
    left: LpTerm
    right: LpTerm


@dataclass(frozen=True, slots=True)
class LLam(LpTerm):
    var: str
    ann: LpTerm | None
    body: LpTerm


@dataclass(frozen=True, slots=True)
class LApp(LpTerm):
    fn: LpTerm
    arg: LpTerm


@dataclass(frozen=True, slots=True)
class LConst(LpTerm):
    name: str


@dataclass(frozen=True, slots=True)
class LVar(LpTerm):
    name: str


SORT = LSort()
# falsity and truth, spelled out exactly as the encoding table produces them
LP_BOT = LProd("C", SORT, LVar("C"))
LP_TOP = LArrow(LP_BOT, LP_BOT)


def lapp(fn: LpTerm, *args: LpTerm) -> LpTerm:
    for a in args:
        fn = LApp(fn, a)
    return fn


def arrows(*ts: LpTerm) -> LpTerm:
    out = ts[-1]
    for t in reversed(ts[:-1]):
        out = LArrow(t, out)
    return out


def neg(t: LpTerm) -> LpTerm:
    return LArrow(t, LP_BOT)


@contextmanager
def _raised_recursion_limit():
    """The printer (_format) and the encoders (_encode, _encode_type and
    the Encoder along a formula's spine) call themselves once per level of
    each term, so the public entry points run them under a limit of at
    least 40 000, and give the caller's limit back on the way out."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 40000))
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


# What emit_module's printer knows of each node it prints once, by the
# node's id: None before its first occurrence, then its text at precedence
# 0 and the names free in it. The caller keeps the nodes alive.
_PrintMemo = dict[int, tuple[str, set[str]] | None]
_UNSHARED = object()


def _format(t: LpTerm, prec: int, bound: dict[str, int], free: set[str],
            memo: _PrintMemo) -> str:
    """t's text at precedence prec (0 admits everything, 1 an arrow
    operand, whose arrows and binders get parentheses, 2 an application
    head, 3 an application argument), adding to free every name t uses that
    no binder above it binds; bound counts the open binders of each name.

    A node memo lists is walked at its first occurrence only, in the same
    frame, so the recursion is as deep as the tree walk's. Every
    occurrence adds the parentheses prec requires, and adds to free those
    of the node's free names that no binder open there binds: the text and
    the free names are the tree walk's."""
    if isinstance(t, (LConst, LVar)):
        if not bound.get(t.name):
            free.add(t.name)
        return t.name
    hit = memo.get(id(t), _UNSHARED)
    if hit is not _UNSHARED:
        if hit is not None:
            s, names = hit
            for name in names:
                if not bound.get(name):
                    free.add(name)
            return f"({s})" if prec > (2 if isinstance(t, LApp) else 0) else s
        # the first occurrence: walk t on its own, then add as above
        outer_bound, outer_free = bound, free
        bound, free = {}, set()
    if isinstance(t, LApp):
        s = (f"{_format(t.fn, 2, bound, free, memo)} "
             f"{_format(t.arg, 3, bound, free, memo)}")
        opens = 2
    elif isinstance(t, LSort):
        return "TYPE"
    elif isinstance(t, LArrow):
        s = (f"{_format(t.left, 1, bound, free, memo)} → "
             f"{_format(t.right, 0, bound, free, memo)}")
        opens = 0
    elif isinstance(t, (LProd, LLam)):
        # Π x : dom, body; λ x, body or λ x : ann, body
        ann = t.dom if isinstance(t, LProd) else t.ann
        ann = "" if ann is None else f" : {_format(ann, 1, bound, free, memo)}"
        bound[t.var] = bound.get(t.var, 0) + 1
        s = (f"{'Π' if isinstance(t, LProd) else 'λ'} {t.var}{ann}, "
             f"{_format(t.body, 0, bound, free, memo)}")
        bound[t.var] -= 1
        opens = 0
    else:
        raise TypeError(f"unknown λΠ node {t!r}")
    if hit is None:
        memo[id(t)] = (s, free)
        for name in free:
            if not outer_bound.get(name):
                outer_free.add(name)
    return f"({s})" if prec > opens else s


# ---------------------------------------------------------------------------
# name mangling

_LP_KEYWORDS = frozenset({
    "TYPE", "symbol", "rule", "require", "open", "assert", "begin", "end",
    "in", "let", "type", "with", "builtin", "constant", "injective",
    "opaque", "private", "protected", "sequential",
})

# binder names the encoders and the module skeleton hand out themselves
_EMITTER_NAMES = frozenset({"C", "Q", "initial", "proof"})


# the names emit_module gives hole identifiers and resulting tasks
_NUMBERED = re.compile(r"(s|task)[0-9]+")


def _lp_reserved(name: str) -> bool:
    return (name in _LP_KEYWORDS or name in _EMITTER_NAMES
            or name in PREAMBLE_NAMES or _NUMBERED.fullmatch(name) is not None)


def mangle(name: Ident) -> str:
    """Emitter-safe rendering of an object-language identifier.

    Injective: non-alphanumerics (and a leading digit) become _hh hex
    escapes, a nonzero uid becomes a _u<digits> suffix, and collisions with
    reserved emitter names get a uniform u_ prefix.
    """
    base = name.name
    if not (base.isascii() and base.isalnum()) or base[0].isdigit():
        out = []
        for k, ch in enumerate(base):
            if (ch.isascii() and ch.isalnum()) and not (k == 0 and ch.isdigit()):
                out.append(ch)
            else:
                out.append("_%02x" % ord(ch))
        base = "".join(out) or "_5f"
    if name.uid:
        base += f"_u{name.uid}"
    if _lp_reserved(base) or base.startswith("u_"):
        base = "u_" + base
    return base


def _freshen(base: str, avoid: frozenset[str]) -> str:
    # mangle never produces a _v suffix, so this cannot collide with it
    name, k = base, 0
    while name in avoid:
        k += 1
        name = f"{base}_v{k}"
    return name


# ---------------------------------------------------------------------------
# encoding terms and types

_INTERP_CONST = {"+": "add", "*": "mul", "-": "sub",
                 "<": "lt", ">": "gt", "<=": "le", ">=": "ge"}


def _pos_term(n: int) -> LpTerm:
    if n == 1:
        return LConst("xH")
    half = _pos_term(n // 2)
    return LApp(LConst("xI" if n % 2 else "xO"), half)


def _int_term(n: int) -> LpTerm:
    if n == 0:
        return LConst("Z0")
    if n > 0:
        return LApp(LConst("Zpos"), _pos_term(n))
    return LApp(LConst("Zneg"), _pos_term(-n))


def _encode_type(ty: Type, tvs: dict[Ident, str] | None = None) -> LpTerm:
    if isinstance(ty, Prop):
        return SORT
    if isinstance(ty, Arrow):
        return LArrow(_encode_type(ty.left, tvs), _encode_type(ty.right, tvs))
    if isinstance(ty, TVar):
        if tvs is None or ty.name not in tvs:
            raise ExportError(f"stray type variable {ty.name}")
        return LVar(tvs[ty.name])
    if isinstance(ty, TApp):
        if ty == INT:
            return LConst("int")
        head: LpTerm = LVar(mangle(ty.head))
        return lapp(head, *(_encode_type(a, tvs) for a in ty.args))
    raise ExportError(f"unencodable type {ty!r}")


def _encode_scheme(scheme: Type) -> LpTerm:
    """A signature entry: type variables become leading Π binders."""
    tvs = type_vars(scheme)
    avoid = frozenset(mangle(h) for h in type_heads(scheme) - {INT.head}) | {"int"}
    names: dict[Ident, str] = {}
    for a in tvs:
        names[a] = _freshen(mangle(a), avoid | frozenset(names.values()))
    body = _encode_type(scheme, names)
    for a in reversed(tvs):
        body = LProd(names[a], SORT, body)
    return body


# The binder of the and/or/iff/exists encodings. No encoding has a free C,
# so this binder captures nothing it scopes over: a free name is a preamble
# constant (C is none) or comes from mangle, which renders an object symbol
# C as u_C, perhaps with _freshen's _v suffix.
_C = "C"


def _connective(op: str, l: LpTerm, r: LpTerm) -> LpTerm:
    if op == "imp":
        return LArrow(l, r)
    c = LVar(_C)
    if op == "and":
        return LProd(_C, SORT, LArrow(arrows(l, r, c), c))
    if op == "or":
        return LProd(_C, SORT, arrows(LArrow(l, c), LArrow(r, c), c))
    if op == "iff":
        return LProd(_C, SORT, LArrow(arrows(LArrow(l, r), LArrow(r, l), c), c))
    raise ExportError(f"unknown connective {op}")


def _encode(t: Term, path: tuple[int, ...], info, sig: Mapping[Ident, Type]) -> LpTerm:
    if isinstance(t, Var):
        if t.name not in sig and t.name in INTERPRETED:
            if str(t.name) == "=":
                tau = info.inst[path][0]
                return LApp(LConst("eq"), _encode_type(tau))
            return LConst(_INTERP_CONST[str(t.name)])
        head: LpTerm = LVar(mangle(t.name))
        for tau in info.inst.get(path, ()):
            head = LApp(head, _encode_type(tau))
        return head
    if isinstance(t, IntLit):
        return _int_term(t.value)
    if isinstance(t, Bottom):
        return LP_BOT
    if isinstance(t, Top):
        return LP_TOP
    if isinstance(t, Not):
        return neg(_encode(t.body, path + (0,), info, sig))
    if isinstance(t, BinOp):
        return _connective(t.op, _encode(t.left, path + (0,), info, sig),
                           _encode(t.right, path + (1,), info, sig))
    if isinstance(t, App):
        return LApp(_encode(t.fn, path + (0,), info, sig),
                    _encode(t.arg, path + (1,), info, sig))
    if isinstance(t, Forall):
        body = _encode(t.body, path + (0,), info, sig)
        return LProd(mangle(t.var), _encode_type(t.ty), body)
    if isinstance(t, Exists):
        body = _encode(t.body, path + (0,), info, sig)
        c = LVar(_C)
        return LProd(_C, SORT, LArrow(
            LProd(mangle(t.var), _encode_type(t.ty), LArrow(body, c)), c))
    if isinstance(t, Lam):
        body = _encode(t.body, path + (0,), info, sig)
        return LLam(mangle(t.var), _encode_type(t.ty), body)
    if isinstance(t, PiType):
        raise ExportError("type quantifier below the prenex prefix")
    raise ExportError(f"unencodable term {t!r}")


def encode_term(t: Term, I: Mapping[Ident, int] | None = None,
                sig: Mapping[Ident, Type] | None = None,
                expected: Type | None = None) -> LpTerm:
    """The impredicative encoding of a well-typed term.

    I and sig supply the typing environment; they default to empty and are
    only read. Instances are chosen as annotate(I, sig, t, expected)
    chooses them: pass expected=PROP for a formula, so that a polymorphic
    symbol standing for a proposition is encoded at TYPE. The prenex type
    quantifiers become Π binders over TYPE, named after the fresh type
    symbols annotate() renamed them to, so the instances it recorded line
    up with the binders.
    """
    sig = {} if sig is None else sig
    return _encode_typing(annotate(I or {}, sig, t, expected), sig)


def _encode_typing(info: Typing, sig: Mapping[Ident, Type]) -> LpTerm:
    """The encoding of the term info types: its body under one Π binder
    over TYPE per type symbol its prefix was renamed to."""
    out = _encode(info.body, (), info, sig)
    for iota in reversed(info.iotas):
        out = LProd(mangle(iota), SORT, out)
    return out


class Encoder:
    """The encodings of one export, each judgment encoded once.

    Called as enc(f, task) for a formula judged against prop, and as
    enc(t, task, expected) for a term a node carries, judged against the
    type the node gives it.

    A formula judged against prop that task's typing context judged (see
    task.judgment) is not typed again: it is encoded from the Typing
    typing_of gives at its path, a negation or connective from its
    operands' encodings. Its memo key is the judgment's record, one object
    per judgment, and the memo holds the record; its path is built only on
    a miss. A premise that extend_sig/extend_types keeps keeps its record
    (see well_typed), as does one that a task built with the same
    declarations found judged (say, a certificate's leaf task read while
    the task it derives from lives; see the task module docstring), so it
    is encoded once for every task that holds it; one that the new
    declaration could change is judged again, under a new record. Every
    other formula, and every term a node carries, is typed whole by
    encode_term, under the key (task's typing context, f, expected): tasks
    that share a typing context have the same declarations (see
    task.well_typed), and f is hash-consed (see core), so the same key
    always stands for the same judgment.

    scheme(ty) encodes a signature entry, once per scheme, in the same
    memo. encodings() lists every encoding returned so far.
    """

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        # key -> (the judgment's record when the key is its id, kept so
        # that no other record takes that id while the memo lives, and the
        # encoding)
        self._memo: dict[object, tuple[object, LpTerm]] = {}

    def __call__(self, f: Term, task: Task,
                 expected: Type | None = PROP) -> LpTerm:
        return self._encoding(f, task, expected)

    def _encoding(self, f: Term, task: Task, expected: Type | None) -> LpTerm:
        # a plain method, so each level of a negation or connective spine
        # costs one interpreter frame, not two through the call slot
        judged = judgment(task, f) if expected == PROP else None
        key = (task._ctx, f, expected) if judged is None else id(judged)
        hit = self._memo.get(key)
        if hit is not None:
            return hit[1]
        if judged is None:
            out = encode_term(f, task.types_map(), task.sig_map(), expected)
        elif isinstance(f, Not):
            out = neg(self._encoding(f.body, task, PROP))
        elif isinstance(f, BinOp):
            out = _connective(f.op, self._encoding(f.left, task, PROP),
                              self._encoding(f.right, task, PROP))
        else:
            info, path = typing_of(task, f)
            # an operand's premise has no type prefix: it is no PiType
            out = (_encode(f, path, info, task.sig_map()) if path
                   else _encode_typing(info, task.sig_map()))
        self._memo[key] = (judged, out)
        return out

    def scheme(self, scheme: Type) -> LpTerm:
        hit = self._memo.get(scheme)
        if hit is None:
            hit = self._memo[scheme] = (None, _encode_scheme(scheme))
        return hit[1]

    def encodings(self) -> Iterator[LpTerm]:
        for _, out in self._memo.values():
            yield out


# ---------------------------------------------------------------------------
# encoding tasks

def encode_task(T: Task, *, prune: bool = False,
                encoder: Encoder | None = None) -> LpTerm:
    """A task as the type: symbols imply premises imply absurdity.

    With prune=True only declarations mentioned by some premise are
    quantified; hole tasks are encoded that way so their statements stay
    minimal, while an initial task keeps its full declaration list (a
    certificate may introduce formulas over symbols no premise mentions).
    Each premise is encoded as a formula judged against prop, and each
    scheme as a signature entry, through encoder (a fresh Encoder by
    default): emit_module encodes its task statements with the one its
    proof term used, so a judgment the certificate already encoded is not
    encoded again.
    """
    decls = used_declarations(T) if prune else (T.types, T.sig)
    return _task_type(T, decls, Encoder() if encoder is None else encoder)


_Decls = tuple[tuple[tuple[Ident, int], ...], tuple[tuple[Ident, Type], ...]]


def _task_type(T: Task, decls: _Decls, enc: Encoder) -> LpTerm:
    """encode_task, quantifying the (types, sig) entries decls lists."""
    tsyms, ssyms = decls
    out = arrows(*(enc(h.formula, T) for h in T.hyps),
                 *(neg(enc(g.formula, T)) for g in T.goals),
                 LP_BOT)
    for name, scheme in reversed(ssyms):
        out = LProd(mangle(name), enc.scheme(scheme), out)
    for name, arity in reversed(tsyms):
        out = LProd(mangle(name), arrows(*[SORT] * (arity + 1)), out)
    return out


# ---------------------------------------------------------------------------
# proof terms

@_raised_recursion_limit()
def proof_term(c: cert.KernelCert, T: Task, L: list[Task],
               encoder: Encoder | None = None) -> LpTerm:
    """The certificate as a λ-term of the type stating that the tasks of L
    entail T: each leaf encoded with prune=True, then T (see encode_task).

    Hole identifiers come first, then the initial task's type symbols,
    function symbols and premise names; each rule application becomes its
    preamble combinator applied to the formulas the node records, and a
    hole becomes its identifier applied to the symbols and premises of its
    task in L, in that task's declaration order, so the application matches
    the task's encoding. The task at each node comes from checker.derive.
    ExportError for anything ccheck refuses ("certificate rejected: ..."),
    and for an L that is not alpha-equal, task by task, to the leaves.
    Formulas are encoded through encoder (a fresh Encoder by default),
    under the typing context of the task at their node.

    A premise is the variable of the λ that bound it: derive has checked
    it is in scope, and a rule that changes a premise's encoding, KRewrite
    included, binds the new premise in its continuation. That λ is named
    mangle(name), freshened against every symbol the derivation declares.
    """
    return _proof_term(c, T, L, Encoder() if encoder is None else encoder)[0]


def _proof_term(c: cert.KernelCert, T: Task, L: list[Task],
                enc: Encoder) -> tuple[LpTerm, list[_Decls]]:
    """proof_term, and the declarations each task of L uses (see
    used_declarations), in L's order, computed once for the proof term
    and the task statements."""
    try:
        replay = list(checker.derive(c, T))
    except checker.CheckError as e:
        raise ExportError(f"certificate rejected: {e.failure}") from e
    holes = [(path, task) for path, node, task in replay
             if isinstance(node, cert.KHole)]
    if len(holes) != len(L):
        raise ExportError(
            f"certificate has {len(holes)} holes, {len(L)} tasks given")
    for i, (path, task) in enumerate(holes):
        if not task_alpha_equal(task, L[i]):
            raise ExportError(f"task {i + 1} differs from the task the "
                              f"certificate derives at {list(path)}")
    used = [used_declarations(leaf) for leaf in L]
    declared = [mangle(name) for name, _ in T.types + T.sig]
    symbols = frozenset(declared).union(
        mangle(node.fresh if isinstance(node, cert.KIntroQuant) else node.iota)
        for _, node, _ in replay
        if isinstance(node, (cert.KIntroQuant, cert.KIntroType)))
    st = _Walk(enc, L, used, symbols)
    # derive lists a node before its children, so taken from last to
    # first each node finds its children's terms made, the first on top;
    # a node's entry goes as it is taken
    while replay:
        _, node, task = replay.pop()
        st.made.append((_walk(st, node, task), task))
    out = _under(st, *(p.name for p in T.premises()))
    for name in reversed([f"s{i + 1}" for i in range(len(L))] + declared):
        out = LLam(name, None, out)
    return out, used


class _Walk:
    """What _walk reads while it builds one proof term: the term and the
    task of each subtree made and not yet taken by its parent, the number
    of the last hole not yet reached, and the λ variable it names each
    premise by. The walker is a module function that takes it as an
    argument: a nested one would close over it, and the cycle would keep
    the replay alive until the cycle collector ran."""

    __slots__ = ("enc", "leaves", "used", "symbols", "made", "holes",
                 "premise_vars")

    def __init__(self, enc: Encoder, leaves: list[Task], used: list[_Decls],
                 symbols: frozenset[str]) -> None:
        self.enc, self.leaves = enc, leaves
        self.used, self.symbols = used, symbols
        self.made: list[tuple[LpTerm, Task]] = []
        self.holes = len(leaves)
        self.premise_vars: dict[Ident, LVar] = {}

    def premise_var(self, name: Ident) -> LVar:
        if name not in self.premise_vars:
            self.premise_vars[name] = LVar(_freshen(mangle(name), self.symbols))
        return self.premise_vars[name]


def _under(st: _Walk, *names: Ident) -> LpTerm:
    """The next child's term, taken off st.made, under one λ per premise
    it binds, in order."""
    out = st.made.pop()[0]
    for n in reversed(names):
        out = LLam(st.premise_var(n).name, None, out)
    return out


def _walk(st: _Walk, node: cert.KernelCert, task: Task) -> LpTerm:
    """The proof term of node, whose task is task, from its children's
    terms, which it takes off st.made in order (see _under)."""
    if isinstance(node, cert.KHole):
        # holes come last to first, each checked against its task above
        i, st.holes = st.holes, st.holes - 1
        tsyms, ssyms = st.used[i - 1]
        return lapp(LVar(f"s{i}"),
                    *(LVar(mangle(n)) for n, _ in tsyms + ssyms),
                    *(st.premise_var(p.name)
                      for p in st.leaves[i - 1].premises()))

    if isinstance(node, cert.KTrivial):
        if node.goal:
            return LApp(LConst("triv"), st.premise_var(node.name))
        return st.premise_var(node.name)

    if isinstance(node, cert.KAxiom):
        return lapp(LConst("axm"), st.enc(node.formula, task),
                    st.premise_var(node.hyp), st.premise_var(node.goal))

    if isinstance(node, cert.KEqRefl):
        # the goal's instances, as the task's typing context judged them
        # (cert._eq_type reads = there too): the term is not typed again
        info, at = typing_of(task, task.find(node.name)[2].formula)
        witness = lapp(LConst("eq_refl"), _encode_type(info.inst[at + (0, 0)][0]),
                       _encode(node.term, at + (0, 1), info, task.sig_map()))
        return LApp(st.premise_var(node.name), witness)

    if isinstance(node, cert.KAssert):
        return lapp(LConst("cut"), st.enc(node.formula, task),
                    _under(st, node.name), _under(st, node.name))

    if isinstance(node, cert.KSplit):
        comb = "split_goal" if node.goal else "split"
        return lapp(LConst(comb), st.enc(node.left, task),
                    st.enc(node.right, task),
                    _under(st, node.name), _under(st, node.name),
                    st.premise_var(node.name))

    if isinstance(node, cert.KDestruct):
        comb = "destruct_goal" if node.goal else "destruct"
        return lapp(LConst(comb), st.enc(node.left, task),
                    st.enc(node.right, task),
                    _under(st, node.left_name, node.right_name),
                    st.premise_var(node.name))

    if isinstance(node, (cert.KClear, cert.KUnfoldIff)) or (
            isinstance(node, cert.KSwapNeg) and not node.goal):
        # a cleared premise is named again only under a λ rebinding it;
        # the iff encoding is already both arrows' conjunction; a negated
        # hypothesis and the goal it becomes share the encoding
        return _under(st)

    if isinstance(node, cert.KSwapNeg):
        return lapp(LConst("swapneg_goal"), st.enc(node.formula, task),
                    _under(st, node.name), st.premise_var(node.name))

    if isinstance(node, cert.KIntroImp):
        return lapp(LConst("intro_imp"), st.enc(node.left, task),
                    st.enc(node.right, task),
                    _under(st, node.hyp_name, node.name),
                    st.premise_var(node.name))

    if isinstance(node, cert.KSplitImp):
        # the premise's operands, which the replay judged with it and the
        # children hold; node.left/right are only alpha-equal to them
        split = task.find(node.name)[2].formula
        return lapp(LConst("split_imp"), st.enc(split.left, task),
                    st.enc(split.right, task),
                    _under(st, node.goal_name), _under(st, node.name),
                    st.premise_var(node.name))

    if isinstance(node, cert.KRevert):
        return lapp(LConst("revert"), st.enc(node.hyp_formula, task),
                    st.enc(node.goal_formula, task), st.premise_var(node.hyp),
                    st.premise_var(node.goal),
                    _under(st, node.goal))

    if isinstance(node, cert.KIntroQuant):
        comb = "intro_all" if node.goal else "intro_ex"
        cont = LLam(mangle(node.fresh), None, _under(st, node.name))
        return lapp(LConst(comb), _encode_type(node.ty),
                    st.enc(node.pred, task, Arrow(node.ty, PROP)), cont,
                    st.premise_var(node.name))

    if isinstance(node, cert.KInstQuant):
        comb = "inst_ex" if node.goal else "inst_all"
        return lapp(LConst(comb), _encode_type(node.ty),
                    st.enc(node.pred, task, Arrow(node.ty, PROP)),
                    st.enc(node.witness, task, node.ty),
                    _under(st, node.inst_name),
                    st.premise_var(node.name))

    if isinstance(node, cert.KIntroType):
        # the child task declares iota and holds the opened goal
        child = st.made[-1][1]
        iota = mangle(node.iota)
        pred = LLam(iota, None,
                    st.enc(child.find(node.name)[2].formula, child))
        cont = LLam(iota, None, _under(st, node.name))
        return lapp(LConst("intro_ty"), pred, cont, st.premise_var(node.name))

    if isinstance(node, cert.KInstType):
        # the hypothesis is Π ι : TYPE, body over the type symbol ι its
        # prefix was renamed to; the predicate is λ ι, body
        judged = st.enc(node.formula, task)
        pred = LLam(judged.var, None, judged.body)
        return lapp(LConst("inst_ty"), pred, _encode_type(node.ty),
                    _under(st, node.inst_name),
                    st.premise_var(node.name))

    if isinstance(node, cert.KRewrite):
        comb = "rewrite_goal" if node.goal else "rewrite_hyp"
        ty = node.context.ty
        return lapp(LConst(comb), _encode_type(ty),
                    st.enc(node.left, task, ty), st.enc(node.right, task, ty),
                    st.enc(node.context, task, Arrow(ty, PROP)),
                    st.premise_var(node.eq_name), st.premise_var(node.name),
                    _under(st, node.name))

    if isinstance(node, cert.KInduction):
        # the λ binders reuse the symbol's and the goal's own names, so
        # occurrences inside the branches rebind to the current case
        v = mangle(node.var)
        base = _under(st, node.goal_name, node.hyp_name)
        rec = _under(st, node.goal_name, node.hyp_name, node.rec_name)
        return lapp(LConst("sind"),
                    st.enc(node.context, task, Arrow(INT, PROP)),
                    st.enc(node.bound, task, INT), LLam(v, None, base),
                    LLam(v, None, rec), LVar(v),
                    st.premise_var(node.goal_name))

    raise ExportError(f"untranslatable certificate node {type(node).__name__}")


# ---------------------------------------------------------------------------
# module emission

@_raised_recursion_limit()
def emit_module(T: Task, L: list[Task], c: cert.KernelCert) -> str:
    """One self-contained λΠ module for a checked application.

    The output is a pure function of the inputs: fixed bytes, LF endings,
    one require of the shared preamble, one symbol per resulting task, and
    the proof definition. proof_term runs first, so a certificate ccheck
    refuses, or whose leaves differ from L, raises ExportError before any
    task is encoded. The proof term and the task statements share one
    Encoder, which lives for this call only, and the declarations each
    resulting task uses, computed once. Each encoding the Encoder returned
    is printed once for all statements (see _format). Printing a
    statement collects its free names: ExportError if the preamble and
    earlier ones bind none.
    """
    enc = Encoder()
    body, used = _proof_term(c, T, L, enc)
    statements = [(f"task{i + 1}", SORT, _task_type(leaf, used[i], enc))
                  for i, leaf in enumerate(L)]
    statements.append(("initial", SORT, encode_task(T, encoder=enc)))
    statements.append(("proof", arrows(*(LConst(name) for name, _, _ in
                                         statements)), body))
    # every encoding the statements share is printed once (see _format)
    memo: _PrintMemo = {id(t): None for t in (LP_BOT, LP_TOP, *enc.encodings())
                        if not isinstance(t, (LConst, LVar, LSort))}
    lines = [
        "// generated by certforge; edit the source task, not this file",
        "require open certforge.preamble;",
        "",
    ]
    known = set(PREAMBLE_NAMES)
    for name, ty, term in statements:
        free: set[str] = set()
        lines.append(f"symbol {name} : {_format(ty, 0, {}, free, memo)} ≔ "
                     f"{_format(term, 0, {}, free, memo)};")
        if free - known:
            raise ExportError(
                f"{name} escapes its scope: {sorted(free - known)}")
        known.add(name)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the preamble

def emit_preamble() -> str:
    """The static combinator and theory preamble, byte-identical per run."""
    return _PREAMBLE


# falsity and truth spelled out; the encodings never abbreviate them
_B = "Π C : TYPE, C"
_PB = f"({_B})"
_TOP = f"{_PB} → {_B}"

_PREAMBLE = f"""\
// certforge preamble: the combinators every emitted proof term uses.
//
// Trusted base (plain declarations, no body):
//   em           excluded middle over encoded propositions
//   le_gt_cases  any two ints compare as <= or >
//   int_ind      bounded course-of-values induction above a bound
// Everything else is a definition or a computation rule. sind, the
// combinator behind induction certificates, is derived: compare i with the
// bound a; at most a use the base continuation, otherwise recurse on
// int_ind with the motive λ v, (C v → ⊥) → ⊥, deciding each smaller m
// against a via le_gt_cases and double negation.

// propositional combinators ------------------------------------------------

symbol eq : Π t : TYPE, t → t → TYPE ≔
  λ t, λ x, λ y, Π Q : (t → TYPE), Q x → Q y;
symbol eq_refl : Π t : TYPE, Π x : t, eq t x x ≔
  λ t, λ x, λ Q, λ q, q;

symbol em : Π t : TYPE, Π C : TYPE, (t → C) → ((t → {_PB}) → C) → C;
symbol dne : Π t : TYPE, ((t → {_PB}) → {_PB}) → t ≔
  λ t, λ g, em t t (λ x, x) (λ n, g n t);

symbol triv : (({_TOP}) → {_PB}) → {_B} ≔
  λ g, g (λ c, c);
symbol axm : Π t : TYPE, t → (t → {_PB}) → {_B} ≔
  λ t, λ h, λ g, g h;
symbol cut : Π t : TYPE, ((t → {_PB}) → {_PB}) → (t → {_PB}) → {_B} ≔
  λ t, λ p, λ r, p r;

symbol split : Π t1 : TYPE, Π t2 : TYPE,
    (t1 → {_PB}) → (t2 → {_PB}) →
    (Π C : TYPE, (t1 → C) → (t2 → C) → C) → {_B} ≔
  λ t1, λ t2, λ s1, λ s2, λ h, h {_PB} s1 s2;
symbol split_goal : Π t1 : TYPE, Π t2 : TYPE,
    ((t1 → {_PB}) → {_PB}) → ((t2 → {_PB}) → {_PB}) →
    ((Π C : TYPE, (t1 → t2 → C) → C) → {_PB}) → {_B} ≔
  λ t1, λ t2, λ s1, λ s2, λ g,
    s1 (λ h1, s2 (λ h2, g (λ C, λ k, k h1 h2)));
symbol destruct : Π t1 : TYPE, Π t2 : TYPE,
    (t1 → t2 → {_PB}) → (Π C : TYPE, (t1 → t2 → C) → C) → {_B} ≔
  λ t1, λ t2, λ s, λ h, h {_PB} s;
symbol destruct_goal : Π t1 : TYPE, Π t2 : TYPE,
    ((t1 → {_PB}) → (t2 → {_PB}) → {_PB}) →
    ((Π C : TYPE, (t1 → C) → (t2 → C) → C) → {_PB}) → {_B} ≔
  λ t1, λ t2, λ s, λ g,
    s (λ h1, g (λ C, λ k1, λ k2, k1 h1)) (λ h2, g (λ C, λ k1, λ k2, k2 h2));

symbol intro_imp : Π t1 : TYPE, Π t2 : TYPE,
    (t1 → (t2 → {_PB}) → {_PB}) → ((t1 → t2) → {_PB}) → {_B} ≔
  λ t1, λ t2, λ s, λ g, g (λ x, s x (λ y, g (λ w, y)) t2);
symbol split_imp : Π t1 : TYPE, Π t2 : TYPE,
    ((t1 → {_PB}) → {_PB}) → (t2 → {_PB}) → (t1 → t2) → {_B} ≔
  λ t1, λ t2, λ s, λ r, λ h, s (λ x, r (h x));
symbol swapneg_goal : Π t : TYPE,
    (t → {_PB}) → ((t → {_PB}) → {_PB}) → {_B} ≔
  λ t, λ s, λ g, g s;
symbol revert : Π t : TYPE, Π u : TYPE,
    t → (u → {_PB}) → (((t → u) → {_PB}) → {_PB}) → {_B} ≔
  λ t, λ u, λ h, λ g, λ s, s (λ f, g (f h));

// quantifier combinators ----------------------------------------------------

symbol intro_all : Π t : TYPE, Π p : (t → TYPE),
    (Π y : t, (p y → {_PB}) → {_PB}) → ((Π y : t, p y) → {_PB}) → {_B} ≔
  λ t, λ p, λ s, λ g, g (λ y, dne (p y) (s y));
symbol intro_ex : Π t : TYPE, Π p : (t → TYPE),
    (Π y : t, p y → {_PB}) →
    (Π C : TYPE, (Π x : t, p x → C) → C) → {_B} ≔
  λ t, λ p, λ s, λ h, h {_PB} s;
symbol inst_all : Π t : TYPE, Π p : (t → TYPE), Π w : t,
    ((p w) → {_PB}) → (Π y : t, p y) → {_B} ≔
  λ t, λ p, λ w, λ s, λ h, s (h w);
symbol inst_ex : Π t : TYPE, Π p : (t → TYPE), Π w : t,
    (((p w) → {_PB}) → {_PB}) →
    ((Π C : TYPE, (Π x : t, p x → C) → C) → {_PB}) → {_B} ≔
  λ t, λ p, λ w, λ s, λ g, s (λ q, g (λ C, λ k, k w q));
symbol intro_ty : Π p : (TYPE → TYPE),
    (Π a : TYPE, (p a → {_PB}) → {_PB}) → ((Π a : TYPE, p a) → {_PB}) → {_B} ≔
  λ p, λ s, λ g, g (λ a, dne (p a) (s a));
symbol inst_ty : Π p : (TYPE → TYPE), Π a : TYPE,
    ((p a) → {_PB}) → (Π b : TYPE, p b) → {_B} ≔
  λ p, λ a, λ s, λ h, s (h a);

symbol rewrite_hyp : Π t : TYPE, Π l : t, Π r : t, Π C : (t → TYPE),
    eq t l r → C l → (C r → {_PB}) → {_B} ≔
  λ t, λ l, λ r, λ C, λ e, λ h, λ k, k (e C h);
symbol rewrite_goal : Π t : TYPE, Π l : t, Π r : t, Π C : (t → TYPE),
    eq t l r → (C l → {_PB}) → ((C r → {_PB}) → {_PB}) → {_B} ≔
  λ t, λ l, λ r, λ C, λ e, λ g, λ k, k (e (λ z, C z → {_PB}) g);

// binary integers -----------------------------------------------------------

symbol cmp : TYPE;
symbol CEq : cmp;
symbol CLt : cmp;
symbol CGt : cmp;

symbol pos : TYPE;
symbol xH : pos;
symbol xO : pos → pos;
symbol xI : pos → pos;

symbol int : TYPE;
symbol Z0 : int;
symbol Zpos : pos → int;
symbol Zneg : pos → int;

symbol psucc : pos → pos;
rule psucc xH ↪ xO xH;
rule psucc (xO $p) ↪ xI $p;
rule psucc (xI $p) ↪ xO (psucc $p);

// pdbl p computes 2p - 1
symbol pdbl : pos → pos;
rule pdbl xH ↪ xH;
rule pdbl (xO $p) ↪ xI (pdbl $p);
rule pdbl (xI $p) ↪ xI (xO $p);

symbol padd : pos → pos → pos;
symbol paddc : pos → pos → pos;
rule padd xH xH ↪ xO xH;
rule padd xH (xO $q) ↪ xI $q;
rule padd xH (xI $q) ↪ xO (psucc $q);
rule padd (xO $p) xH ↪ xI $p;
rule padd (xO $p) (xO $q) ↪ xO (padd $p $q);
rule padd (xO $p) (xI $q) ↪ xI (padd $p $q);
rule padd (xI $p) xH ↪ xO (psucc $p);
rule padd (xI $p) (xO $q) ↪ xI (padd $p $q);
rule padd (xI $p) (xI $q) ↪ xO (paddc $p $q);
rule paddc xH xH ↪ xI xH;
rule paddc xH (xO $q) ↪ xO (psucc $q);
rule paddc xH (xI $q) ↪ xI (psucc $q);
rule paddc (xO $p) xH ↪ xO (psucc $p);
rule paddc (xO $p) (xO $q) ↪ xI (padd $p $q);
rule paddc (xO $p) (xI $q) ↪ xO (paddc $p $q);
rule paddc (xI $p) xH ↪ xI (psucc $p);
rule paddc (xI $p) (xO $q) ↪ xO (paddc $p $q);
rule paddc (xI $p) (xI $q) ↪ xI (paddc $p $q);

symbol pmul : pos → pos → pos;
rule pmul xH $q ↪ $q;
rule pmul (xO $p) $q ↪ xO (pmul $p $q);
rule pmul (xI $p) $q ↪ padd $q (xO (pmul $p $q));

// subtraction masks: MNul is zero, MNeg any underflow
symbol mask : TYPE;
symbol MNul : mask;
symbol MPos : pos → mask;
symbol MNeg : mask;

symbol dblm : mask → mask;
rule dblm MNul ↪ MNul;
rule dblm (MPos $p) ↪ MPos (xO $p);
rule dblm MNeg ↪ MNeg;
symbol sdblm : mask → mask;
rule sdblm MNul ↪ MPos xH;
rule sdblm (MPos $p) ↪ MPos (xI $p);
rule sdblm MNeg ↪ MNeg;
// dpredm p computes the mask of 2p - 2
symbol dpredm : pos → mask;
rule dpredm xH ↪ MNul;
rule dpredm (xO $p) ↪ MPos (xO (pdbl $p));
rule dpredm (xI $p) ↪ MPos (xO (xO $p));

symbol smask : pos → pos → mask;
symbol smaskc : pos → pos → mask;
rule smask xH xH ↪ MNul;
rule smask xH (xO $q) ↪ MNeg;
rule smask xH (xI $q) ↪ MNeg;
rule smask (xO $p) xH ↪ MPos (pdbl $p);
rule smask (xO $p) (xO $q) ↪ dblm (smask $p $q);
rule smask (xO $p) (xI $q) ↪ sdblm (smaskc $p $q);
rule smask (xI $p) xH ↪ MPos (xO $p);
rule smask (xI $p) (xO $q) ↪ sdblm (smask $p $q);
rule smask (xI $p) (xI $q) ↪ dblm (smask $p $q);
rule smaskc xH $q ↪ MNeg;
rule smaskc (xO $p) xH ↪ dpredm $p;
rule smaskc (xO $p) (xO $q) ↪ sdblm (smaskc $p $q);
rule smaskc (xO $p) (xI $q) ↪ dblm (smaskc $p $q);
rule smaskc (xI $p) xH ↪ MPos (pdbl $p);
rule smaskc (xI $p) (xO $q) ↪ dblm (smask $p $q);
rule smaskc (xI $p) (xI $q) ↪ sdblm (smaskc $p $q);

// only reached when the difference is known positive
symbol mask_pos : mask → pos;
rule mask_pos (MPos $p) ↪ $p;
rule mask_pos MNul ↪ xH;
rule mask_pos MNeg ↪ xH;
symbol psub_pos : pos → pos → pos;
rule psub_pos $p $q ↪ mask_pos (smask $p $q);

symbol pcmpc : cmp → pos → pos → cmp;
rule pcmpc $r xH xH ↪ $r;
rule pcmpc $r xH (xO $q) ↪ CLt;
rule pcmpc $r xH (xI $q) ↪ CLt;
rule pcmpc $r (xO $p) xH ↪ CGt;
rule pcmpc $r (xO $p) (xO $q) ↪ pcmpc $r $p $q;
rule pcmpc $r (xO $p) (xI $q) ↪ pcmpc CLt $p $q;
rule pcmpc $r (xI $p) xH ↪ CGt;
rule pcmpc $r (xI $p) (xO $q) ↪ pcmpc CGt $p $q;
rule pcmpc $r (xI $p) (xI $q) ↪ pcmpc $r $p $q;
symbol pcmp : pos → pos → cmp;
rule pcmp $p $q ↪ pcmpc CEq $p $q;

symbol zcmp : int → int → cmp;
rule zcmp Z0 Z0 ↪ CEq;
rule zcmp Z0 (Zpos $q) ↪ CLt;
rule zcmp Z0 (Zneg $q) ↪ CGt;
rule zcmp (Zpos $p) Z0 ↪ CGt;
rule zcmp (Zpos $p) (Zpos $q) ↪ pcmp $p $q;
rule zcmp (Zpos $p) (Zneg $q) ↪ CGt;
rule zcmp (Zneg $p) Z0 ↪ CLt;
rule zcmp (Zneg $p) (Zpos $q) ↪ CLt;
rule zcmp (Zneg $p) (Zneg $q) ↪ pcmp $q $p;

symbol zsign : cmp → pos → pos → int;
rule zsign CEq $p $q ↪ Z0;
rule zsign CLt $p $q ↪ Zneg (psub_pos $q $p);
rule zsign CGt $p $q ↪ Zpos (psub_pos $p $q);

symbol opp : int → int;
rule opp Z0 ↪ Z0;
rule opp (Zpos $p) ↪ Zneg $p;
rule opp (Zneg $p) ↪ Zpos $p;

symbol add : int → int → int;
rule add Z0 $y ↪ $y;
rule add $x Z0 ↪ $x;
rule add (Zpos $p) (Zpos $q) ↪ Zpos (padd $p $q);
rule add (Zneg $p) (Zneg $q) ↪ Zneg (padd $p $q);
rule add (Zpos $p) (Zneg $q) ↪ zsign (pcmp $p $q) $p $q;
rule add (Zneg $p) (Zpos $q) ↪ zsign (pcmp $q $p) $q $p;

symbol sub : int → int → int;
rule sub $x $y ↪ add $x (opp $y);

symbol mul : int → int → int;
rule mul Z0 $y ↪ Z0;
rule mul $x Z0 ↪ Z0;
rule mul (Zpos $p) (Zpos $q) ↪ Zpos (pmul $p $q);
rule mul (Zpos $p) (Zneg $q) ↪ Zneg (pmul $p $q);
rule mul (Zneg $p) (Zpos $q) ↪ Zneg (pmul $p $q);
rule mul (Zneg $p) (Zneg $q) ↪ Zpos (pmul $p $q);

symbol is_le : cmp → TYPE;
rule is_le CLt ↪ {_TOP};
rule is_le CEq ↪ {_TOP};
rule is_le CGt ↪ {_B};
symbol is_lt : cmp → TYPE;
rule is_lt CLt ↪ {_TOP};
rule is_lt CEq ↪ {_B};
rule is_lt CGt ↪ {_B};

symbol le : int → int → TYPE;
rule le $x $y ↪ is_le (zcmp $x $y);
symbol lt : int → int → TYPE;
rule lt $x $y ↪ is_lt (zcmp $x $y);
symbol gt : int → int → TYPE;
rule gt $x $y ↪ is_lt (zcmp $y $x);
symbol ge : int → int → TYPE;
rule ge $x $y ↪ is_le (zcmp $y $x);

// induction -----------------------------------------------------------------

symbol le_gt_cases : Π x : int, Π y : int, Π C : TYPE,
    (le x y → C) → (gt x y → C) → C;
symbol int_ind : Π a : int, Π Q : (int → TYPE),
    (Π v : int, (Π m : int, gt m a → lt m v → Q m) → gt v a → Q v) →
    Π v : int, gt v a → Q v;

symbol sind : Π C : (int → TYPE), Π a : int,
    (Π v : int, (C v → {_PB}) → le v a → {_PB}) →
    (Π v : int, (C v → {_PB}) → gt v a → (Π m : int, lt m v → C m) → {_PB}) →
    Π i : int, (C i → {_PB}) → {_B} ≔
  λ C, λ a, λ b, λ s, λ i, λ g,
    le_gt_cases i a {_PB}
      (λ hle, b i g hle)
      (λ hgt, int_ind a (λ v, (C v → {_PB}) → {_B})
        (λ v, λ ih, λ hgt2, λ g2,
          s v g2 hgt2
            (λ m, λ hlt, dne (C m)
              (λ nm, le_gt_cases m a {_PB}
                (λ hm, b m nm hm)
                (λ hm2, ih m hm2 hlt nm))))
        i hgt g);
"""

# the names the preamble declares, read off its `symbol <name> :` lines
PREAMBLE_NAMES = frozenset(re.findall(r"^symbol (\S+) :", _PREAMBLE, re.M))
