"""S-expression reading, printing, and conversions for the object language.

The concrete syntax is deliberately small: symbols, integers, #t/#f and
parenthesized lists. Idents like x#3 are ordinary symbols since # only
means a Boolean as the whole token #t or #f.

Terms:   (forall (x (int)) body)  (exists ...)  (lam ...)  (pi a body)
         (not t)  (and a b)  (or a b)  (imp a b)  (iff a b)  (= a b)
         true  false  integers  symbols; any other list is application.
Types:   prop  |  a (type variable)  |  (color)  |  (set ty)  |  (-> a b c)
Tasks:   (task (types (c 0) ...) (sig (x ty) ...)
               (hyps (H t) ...) (goals (G t) ...))

Text is split into tokens by one compiled regular expression; a line:col
position is computed from a token's offset only for an error. The reader,
the printer and the conversions between data and types, terms and tasks,
both ways, work with explicit stacks, so nesting depth costs no Python
recursion.

Reading hash-conses types and terms through one weak table each, shared by
every read (Filliâtre & Conchon, "Type-Safe Modular Hash-Consing", 2006):
while a value read earlier is alive, a structurally identical subterm read
later is that very object. So a certificate loaded after its task was
parsed holds the task's own formulas, and the kernel's identity shortcuts
(alpha_equal's `a is b`, the id-keyed record typing_of reads) serve it as
they serve the trees elaboration builds in memory.

Sharing is sound. A table's key is a node's constructor and the ids of its
children, or an atom's text. A live node holds its children, so while the
node a key maps to is alive, the ids in that key are valid: they name that
node's very children, and the node has the structure read. An id is reused
only once its object is gone, and then so is every node that held it: a
key whose ids were reused finds a dead reference, which reads as a miss.
And an identical object has an identical structure, so no identity
shortcut can accept anything that a structurally equal copy would not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from weakref import ref

from .core import (
    App,
    Arrow,
    BinOp,
    Bottom,
    Exists,
    Forall,
    IntLit,
    Lam,
    Not,
    PROP,
    PiType,
    Prop,
    TApp,
    TVar,
    Term,
    Top,
    Type,
    Var,
    ident,
)
from .task import Premise, Task


class SexprError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Pos:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# One token per match: a parenthesis, a symbol, or a comment to skip. Only
# the characters " \t\r\n;()" end a symbol, not everything \s matches.
_TOKEN = re.compile(r"[()]|[^ \t\r\n;()]+|;[^\n]*")
_UNPRINTABLE = re.compile(r"[ \t\r\n;()]")


def _pos(text: str, offset: int) -> Pos:
    return Pos(text.count("\n", 0, offset) + 1,
               offset - text.rfind("\n", 0, offset))


def _unbalanced(text: str) -> SexprError:
    """The error for text whose parentheses do not balance, at the first
    parenthesis that shows it."""
    opens: list[int] = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "(":
            opens.append(m.start())
        elif tok == ")":
            if not opens:
                return SexprError(f"{_pos(text, m.start())}: unmatched )")
            opens.pop()
    return SexprError(f"{_pos(text, opens[-1])}: unclosed (")


def _atom(tok: str):
    if tok == "#t":
        return True
    if tok == "#f":
        return False
    body = tok[1:] if tok[0] in "+-" and len(tok) > 1 else tok
    if body.isascii() and body.isdigit():
        return int(tok)
    return tok


def loads_many(text: str) -> list:
    """All toplevel data in text. Symbols come back as plain strings, lists
    as fresh lists: no two share a list object."""
    out: list = []
    top = out
    stack: list[list] = []
    atoms: dict[str, object] = {}
    for tok in _TOKEN.findall(text):
        if tok == "(":
            inner: list = []
            top.append(inner)
            stack.append(top)
            top = inner
        elif tok == ")":
            if not stack:
                raise _unbalanced(text)
            top = stack.pop()
        elif tok[0] != ";":
            a = atoms.get(tok)
            if a is None:
                a = atoms[tok] = _atom(tok)
            top.append(a)
    if stack:
        raise _unbalanced(text)
    return out


def loads(text: str):
    data = loads_many(text)
    if len(data) != 1:
        raise SexprError(f"expected one datum, found {len(data)}")
    return data[0]


# markers on dumps' stack for the text between a list's elements and after it
_SPACE, _CLOSE = object(), object()


def dumps(value) -> str:
    out: list[str] = []
    todo = [value]
    while todo:
        v = todo.pop()
        if v is _SPACE:
            out.append(" ")
        elif v is _CLOSE:
            out.append(")")
        elif isinstance(v, str):
            if not v or _UNPRINTABLE.search(v):
                raise SexprError(f"not a printable symbol: {v!r}")
            out.append(v)
        elif v is True:
            out.append("#t")
        elif v is False:
            out.append("#f")
        elif isinstance(v, int):
            out.append(str(v))
        elif isinstance(v, (list, tuple)):
            out.append("(")
            todo.append(_CLOSE)
            for i in range(len(v) - 1, 0, -1):
                todo.append(v[i])
                todo.append(_SPACE)
            if v:
                todo.append(v[0])
        else:
            raise SexprError(f"cannot print {v!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Types

# type_to_sexpr and term_to_sexpr print with an explicit stack of
# (form, index, node): the node's form goes into form[index]. A list form is
# made with a slot per element as soon as its node is popped, and its
# children are pushed to fill the slots, leftmost on top.

def type_to_sexpr(ty: Type):
    out = [None]
    todo: list = [(out, 0, ty)]
    while todo:
        form, i, t = todo.pop()
        if isinstance(t, Prop):
            form[i] = "prop"
        elif isinstance(t, TVar):
            form[i] = str(t.name)
        elif isinstance(t, (TApp, Arrow)):
            if isinstance(t, TApp):
                head, parts = str(t.head), t.args
            else:
                head, parts = "->", []
                while isinstance(t, Arrow):
                    parts.append(t.left)
                    t = t.right
                parts.append(t)
            form[i] = sub = [head] + [None] * len(parts)
            for j in range(len(parts), 0, -1):
                todo.append((sub, j, parts[j - 1]))
        else:
            raise SexprError(f"cannot print type {t!r}")
    return out[0]


# ---------------------------------------------------------------------------
# Terms

_BINDER_KEYWORDS = {Lam: "lam", Exists: "exists", Forall: "forall"}


def term_to_sexpr(t: Term):
    out = [None]
    todo: list = [(out, 0, t)]
    while todo:
        form, i, t = todo.pop()
        if isinstance(t, Var):
            form[i] = str(t.name)
        elif isinstance(t, App):
            args = []
            while isinstance(t, App):
                args.append(t.arg)
                t = t.fn
            form[i] = sub = [None] * (len(args) + 1)
            # args runs from the last argument back to the first
            for j, a in enumerate(args):
                todo.append((sub, len(args) - j, a))
            todo.append((sub, 0, t))
        elif isinstance(t, BinOp):
            form[i] = sub = [t.op, None, None]
            todo += ((sub, 2, t.right), (sub, 1, t.left))
        elif isinstance(t, Not):
            form[i] = sub = ["not", None]
            todo.append((sub, 1, t.body))
        elif isinstance(t, IntLit):
            form[i] = t.value
        elif isinstance(t, Top):
            form[i] = "true"
        elif isinstance(t, Bottom):
            form[i] = "false"
        elif isinstance(t, (Lam, Exists, Forall)):
            form[i] = sub = [_BINDER_KEYWORDS[type(t)],
                             [str(t.var), type_to_sexpr(t.ty)], None]
            todo.append((sub, 2, t.body))
        elif isinstance(t, PiType):
            form[i] = sub = ["pi", str(t.var), None]
            todo.append((sub, 2, t.body))
        else:
            raise SexprError(f"cannot print term {t!r}")
    return out[0]


# ---------------------------------------------------------------------------
# Tasks

def task_to_sexpr(T: Task):
    return ["task",
            ["types"] + [[str(n), a] for n, a in T.types],
            ["sig"] + [[str(n), type_to_sexpr(ty)] for n, ty in T.sig],
            ["hyps"] + [[str(p.name), term_to_sexpr(p.formula)] for p in T.hyps],
            ["goals"] + [[str(p.name), term_to_sexpr(p.formula)] for p in T.goals]]


# ---------------------------------------------------------------------------
# Reading: one hash-cons table for types and one for terms, shared by every
# read. Each maps a key (see the module docstring) to a weakref.ref of the
# node, with no callback, so the tables keep no node alive and cost no
# Python call when one dies. A dead reference reads as a miss and its entry
# is overwritten; _sweep drops the dead entries once the tables have
# doubled in size since the last sweep.

_TYPES: dict = {}
_TERMS: dict = {}
_SWEEP_FLOOR = 4096
_sweep_at = _SWEEP_FLOOR
# called on a miss, as a dead reference is: both give None
_MISS = type(None)


def _sweep() -> None:
    """Drop the entries whose node has died."""
    global _sweep_at
    for table in (_TYPES, _TERMS):
        dead = [key for key, r in table.items() if r() is None]
        for key in dead:
            del table[key]
    _sweep_at = max(2 * (len(_TYPES) + len(_TERMS)), _SWEEP_FLOOR)


def _swept(value):
    """value, after a sweep if the tables have doubled since the last."""
    if len(_TYPES) + len(_TERMS) >= _sweep_at:
        _sweep()
    return value


def type_from_sexpr(form) -> Type:
    return _swept(_type(form))


def term_from_sexpr(form) -> Term:
    return _swept(_term(form))


def task_from_sexpr(form) -> Task:
    return _swept(_task(form))


_BINOPS = {"and", "or", "imp", "iff"}
_BINDERS = {"forall": Forall, "exists": Exists, "lam": Lam}

# Steps on a reader's stack: each sits above the form it applies to. _READ
# reads the form; the others build the node of an already read list form
# from the finished nodes the form's elements left. Reading is bottom-up
# with an explicit stack, so nesting depth costs no recursion.
_READ, _ARROWS, _TAPP, _NOT, _BINOP, _BINDER, _PI, _APP = range(8)


def _type(form) -> Type:
    memo = _TYPES
    done: list[Type] = []
    todo = [form, _READ]
    while todo:
        step = todo.pop()
        f = todo.pop()
        if step == _READ:
            if f == "prop":
                done.append(PROP)
            elif isinstance(f, str):
                ty = memo.get(f, _MISS)()
                if ty is None:
                    ty = TVar(ident(f))
                    memo[f] = ref(ty)
                done.append(ty)
            elif not (isinstance(f, list) and f):
                raise SexprError(f"bad type syntax {f!r}")
            elif f[0] == "->":
                if len(f) < 3:
                    raise SexprError("-> needs at least two types")
                todo += (f, _ARROWS)
                for g in reversed(f[1:]):
                    todo += (g, _READ)
            elif not isinstance(f[0], str):
                raise SexprError(f"bad type head {f[0]!r}")
            else:
                todo += (f, _TAPP)
                for g in reversed(f[1:]):
                    todo += (g, _READ)
            continue
        n = len(f) - 1
        args = done[-n:] if n else []
        del done[len(done) - n:]
        if step == _ARROWS:
            ty = args[-1]
            for left in reversed(args[:-1]):
                key = (Arrow, id(left), id(ty))
                got = memo.get(key, _MISS)()
                if got is None:
                    got = Arrow(left, ty)
                    memo[key] = ref(got)
                ty = got
        else:
            key = (f[0], *map(id, args))
            ty = memo.get(key, _MISS)()
            if ty is None:
                ty = TApp(ident(f[0]), tuple(args))
                memo[key] = ref(ty)
        done.append(ty)
    return done[0]


def _term(form) -> Term:
    memo = _TERMS
    done: list[Term] = []
    todo = [form, _READ]
    while todo:
        step = todo.pop()
        f = todo.pop()
        if step == _READ:
            if isinstance(f, bool):
                raise SexprError("booleans are not terms; use true/false")
            if isinstance(f, (int, str)):
                t = memo.get(f, _MISS)()
                if t is None:
                    t = (IntLit(f) if isinstance(f, int)
                         else Top() if f == "true"
                         else Bottom() if f == "false"
                         else Var(ident(f)))
                    memo[f] = ref(t)
                done.append(t)
                continue
            if not isinstance(f, list) or not f:
                raise SexprError(f"bad term syntax {f!r}")
            head = f[0]
            if head == "not":
                if len(f) != 2:
                    raise SexprError("not takes one argument")
                todo += (f, _NOT, f[1], _READ)
            elif isinstance(head, str) and head in _BINOPS:
                if len(f) != 3:
                    raise SexprError(f"{head} takes two arguments")
                todo += (f, _BINOP, f[2], _READ, f[1], _READ)
            elif isinstance(head, str) and head in _BINDERS:
                if len(f) != 3 or not (isinstance(f[1], list)
                                       and len(f[1]) == 2
                                       and isinstance(f[1][0], str)):
                    raise SexprError(
                        f"{head} expects ({head} (x type) body)")
                binder = (_BINDERS[head], f[1][0], _type(f[1][1]))
                todo += (binder, _BINDER, f[2], _READ)
            elif head == "pi":
                if len(f) != 3 or not isinstance(f[1], str):
                    raise SexprError("pi expects (pi a body)")
                todo += (f[1], _PI, f[2], _READ)
            else:
                if head == "=" and len(f) != 3:
                    raise SexprError("= takes two arguments")
                # plain application, left-associated
                todo += (f, _APP)
                for g in reversed(f):
                    todo += (g, _READ)
            continue
        if step == _APP:
            n = len(f)
            args = done[-n:]
            del done[-n:]
            t = args[0]
            for a in args[1:]:
                key = (App, id(t), id(a))
                got = memo.get(key, _MISS)()
                if got is None:
                    got = App(t, a)
                    memo[key] = ref(got)
                t = got
            done.append(t)
            continue
        body = done.pop()
        if step == _NOT:
            key = (Not, id(body))
        elif step == _BINOP:
            left = done.pop()
            key = (f[0], id(left), id(body))
        elif step == _BINDER:
            key = (f[0], f[1], id(f[2]), id(body))
        else:
            key = (PiType, f, id(body))
        t = memo.get(key, _MISS)()
        if t is None:
            if step == _NOT:
                t = Not(body)
            elif step == _BINOP:
                t = BinOp(f[0], left, body)
            elif step == _BINDER:
                t = f[0](ident(f[1]), f[2], body)
            else:
                t = PiType(ident(f), body)
            memo[key] = ref(t)
        done.append(t)
    return done[0]


def _task(form) -> Task:
    if not (isinstance(form, list) and form and form[0] == "task"):
        raise SexprError("task form must start with (task ...)")
    seen = []
    for part in form[1:]:
        if not (isinstance(part, list) and part
                and part[0] in ("types", "sig", "hyps", "goals")):
            raise SexprError(f"unknown task section {part!r}")
        seen.append(part[0])
    if seen != ["types", "sig", "hyps", "goals"]:
        raise SexprError("a task needs exactly the sections "
                         "(types ...) (sig ...) (hyps ...) (goals ...)")
    types_f, sig_f, hyps_f, goals_f = (part[1:] for part in form[1:])
    types = []
    for entry in types_f:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str)
                and isinstance(entry[1], int)):
            raise SexprError(f"bad type declaration {entry!r}")
        types.append((ident(entry[0]), entry[1]))
    sig = []
    for entry in sig_f:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str)):
            raise SexprError(f"bad signature entry {entry!r}")
        sig.append((ident(entry[0]), _type(entry[1])))

    def premises(entries):
        out = []
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 2
                    and isinstance(entry[0], str)):
                raise SexprError(f"bad premise {entry!r}")
            out.append(Premise(ident(entry[0]), _term(entry[1])))
        return tuple(out)

    return Task(types=tuple(types), sig=tuple(sig),
                hyps=premises(hyps_f), goals=premises(goals_f))
