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

Text is split into tokens by one compiled regular expression, in one
pass, and one reader builds types, terms and tasks straight from the
tokens (cert reads certificates with it): each node is built when its )
arrives, on an explicit stack, so nesting depth costs no Python recursion.
The form entries (type_from_sexpr, term_from_sexpr, task_from_sexpr) run
the same reader over the tokens of a datum. One printer, to_text, writes
types, terms and tasks (and certificates, for cert) back as text in one
pass, on an explicit stack too, and prints each shared subterm once; str()
of a type or term prints through it without its read-back checks. loads
and dumps read and print plain data; term_to_sexpr and task_to_sexpr give
the data of a term's or task's text. A line:col position is computed from
a token's offset only for an error, once the read has failed.

The reader builds every type and term through core's constructors, which
hash-cons them (see core): while a value read earlier is alive, a
structurally identical subterm read later is that very object. So a
certificate loaded after its task was parsed holds the task's own
formulas, and the kernel's identity shortcuts (alpha_equal's `a is b`, the
judgments typing_of reads, keyed on the formula) serve it as they serve
the trees elaboration builds in memory.
"""

from __future__ import annotations

import re

from .core import (
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


# One token per match: a parenthesis, a symbol, or a comment to skip. Only
# the characters " \t\r\n;()" end a symbol, not everything \s matches.
_TOKEN = re.compile(r"[()]|[^ \t\r\n;()]+|;[^\n]*")
_UNPRINTABLE = re.compile(r"[ \t\r\n;()]")


def _pos(text: str, offset: int) -> str:
    """The line:col of offset in text."""
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return f"{line}:{col}"


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


def tokens(text: str) -> list[str]:
    """The tokens of text, without its comments."""
    toks = _TOKEN.findall(text)
    if ";" in text:
        toks = [t for t in toks if t[0] != ";"]
    return toks


def _atom(tok: str):
    if tok == "#t":
        return True
    if tok == "#f":
        return False
    body = tok[1:] if tok[0] in "+-" and len(tok) > 1 else tok
    if body.isascii() and body.isdigit():
        return int(tok)
    return tok


def _data(toks: list[str], made: list | None = None):
    """The data the tokens toks spell, lists as fresh lists, and the number
    of lists the tokens leave open; None for a ) that closes no list. Each
    list is also appended to made, if given, as its ( is read."""
    out: list = []
    top = out
    stack: list[list] = []
    atoms: dict[str, object] = {}
    for tok in toks:
        if tok == "(":
            inner: list = []
            top.append(inner)
            stack.append(top)
            top = inner
            if made is not None:
                made.append(inner)
        elif tok == ")":
            if not stack:
                return None
            top = stack.pop()
        else:
            a = atoms.get(tok)
            if a is None:
                a = atoms[tok] = _atom(tok)
            top.append(a)
    return out, len(stack)


def loads_many(text: str) -> list:
    """All toplevel data in text. Symbols come back as plain strings, lists
    as fresh lists: no two share a list object."""
    got = _data(tokens(text))
    if got is None or got[1]:
        raise _unbalanced(text)
    return got[0]


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
# Printing text: one pass over the value, on an explicit stack, into one
# list of tokens that is joined once. The stack holds text to append as it
# is, values to print, and markers that close a compound value's first
# occurrence: its text is then out[start:len(out)], and every later
# occurrence of the same object in the call appends a copy of that slice
# (pointer copies in C) instead of walking it again. So the text is the
# tree's, but each shared formula costs one walk per call.

_OPEN_OP = {op: f"({op} " for op in ("and", "or", "imp", "iff")}
_OPEN_BINDER = {Lam: "(lam (", Exists: "(exists (", Forall: "(forall ("}
_CONSTANTS = {Top: "true", Bottom: "false", Prop: "prop"}


class _Text(str):
    """Text the printer appends as it is. Any other str on its stack is a
    value, and one where a formula or a name belongs is refused."""


_SP, _RP, _RP_SP, _ENTRY = map(_Text, (" ", ")", ") ", " ("))
_SIG, _HYPS, _GOALS, _END_TASK = map(
    _Text, (") (sig", ") (hyps", ") (goals", "))"))
# on the stack, the end of the compound whose (id, start) is last in opened
_END = object()


def _scalar(v) -> str:
    return str(v) if type(v) is int else dumps(v)


def _name_text(name: Ident, names: dict[int, str], check: bool) -> str:
    """The text of name, str(name), recorded in names by its id. With
    check, SexprError for a name that the reader would not read back as
    this very identifier, and a name checked once is noted in the reader's
    table, as a read notes it, so that a later call finds it there."""
    s = str(name)
    if check:
        got = _IDENTS.get(s)
        if got is None:
            if not s or _UNPRINTABLE.search(s) or not _is_symbol(s) \
                    or ident(s) != name:
                raise SexprError(f"not a printable symbol: {s!r}")
            _note_ident(s, name)
        elif got is not name:
            raise SexprError(f"not a printable symbol: {s!r}")
    names[id(name)] = s
    return s


# The names the reader reads as constants where a term or a type goes.
_CONSTANT_NAMES = {Var: ("true", "false"), TVar: ("prop",)}


def _var_text(v: Var | TVar, names: dict[int, str], check: bool) -> str:
    """The text of a term or type variable, recorded in names by its id:
    its name's, but with check, SexprError for a name that the reader
    reads as a constant there (true, false; prop). Elsewhere, as a premise
    or a binder's name, the reader reads such a name back."""
    s = names.get(id(v.name)) or _name_text(v.name, names, check)
    if check and s in _CONSTANT_NAMES[type(v)]:
        raise SexprError(f"not a printable symbol: {s!r}")
    names[id(v)] = s
    return s


def to_text(value, expand=None) -> str:
    """The text of value, a type, term or task, in task-file syntax; but a
    name that the reader would not read back as that very identifier, such
    as 12, #t or Ident("x#3") (which reads as x with uid 3), is refused
    with SexprError, and so is a value whose text reads back as another: a
    term variable true or false, a type variable prop, an application
    headed by a keyword (but = applied to two arguments), a type applying
    ->.

    expand(x) is called on any other value x, and gives (head, elements):
    x prints as the text head alone when elements is empty, else as the
    list of head and elements, each printed by this printer in turn. An
    identifier prints as its name, and a bool as #t or #f."""
    return _text(value, expand, True)


# the classes _text prints as a list of parts that it may print again: the
# first occurrence's text is kept by its id, and a later one copies it
_COMPOUNDS = frozenset((App, BinOp, Not, Forall, Exists, Lam, PiType, Arrow,
                        TApp, Task))

# the __str__ of a value with no text of its own but the one _text gives
_PRINTED_HERE = (object.__str__, Type.__str__, Term.__str__)


def _text(value, expand, check: bool) -> str:
    """to_text's printer; without check (for str(), whose messages must
    not raise) it refuses no name and no value for how it reads back, and
    a value of its own __str__ (a metavariable in a typing error) prints
    through that."""
    out: list[str] = []
    append = out.append
    todo = [value]
    push = todo.append
    pop = todo.pop
    # the (start, end) of each compound's first occurrence, by its id, and
    # the (id, start) of each first occurrence being printed
    seen: dict[int, tuple[int, int]] = {}
    opened: list[tuple[int, int]] = []
    # the text of each identifier, checked once, by its id
    names: dict[int, str] = {}
    while todo:
        x = pop()
        cls = type(x)
        if cls is _Text:
            append(x)
            continue
        if cls is Var or cls is TVar:
            append(names.get(id(x)) or _var_text(x, names, check))
            continue
        if x is _END:
            key, start = opened.pop()
            seen[key] = start, len(out)
            continue
        if cls is Ident:
            append(names.get(id(x)) or _name_text(x, names, check))
            continue
        if cls is IntLit:
            append(_scalar(x.value))
            continue
        text = _CONSTANTS.get(cls)
        if text is not None:
            append(text)
            continue
        if cls is bool:
            append("#t" if x else "#f")
            continue
        if cls in _COMPOUNDS:
            key = id(x)
            got = seen.get(key)
            if got is not None:
                out += out[got[0]:got[1]]
                continue
            push(_END)
            opened.append((key, len(out)))
        if cls is App:
            append("(")
            push(_RP)
            start = len(todo)
            while cls is App:
                push(x.arg)
                push(_SP)
                x = x.fn
                cls = type(x)
            # a keyword heading the list reads as its form: only (= a b),
            # an application of = to two arguments, reads back as one
            if check and cls is Var and x.name.name in _HEADS \
                    and not x.name.uid \
                    and not (x.name.name == "=" and len(todo) - start == 4):
                raise SexprError(
                    f"an application of {x.name} reads as a {x.name} form")
            push(x)
        elif cls is BinOp:
            append(_OPEN_OP[x.op])
            push(_RP)
            push(x.right)
            push(_SP)
            push(x.left)
        elif cls is Not:
            append("(not ")
            push(_RP)
            push(x.body)
        elif cls is Forall or cls is Exists or cls is Lam:
            append(_OPEN_BINDER[cls])
            push(_RP)
            push(x.body)
            push(_RP_SP)
            push(x.ty)
            push(_SP)
            push(x.var)
        elif cls is PiType:
            append("(pi ")
            push(_RP)
            push(x.body)
            push(_SP)
            push(x.var)
        elif cls is Arrow:
            append("(->")
            parts = []
            while cls is Arrow:
                parts.append(x.left)
                x = x.right
                cls = type(x)
            push(_RP)
            push(x)
            push(_SP)
            for part in reversed(parts):
                push(part)
                push(_SP)
        elif cls is TApp:
            if check and x.head.name == "->" and not x.head.uid:
                raise SexprError("a type applying -> reads as an arrow")
            append("(")
            push(_RP)
            for arg in reversed(x.args):
                push(arg)
                push(_SP)
            push(x.head)
        elif cls is Task:
            append("(task (types")
            items: list = []
            for name, arity in x.types:
                items += (_ENTRY, name, _SP, _Text(_scalar(arity)), _RP)
            items.append(_SIG)
            for name, ty in x.sig:
                items += (_ENTRY, name, _SP, ty, _RP)
            for section, premises in ((_HYPS, x.hyps), (_GOALS, x.goals)):
                items.append(section)
                for p in premises:
                    items += (_ENTRY, p.name, _SP, p.formula, _RP)
            items.append(_END_TASK)
            todo += reversed(items)
        elif expand is not None and not isinstance(x, (Term, Type, str)):
            head, elements = expand(x)
            if not elements:
                append(head)
                continue
            append("(")
            append(head)
            push(_RP)
            for v in reversed(elements):
                push(v)
                push(_SP)
        elif not check and type(x).__str__ not in _PRINTED_HERE:
            append(str(x))
        else:
            raise SexprError(f"cannot print {x!r}")
    return "".join(out)


def term_to_sexpr(t: Term):
    """The data of t's text: loads(to_text(t))."""
    return loads(to_text(t))


def task_to_sexpr(T: Task):
    """The data of T's text: loads(to_text(T))."""
    return loads(to_text(T))


# ---------------------------------------------------------------------------
# The reader: one pass over a token list, building each type, term, task or
# certificate node when its ) arrives, with an explicit stack per reader so
# that nesting depth costs no recursion. read_type, read_term and read_task
# (and cert's certificate reader) take (tokens, i, cache) and return the
# value that starts at tokens[i] and the index after it; cache is the
# per-read map of atom tokens to the term and type objects they spell, as
# a pair of dicts. A reader checks a list's shape once it has read the
# list; on an error it reports instead the first list open around it,
# outermost first, whose shape is wrong (see first_misfit), so errors come
# in preorder as a top-down reader finds them.

def flatten(form) -> list[str]:
    """The tokens of a datum: for data loads gives, tokens(dumps(form))."""
    out: list[str] = []
    append = out.append
    # the iterators over the lists open around the one being walked
    stack: list = []
    items = iter((form,))
    while True:
        for v in items:
            t = type(v)
            if t is str:
                append(v)
            elif t is list or t is tuple:
                append("(")
                stack.append(items)
                items = iter(v)
                break
            elif t is int:
                append(str(v))
            elif v is True:
                append("#t")
            elif v is False:
                append("#f")
            else:
                raise SexprError(f"cannot read {v!r}")
        else:
            if not stack:
                return out
            append(")")
            items = stack.pop()


def read_form(read, form):
    """The value read finds in the datum form, with a fresh cache."""
    toks = flatten(form)
    try:
        value, i = read(toks, 0, ({}, {}))
    except IndexError:
        # only a symbol ( or ) in form unbalances its tokens
        raise SexprError(f"cannot read {form!r}") from None
    if i != len(toks):
        raise SexprError(f"cannot read {form!r}")
    return value


def read_text(read, text: str):
    """The value read finds in text, which must hold exactly one datum;
    for text that does not, loads' error (an unbalanced parenthesis at its
    line:col, or the number of data), checked on the error path only."""
    toks = tokens(text)
    try:
        value, i = read(toks, 0, ({}, {}))
        if i != len(toks):
            raise SexprError("expected one datum")
    except Exception:
        # whatever the read found, loads' error comes first
        loads(text)
        raise
    return value


def _lists(tokens: list[str], start: int) -> dict[int, list]:
    """The lists within the one opened at tokens[start], as loads gives
    them, by the index of their (; a list the tokens leave open has the
    elements they give it. For error messages."""
    opens, depth = [], 0
    for j in range(start, len(tokens)):
        if tokens[j] == "(":
            opens.append(j)
            depth += 1
        elif tokens[j] == ")":
            depth -= 1
            if not depth:
                break
    made: list[list] = []
    _data(tokens[start:j + 1], made)
    return dict(zip(opens, made))


def form_at(tokens: list[str], i: int):
    """The datum at tokens[i], as loads gives it; a list the tokens leave
    open ends with them. For error messages."""
    tok = tokens[i]
    if tok != "(":
        return tok if tok == ")" else _atom(tok)
    return _lists(tokens, i)[i]


def quote_at(tokens: list[str], i: int) -> str:
    """The datum at tokens[i] in task-file syntax, as form_at gives it; a
    ) that closes no datum is quoted as itself. For error messages."""
    form = form_at(tokens, i)
    return form if form == ")" else dumps(form)


def first_misfit(tokens: list[str], opens: list[int], check) -> str | None:
    """check(tokens, o, lists) for each list opened at an index o in
    opens, nested and outermost first: the first message it gives (a list
    of the wrong shape), or None. lists is _lists of the outermost."""
    if opens:
        lists = _lists(tokens, opens[0])
        for o in opens:
            message = check(tokens, o, lists)
            if message is not None:
                return message
    return None


# a token that starts with none of these is a symbol: a parenthesis, #t,
# #f and every integer start with one
_MAYBE_NO_SYMBOL = "()#+-0123456789"


def _is_symbol(tok: str) -> bool:
    return tok[0] not in _MAYBE_NO_SYMBOL \
        or tok not in "()" and type(_atom(tok)) is str


# Identifiers by symbol, shared by every read and print: a parse cache, so
# that a symbol read again is neither parsed nor looked up in core's table.
# Names repeat across reads (the same premises and symbols in task after
# task), so a read mostly finds its names here. The table is cleared once
# it holds _IDENTS_MAX names, far more than the names of any benchmark
# workload (79 at most), so that a process that reads ever new names keeps
# no more than that.
_IDENTS: dict[str, Ident] = {}
_IDENTS_MAX = 4096


def read_ident(tokens: list[str], i: int) -> Ident | None:
    """The identifier the symbol at tokens[i] names; None if no symbol is
    there."""
    tok = tokens[i]
    name = _IDENTS.get(tok)
    if name is None:
        if not _is_symbol(tok):
            return None
        name = ident(tok)
        _note_ident(tok, name)
    return name


def _note_ident(tok: str, name: Ident) -> None:
    """Note in _IDENTS that the symbol tok names name."""
    if len(_IDENTS) >= _IDENTS_MAX:
        _IDENTS.clear()
    _IDENTS[tok] = name


def type_from_sexpr(form) -> Type:
    return read_form(read_type, form)


def term_from_sexpr(form) -> Term:
    return read_form(read_term, form)


def task_from_sexpr(form) -> Task:
    return read_form(read_task, form)


def task_loads(text: str) -> Task:
    """The task text spells; SexprError for text that spells none,
    TaskError for a task that Task() refuses."""
    return read_text(read_task, text)


# ---------------------------------------------------------------------------
# Types

def _type_atom(tok: str, atoms: dict) -> Type:
    if tok == ")":
        raise SexprError("expected a type, found )")
    a = tok if tok[0] not in _MAYBE_NO_SYMBOL else _atom(tok)
    if a == "prop":
        ty = PROP
    elif type(a) is str:
        ty = TVar(ident(a))
    else:
        raise SexprError(f"bad type syntax {dumps(a)}")
    atoms[tok] = ty
    return ty


def _type_misfit(tokens, o, lists) -> str | None:
    if tokens[o + 1] == "->" and len(lists[o]) < 3:
        return "-> needs at least two types"
    return None


def read_type(tokens: list[str], i: int, cache) -> tuple[Type, int]:
    """The type at tokens[i] and the index after it."""
    atoms = cache[1]
    tok = tokens[i]
    if tok != "(":
        ty = atoms.get(tok)
        return (ty if ty is not None else _type_atom(tok, atoms)), i + 1
    done: list[Type] = []
    # per open list: its head, where its elements start in done, its index
    frames: list[tuple[str, int, int]] = []
    try:
        while True:
            tok = tokens[i]
            if tok == "(":
                head = tokens[i + 1]
                if not _is_symbol(head):
                    if head == ")":
                        raise SexprError("bad type syntax ()")
                    raise SexprError(f"bad type head {quote_at(tokens, i + 1)}")
                frames.append((head, len(done), i))
                i += 2
                continue
            i += 1
            if tok != ")":
                ty = atoms.get(tok)
                done.append(ty if ty is not None else _type_atom(tok, atoms))
                continue
            head, start, o = frames.pop()
            args = done[start:]
            del done[start:]
            if head == "->":
                if len(args) < 2:
                    raise SexprError(first_misfit(tokens, [o], _type_misfit))
                ty = args[-1]
                for left in reversed(args[:-1]):
                    ty = Arrow(left, ty)
            else:
                ty = TApp(read_ident(tokens, o + 1), tuple(args))
            if not frames:
                return ty, i
            done.append(ty)
    except (SexprError, IndexError):
        message = first_misfit(tokens, [f[2] for f in frames], _type_misfit)
        if message is not None:
            raise SexprError(message) from None
        raise


# ---------------------------------------------------------------------------
# Terms

_BINDERS = {"forall": Forall, "exists": Exists, "lam": Lam}
# What a list does, by its head: the keyword ones read their head as a
# keyword, any other list is an application of its first element.
_NOT, _BINOP, _BINDER, _PI, _APP, _EQ = range(6)
_HEADS = {"not": _NOT, "and": _BINOP, "or": _BINOP, "imp": _BINOP,
          "iff": _BINOP, "forall": _BINDER, "exists": _BINDER,
          "lam": _BINDER, "pi": _PI, "=": _EQ}


def _term_atom(tok: str, atoms: dict) -> Term:
    if tok == ")":
        raise SexprError("expected a term, found )")
    a = tok if tok[0] not in _MAYBE_NO_SYMBOL else _atom(tok)
    if type(a) is bool:
        raise SexprError("booleans are not terms; use true/false")
    t = (IntLit(a) if type(a) is int
         else Top() if a == "true"
         else Bottom() if a == "false"
         else Var(ident(a)))
    atoms[tok] = t
    return t


def _term_misfit(tokens, o, lists) -> str | None:
    head = tokens[o + 1]
    step = _HEADS.get(head, _APP)
    form = lists[o]
    width = len(form)
    if step == _NOT:
        return None if width == 2 else "not takes one argument"
    if step == _BINOP or step == _EQ:
        return None if width == 3 else f"{head} takes two arguments"
    if step == _PI and not (width == 3 and isinstance(form[1], str)):
        return "pi expects (pi a body)"
    if step == _BINDER and not (width == 3 and isinstance(form[1], list)
                                and len(form[1]) == 2
                                and isinstance(form[1][0], str)):
        return f"{head} expects ({head} (x type) body)"
    return None


def read_term(tokens: list[str], i: int, cache) -> tuple[Term, int]:
    """The term at tokens[i] and the index after it."""
    atoms = cache[0]
    tok = tokens[i]
    if tok != "(":
        t = atoms.get(tok)
        return (t if t is not None else _term_atom(tok, atoms)), i + 1
    done: list[Term] = []
    # per open list: its step, what the step builds with besides the
    # elements, where its elements start in done, its index
    frames: list[tuple] = []
    try:
        while True:
            tok = tokens[i]
            if tok == "(":
                head = tokens[i + 1]
                step = _HEADS.get(head, _APP)
                if step <= _BINOP:
                    frames.append((step, head, len(done), i))
                    i += 2
                elif step >= _APP:
                    if head == ")":
                        raise SexprError("bad term syntax ()")
                    # the head is the first element
                    frames.append((step, None, len(done), i))
                    i += 1
                elif step == _PI:
                    if not _is_symbol(tokens[i + 2]):
                        raise SexprError(
                            first_misfit(tokens, [i], _term_misfit))
                    frames.append((_PI, tokens[i + 2], len(done), i))
                    i += 3
                else:
                    # (forall (x type) body): its type goes before its body
                    frames.append((_BINDER, head, len(done), i))
                    if tokens[i + 2] != "(" or not _is_symbol(tokens[i + 3]):
                        raise SexprError(
                            first_misfit(tokens, [i], _term_misfit))
                    ty, j = read_type(tokens, i + 4, cache)
                    if tokens[j] != ")":
                        raise SexprError(
                            first_misfit(tokens, [i], _term_misfit))
                    done.append(ty)
                    i = j + 1
                continue
            i += 1
            if tok != ")":
                t = atoms.get(tok)
                done.append(t if t is not None else _term_atom(tok, atoms))
                continue
            step, data, start, o = frames.pop()
            n = len(done) - start
            if step == _BINOP:
                if n != 2:
                    raise SexprError(first_misfit(tokens, [o], _term_misfit))
                right = done.pop()
                t = BinOp(data, done.pop(), right)
            elif step >= _APP:
                if step == _EQ and n != 3:
                    raise SexprError(first_misfit(tokens, [o], _term_misfit))
                # application, left-associated
                t = done[start]
                for k in range(start + 1, len(done)):
                    t = App(t, done[k])
                del done[start:]
            else:
                if n != (2 if step == _BINDER else 1):
                    raise SexprError(first_misfit(tokens, [o], _term_misfit))
                body = done.pop()
                if step == _NOT:
                    t = Not(body)
                elif step == _BINDER:
                    ty = done.pop()
                    t = _BINDERS[data](read_ident(tokens, o + 3), ty, body)
                else:
                    t = PiType(read_ident(tokens, o + 2), body)
            if not frames:
                return t, i
            done.append(t)
    except (SexprError, IndexError):
        message = first_misfit(tokens, [f[3] for f in frames], _term_misfit)
        if message is not None:
            raise SexprError(message) from None
        raise


# ---------------------------------------------------------------------------
# Tasks

_SECTIONS = ("types", "sig", "hyps", "goals")


def _task_misfit(form) -> str | None:
    if not (isinstance(form, list) and form and form[0] == "task"):
        return "task form must start with (task ...)"
    for part in form[1:]:
        if not (isinstance(part, list) and part and part[0] in _SECTIONS):
            return f"unknown task section {dumps(part)}"
    if [part[0] for part in form[1:]] != list(_SECTIONS):
        return ("a task needs exactly the sections "
                "(types ...) (sig ...) (hyps ...) (goals ...)")
    return None


def _entry_misfit(section: str, entry) -> str | None:
    if isinstance(entry, list) and len(entry) == 2 \
            and isinstance(entry[0], str) \
            and (section != "types" or isinstance(entry[1], int)):
        return None
    what = {"types": "bad type declaration", "sig": "bad signature entry"}
    return f"{what.get(section, 'bad premise')} {dumps(entry)}"


def _task_error(tokens, start, section, entry) -> str | None:
    """The first misfit of the task at tokens[start]: its sections, then
    the entry at tokens[entry] of that section, if any."""
    message = _task_misfit(form_at(tokens, start))
    if message is None and entry is not None:
        message = _entry_misfit(section, form_at(tokens, entry))
    return message


def read_task(tokens: list[str], i: int, cache) -> tuple[Task, int]:
    """The task at tokens[i] and the index after it; TaskError for one
    that Task() refuses."""
    start, section, entry = i, None, None
    parts: list[list] = []
    try:
        if tokens[i] != "(" or tokens[i + 1] != "task":
            raise SexprError(_task_error(tokens, start, None, None))
        i += 2
        for section in _SECTIONS:
            if tokens[i] != "(" or tokens[i + 1] != section:
                raise SexprError(_task_error(tokens, start, None, None))
            i += 2
            entries: list = []
            entry = None
            while tokens[i] != ")":
                entry = i
                name = (read_ident(tokens, i + 1)
                        if tokens[i] == "(" else None)
                if name is None:
                    raise SexprError(_task_error(tokens, start, section, entry))
                i += 2
                if section == "types":
                    arity = _atom(tokens[i]) if tokens[i] not in "()" else None
                    if not isinstance(arity, int):
                        raise SexprError(
                            _task_error(tokens, start, section, entry))
                    entries.append((name, arity))
                    i += 1
                elif section == "sig":
                    ty, i = read_type(tokens, i, cache)
                    entries.append((name, ty))
                else:
                    t, i = read_term(tokens, i, cache)
                    entries.append(Premise(name, t))
                if tokens[i] != ")":
                    raise SexprError(_task_error(tokens, start, section, entry))
                i += 1
            i += 1
            parts.append(entries)
        if tokens[i] != ")":
            raise SexprError(_task_error(tokens, start, None, None))
    except (SexprError, IndexError):
        message = _task_error(tokens, start, section, entry)
        if message is not None:
            raise SexprError(message) from None
        raise
    types, sig, hyps, goals = map(tuple, parts)
    return Task(types=types, sig=sig, hyps=hyps, goals=goals), i + 1
