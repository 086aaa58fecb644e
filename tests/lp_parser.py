"""A reader for the λΠ text emit_module and emit_preamble produce.

Parses modules (require lines, symbol declarations, rewrite rules) and
single terms back into certforge.lp_export's term classes, compares
terms up to renaming of bound variables, and lists a term's free names.
The tests use it for round trips, scope audits and golden comparisons of
emitted text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from certforge.lp_export import (
    SORT,
    LApp,
    LArrow,
    LConst,
    LLam,
    LProd,
    LpTerm,
    LSort,
    LVar,
)


def lp_alpha_equal(a: LpTerm, b: LpTerm) -> bool:
    def eq(a: LpTerm, b: LpTerm, ma: dict[str, int], mb: dict[str, int],
           depth: int) -> bool:
        if isinstance(a, LSort) and isinstance(b, LSort):
            return True
        if isinstance(a, (LConst, LVar)) and isinstance(b, (LConst, LVar)):
            da, db = ma.get(a.name), mb.get(b.name)
            if da is None and db is None:
                return a.name == b.name
            return da == db
        if isinstance(a, LProd) and isinstance(b, LProd):
            return eq(a.dom, b.dom, ma, mb, depth) and eq(
                a.body, b.body, {**ma, a.var: depth}, {**mb, b.var: depth},
                depth + 1)
        if isinstance(a, LLam) and isinstance(b, LLam):
            if (a.ann is None) != (b.ann is None):
                return False
            if a.ann is not None and not eq(a.ann, b.ann, ma, mb, depth):
                return False
            return eq(a.body, b.body, {**ma, a.var: depth},
                      {**mb, b.var: depth}, depth + 1)
        if isinstance(a, LArrow) and isinstance(b, LArrow):
            return eq(a.left, b.left, ma, mb, depth) and eq(
                a.right, b.right, ma, mb, depth)
        if isinstance(a, LApp) and isinstance(b, LApp):
            return eq(a.fn, b.fn, ma, mb, depth) and eq(
                a.arg, b.arg, ma, mb, depth)
        return False

    return eq(a, b, {}, {}, 0)


def lp_atoms(t: LpTerm) -> frozenset[str]:
    """Names occurring free, constants and variables alike."""
    out: set[str] = set()

    def walk(t: LpTerm, bound: frozenset[str]) -> None:
        if isinstance(t, (LConst, LVar)):
            if t.name not in bound:
                out.add(t.name)
        elif isinstance(t, LProd):
            walk(t.dom, bound)
            walk(t.body, bound | {t.var})
        elif isinstance(t, LLam):
            if t.ann is not None:
                walk(t.ann, bound)
            walk(t.body, bound | {t.var})
        elif isinstance(t, LArrow):
            walk(t.left, bound)
            walk(t.right, bound)
        elif isinstance(t, LApp):
            walk(t.fn, bound)
            walk(t.arg, bound)

    walk(t, frozenset())
    return frozenset(out)


# ---------------------------------------------------------------------------
# parsing

@dataclass(frozen=True, slots=True)
class LpRequire:
    path: str


@dataclass(frozen=True, slots=True)
class LpSymbol:
    name: str
    ty: LpTerm | None
    body: LpTerm | None


@dataclass(frozen=True, slots=True)
class LpRule:
    lhs: LpTerm
    rhs: LpTerm


_TOKEN = re.compile(r"//[^\n]*|\$?[A-Za-z_][A-Za-z0-9_]*|[(),:;]|[Πλ→↪≔.]|\s+")


def _tokenize(text: str) -> list[str]:
    toks: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"stray character {text[pos]!r} at offset {pos}")
        pos = m.end()
        tok = m.group()
        if tok.strip() and not tok.startswith("//"):
            toks.append(tok)
    return toks


class _Parser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def term(self, bound: frozenset[str]) -> LpTerm:
        tok = self.peek()
        if tok == "Π":
            self.next()
            var = self.next()
            self.expect(":")
            dom = self.arrow(bound)
            self.expect(",")
            return LProd(var, dom, self.term(bound | {var}))
        if tok == "λ":
            self.next()
            var = self.next()
            ann = None
            if self.peek() == ":":
                self.next()
                ann = self.arrow(bound)
            self.expect(",")
            return LLam(var, ann, self.term(bound | {var}))
        return self.arrow(bound)

    def arrow(self, bound: frozenset[str]) -> LpTerm:
        left = self.app(bound)
        if self.peek() == "→":
            self.next()
            return LArrow(left, self.term(bound))
        return left

    def app(self, bound: frozenset[str]) -> LpTerm:
        t = self.atom(bound)
        while True:
            tok = self.peek()
            if tok is None or tok in (")", ",", ";", "→", "↪", "≔", ":"):
                return t
            t = LApp(t, self.atom(bound))

    def atom(self, bound: frozenset[str]) -> LpTerm:
        tok = self.next()
        if tok == "(":
            t = self.term(bound)
            self.expect(")")
            return t
        if tok == "TYPE":
            return SORT
        if not re.fullmatch(r"\$?[A-Za-z_][A-Za-z0-9_]*", tok):
            raise ValueError(f"unexpected token {tok!r}")
        if tok in bound or tok.startswith("$"):
            return LVar(tok)
        return LConst(tok)


def parse_lp_term(text: str) -> LpTerm:
    p = _Parser(_tokenize(text))
    t = p.term(frozenset())
    if p.peek() is not None:
        raise ValueError(f"trailing tokens at {p.peek()!r}")
    return t


def parse_lp(text: str) -> list[LpRequire | LpSymbol | LpRule]:
    """Parse a module: require lines, symbol declarations, rewrite rules."""
    p = _Parser(_tokenize(text))
    out: list[LpRequire | LpSymbol | LpRule] = []
    while p.peek() is not None:
        tok = p.next()
        if tok == "require":
            p.expect("open")
            parts = [p.next()]
            while p.peek() == ".":
                p.next()
                parts.append(p.next())
            p.expect(";")
            out.append(LpRequire(".".join(parts)))
        elif tok == "symbol":
            name = p.next()
            ty = body = None
            if p.peek() == ":":
                p.next()
                ty = p.term(frozenset())
            if p.peek() == "≔":
                p.next()
                body = p.term(frozenset())
            p.expect(";")
            out.append(LpSymbol(name, ty, body))
        elif tok == "rule":
            lhs = p.term(frozenset())
            p.expect("↪")
            rhs = p.term(frozenset())
            p.expect(";")
            out.append(LpRule(lhs, rhs))
        else:
            raise ValueError(f"unexpected declaration {tok!r}")
    return out
