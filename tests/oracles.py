"""Independent reference implementations used to cross-check the library.

These are deliberately written in the most naive way possible and must not
import anything from certforge beyond the plain AST constructors. They were
written and frozen before the implementations they test. The reference
form and certificate printers and the reference blast search at the end
are the exceptions (see there).
"""

from __future__ import annotations

import dataclasses

from certforge import cert, sexpr
from certforge.core import (
    RESERVED,
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
    Var,
    fresh_ident,
    ident,
)
from certforge.task import Task


def ref_struct_equal(a, b) -> bool:
    """a == b as it was before identifiers, types and terms were
    hash-consed: the frozen dataclasses' ==, which compares the class and
    then each field, walked here on an explicit stack. An Ident compares
    by (name, uid), not by its text: Ident("x#3") and Ident("x", 3) print
    alike. No identity shortcut is taken."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            if type(x) is not type(y):
                return False
            todo += ((getattr(x, f.name), getattr(y, f.name))
                     for f in dataclasses.fields(x))
        elif isinstance(x, tuple):
            if not isinstance(y, tuple) or len(x) != len(y):
                return False
            todo += zip(x, y)
        elif x != y:
            return False
    return True


def db_type(ty: Type, tenv: tuple) -> tuple:
    """Nameless normal form of a type. tenv holds Pi-bound type variables."""
    if isinstance(ty, Prop):
        return ("prop",)
    if isinstance(ty, TVar):
        for depth in range(len(tenv) - 1, -1, -1):
            if tenv[depth] == ty.name:
                return ("tbound", len(tenv) - 1 - depth)
        return ("tfree", str(ty.name))
    if isinstance(ty, Arrow):
        return ("arrow", db_type(ty.left, tenv), db_type(ty.right, tenv))
    if isinstance(ty, TApp):
        return ("tapp", str(ty.head)) + tuple(db_type(a, tenv) for a in ty.args)
    raise AssertionError(f"unknown type node {ty!r}")


def db_term(t: Term, env: tuple = (), tenv: tuple = ()) -> tuple:
    """Nameless (de Bruijn) normal form of a term.

    Two terms are alpha-equivalent exactly when their normal forms are equal.
    Innermost binder gets index 0; lookup scans from the end so shadowed
    names resolve to the nearest binder.
    """
    if isinstance(t, Var):
        for depth in range(len(env) - 1, -1, -1):
            if env[depth] == t.name:
                return ("bound", len(env) - 1 - depth)
        return ("free", str(t.name))
    if isinstance(t, IntLit):
        return ("int", t.value)
    if isinstance(t, Top):
        return ("top",)
    if isinstance(t, Bottom):
        return ("bot",)
    if isinstance(t, Not):
        return ("not", db_term(t.body, env, tenv))
    if isinstance(t, BinOp):
        return (t.op, db_term(t.left, env, tenv), db_term(t.right, env, tenv))
    if isinstance(t, App):
        return ("app", db_term(t.fn, env, tenv), db_term(t.arg, env, tenv))
    if isinstance(t, Lam):
        return ("lam", db_type(t.ty, tenv), db_term(t.body, env + (t.var,), tenv))
    if isinstance(t, Exists):
        return ("ex", db_type(t.ty, tenv), db_term(t.body, env + (t.var,), tenv))
    if isinstance(t, Forall):
        return ("all", db_type(t.ty, tenv), db_term(t.body, env + (t.var,), tenv))
    if isinstance(t, PiType):
        return ("pi", db_term(t.body, env, tenv + (t.var,)))
    raise AssertionError(f"unknown term node {t!r}")


def eval_prop(t: Term, assignment: dict) -> bool:
    """Evaluate a quantifier-free propositional formula under an assignment.

    Atoms are bare variables; the assignment maps the variable name string
    to a bool. Anything outside the propositional fragment is an error.
    """
    if isinstance(t, Var):
        return assignment[str(t.name)]
    if isinstance(t, Top):
        return True
    if isinstance(t, Bottom):
        return False
    if isinstance(t, Not):
        return not eval_prop(t.body, assignment)
    if isinstance(t, BinOp):
        a = eval_prop(t.left, assignment)
        b = eval_prop(t.right, assignment)
        if t.op == "and":
            return a and b
        if t.op == "or":
            return a or b
        if t.op == "imp":
            return (not a) or b
        if t.op == "iff":
            return a == b
    raise AssertionError(f"not propositional: {t!r}")


def prop_atoms(t: Term) -> set:
    """Atom names of a quantifier-free propositional formula."""
    if isinstance(t, Var):
        return {str(t.name)}
    if isinstance(t, (Top, Bottom)):
        return set()
    if isinstance(t, Not):
        return prop_atoms(t.body)
    if isinstance(t, BinOp):
        return prop_atoms(t.left) | prop_atoms(t.right)
    raise AssertionError(f"not propositional: {t!r}")


def brute_force_valid(hyps: list, goals: list) -> bool:
    """Truth-table validity: every assignment satisfying all hyps satisfies
    at least one goal."""
    atoms = sorted(set().union(*[prop_atoms(f) for f in hyps + goals], set()))
    for bits in range(1 << len(atoms)):
        assignment = {a: bool(bits >> i & 1) for i, a in enumerate(atoms)}
        if all(eval_prop(h, assignment) for h in hyps):
            if not any(eval_prop(g, assignment) for g in goals):
                return False
    return True


# ---------------------------------------------------------------------------
# Typing: one metavariable per application


class Refused(Exception):
    """The reference typechecker found no derivation."""


class RefMeta:
    """A metavariable of the reference typechecker; prints as ?."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __str__(self) -> str:
        return "?"


_INT = TApp(Ident("int"), ())
_REF_A = TVar(Ident("a"))
_REF_INTERPRETED_TYPES = {Ident("int"): 0}
_REF_INTERPRETED = {
    Ident("="): Arrow(_REF_A, Arrow(_REF_A, Prop())),
    **{Ident(op): Arrow(_INT, Arrow(_INT, _INT)) for op in "+*-"},
    **{Ident(op): Arrow(_INT, Arrow(_INT, Prop()))
       for op in (">", "<", ">=", "<=")},
}


def _ref_type_vars(ty: Type) -> list:
    """Type variable names of ty in order of first occurrence."""
    if isinstance(ty, TVar):
        return [ty.name]
    parts = [ty.left, ty.right] if isinstance(ty, Arrow) else \
        list(ty.args) if isinstance(ty, TApp) else []
    out: list = []
    for p in parts:
        out += [v for v in _ref_type_vars(p) if v not in out]
    return out


def _ref_subst(ty, mapping: dict):
    """ty with each type variable in mapping replaced."""
    if isinstance(ty, TVar):
        return mapping.get(ty.name, ty)
    if isinstance(ty, Arrow):
        return Arrow(_ref_subst(ty.left, mapping), _ref_subst(ty.right, mapping))
    if isinstance(ty, TApp):
        return TApp(ty.head, tuple(_ref_subst(a, mapping) for a in ty.args))
    return ty


def _ref_check_type(I: dict, ty, allow_vars: bool) -> None:
    if isinstance(ty, TVar):
        if not allow_vars:
            raise Refused(f"type variable {ty.name} not allowed here")
    elif isinstance(ty, Arrow):
        _ref_check_type(I, ty.left, allow_vars)
        _ref_check_type(I, ty.right, allow_vars)
    elif isinstance(ty, TApp):
        arity = _REF_INTERPRETED_TYPES.get(ty.head, I.get(ty.head))
        if arity is None:
            raise Refused(f"undeclared type symbol {ty.head}")
        if arity != len(ty.args):
            raise Refused(f"type symbol {ty.head} has arity {arity}, "
                          f"applied to {len(ty.args)}")
        for a in ty.args:
            _ref_check_type(I, a, allow_vars)
    elif not isinstance(ty, Prop):
        raise Refused(f"malformed type {ty!r}")


def _ref_idents(t: Term) -> set:
    """Every ident in t: term names, binders, and names in annotations."""
    def of_type(ty):
        if isinstance(ty, TVar):
            return {ty.name}
        if isinstance(ty, Arrow):
            return of_type(ty.left) | of_type(ty.right)
        if isinstance(ty, TApp):
            return {ty.head}.union(*map(of_type, ty.args))
        return set()

    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Not):
        return _ref_idents(t.body)
    if isinstance(t, BinOp):
        return _ref_idents(t.left) | _ref_idents(t.right)
    if isinstance(t, App):
        return _ref_idents(t.fn) | _ref_idents(t.arg)
    if isinstance(t, (Lam, Exists, Forall)):
        return {t.var} | of_type(t.ty) | _ref_idents(t.body)
    if isinstance(t, PiType):
        return {t.var} | _ref_idents(t.body)
    return set()


def _ref_subst_annotations(t: Term, alpha, tau) -> Term:
    """t with the type variable alpha replaced by tau in every annotation."""
    if isinstance(t, Not):
        return Not(_ref_subst_annotations(t.body, alpha, tau))
    if isinstance(t, BinOp):
        return BinOp(t.op, _ref_subst_annotations(t.left, alpha, tau),
                     _ref_subst_annotations(t.right, alpha, tau))
    if isinstance(t, App):
        return App(_ref_subst_annotations(t.fn, alpha, tau),
                   _ref_subst_annotations(t.arg, alpha, tau))
    if isinstance(t, (Lam, Exists, Forall)):
        return type(t)(t.var, _ref_subst(t.ty, {alpha: tau}),
                       _ref_subst_annotations(t.body, alpha, tau))
    if isinstance(t, PiType) and t.var != alpha:
        return PiType(t.var, _ref_subst_annotations(t.body, alpha, tau))
    return t


class _RefUnifier:
    """Bindings applied in full before every comparison."""

    def __init__(self) -> None:
        self.count = 0
        self.subst: dict = {}

    def fresh(self) -> RefMeta:
        self.count += 1
        return RefMeta(self.count)

    def apply(self, ty):
        if isinstance(ty, RefMeta):
            return self.apply(self.subst[ty.n]) if ty.n in self.subst else ty
        if isinstance(ty, Arrow):
            return Arrow(self.apply(ty.left), self.apply(ty.right))
        if isinstance(ty, TApp):
            return TApp(ty.head, tuple(self.apply(a) for a in ty.args))
        return ty

    def metas(self, ty) -> set:
        ty = self.apply(ty)
        if isinstance(ty, RefMeta):
            return {ty.n}
        if isinstance(ty, Arrow):
            return self.metas(ty.left) | self.metas(ty.right)
        if isinstance(ty, TApp):
            return set().union(*map(self.metas, ty.args))
        return set()

    def unify(self, a, b, where: str) -> None:
        a, b = self.apply(a), self.apply(b)
        if isinstance(a, RefMeta):
            if isinstance(b, RefMeta) and a.n == b.n:
                return
            if a.n in self.metas(b):
                raise Refused(f"occurs check failed in {where}")
            self.subst[a.n] = b
        elif isinstance(b, RefMeta):
            self.unify(b, a, where)
        elif isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.left, b.left, where)
            self.unify(a.right, b.right, where)
        elif isinstance(a, TApp) and isinstance(b, TApp) and \
                a.head == b.head and len(a.args) == len(b.args):
            for x, y in zip(a.args, b.args):
                self.unify(x, y, where)
        elif not (isinstance(a, Prop) and isinstance(b, Prop)) and not (
                isinstance(a, TVar) and isinstance(b, TVar)
                and a.name == b.name):
            raise Refused(f"cannot unify {a} with {b} in {where}")


def ref_annotate(I: dict, sig: dict, t: Term, expected=None) -> tuple:
    """(type, inst, iotas, body) as core.annotate's Typing holds them, or
    Refused with annotate's message (a meta printing as ?).

    The typing rules as annotate implemented them before applications were
    checked: every application makes a fresh meta ?r and unifies the
    head's type with (argument's type) -> ?r. An instance no constraint
    fixes is refused at the first such occurrence in walk order.
    """
    alphas = []
    while isinstance(t, PiType):
        alphas.append(t.var)
        t = t.body
    I = dict(I)
    iotas = []
    if len(set(alphas)) != len(alphas):
        raise Refused("duplicate type variable in prenex prefix")
    taken = set(I) | set(_REF_INTERPRETED_TYPES) | _ref_idents(t) | set(alphas)
    for a in alphas:
        iota, k = a, 0
        while iota in taken:
            k += 1
            iota = Ident(a.name, k)
        taken.add(iota)
        I[iota] = 0
        iotas.append(iota)
        t = _ref_subst_annotations(t, a, TApp(iota, ()))
    u = _RefUnifier()
    inst: dict = {}

    def infer(s: Term, path: tuple, env: dict):
        if isinstance(s, Var):
            if s.name in sig:
                scheme = sig[s.name]
            elif s.name in _REF_INTERPRETED:
                scheme = _REF_INTERPRETED[s.name]
            elif s.name in env:
                scheme = env[s.name]
            else:
                raise Refused(f"unbound variable {s.name}")
            tvs = _ref_type_vars(scheme)
            if not tvs:
                return scheme
            metas = [u.fresh() for _ in tvs]
            inst[path] = (s.name, metas)
            return _ref_subst(scheme, dict(zip(tvs, metas)))
        if isinstance(s, IntLit):
            return _INT
        if isinstance(s, (Top, Bottom)):
            return Prop()
        if isinstance(s, Not):
            u.unify(infer(s.body, path + (0,), env), Prop(), "negation")
            return Prop()
        if isinstance(s, BinOp):
            u.unify(infer(s.left, path + (0,), env), Prop(), f"{s.op} left")
            u.unify(infer(s.right, path + (1,), env), Prop(), f"{s.op} right")
            return Prop()
        if isinstance(s, App):
            fn = infer(s.fn, path + (0,), env)
            arg = infer(s.arg, path + (1,), env)
            res = u.fresh()
            u.unify(fn, Arrow(arg, res), "application")
            return res
        if isinstance(s, (Lam, Exists, Forall)):
            _ref_check_type(I, s.ty, False)
            if s.var in env or s.var in sig or s.var in _REF_INTERPRETED:
                raise Refused(f"binder {s.var} shadows a declared symbol")
            body = infer(s.body, path + (0,), {**env, s.var: s.ty})
            if isinstance(s, Lam):
                return Arrow(s.ty, body)
            u.unify(body, Prop(), "quantifier body")
            return Prop()
        raise Refused("type quantifier occurs under another constructor")

    top = infer(t, (), {})
    if alphas:
        u.unify(top, Prop(), "type quantifier body")
    if expected is not None:
        u.unify(top, expected, "required type")
    for p, (name, metas) in inst.items():
        if any(u.metas(m) for m in metas):
            raise Refused(f"instance of {name} at {list(p)} is ambiguous")
    return (u.apply(top),
            {p: tuple(map(u.apply, ms)) for p, (_, ms) in inst.items()},
            tuple(iotas), t)


def _ref_occurrences(t: Term, x, path: tuple = ()) -> list:
    """Paths of the occurrences of the variable x in t (t binds no x)."""
    if isinstance(t, Var):
        return [path] if t.name == x else []
    kids = [t.body] if isinstance(t, (Not, Lam, Exists, Forall, PiType)) \
        else [t.left, t.right] if isinstance(t, BinOp) \
        else [t.fn, t.arg] if isinstance(t, App) else []
    return [p for i, k in enumerate(kids)
            for p in _ref_occurrences(k, x, path + (i,))]


def redex_instances(I: dict, sig: dict, ctx: Lam, u: Term) -> dict:
    """The instances the redex (ctx u) gives each symbol occurrence of
    ctx.body[ctx.var -> u], by path: ctx.body's own, typed against prop
    with ctx.var : ctx.ty, and at each occurrence of ctx.var, u's, typed
    at ctx.ty. Substitution renames binders only, so paths line up.
    Refused if either typing is."""
    _, body, _, _ = ref_annotate(I, {**sig, ctx.var: ctx.ty}, ctx.body, Prop())
    _, arg, _, _ = ref_annotate(I, sig, u, ctx.ty)
    out = dict(body)
    for q in _ref_occurrences(ctx.body, ctx.var):
        out.update({q + p: tys for p, tys in arg.items()})
    return out


# ---------------------------------------------------------------------------
# The reference form printers: sexpr's printers from types, terms and tasks
# to list forms, as they were before str() and the form printers went
# through sexpr.to_text. dumps of a form they give is the text to_text (and
# str()) must print; they share no code with that printer.

# ref_type_form and ref_term_form print with an explicit stack of
# (form, index, node): the node's form goes into form[index]. A list form is
# made with a slot per element as soon as its node is popped, and its
# children are pushed to fill the slots, leftmost on top.

def ref_type_form(ty: Type):
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
        elif type(t).__str__ not in (object.__str__, Type.__str__):
            # a type of its own printing, such as a metavariable in a
            # typing error's message
            form[i] = str(t)
        else:
            raise sexpr.SexprError(f"cannot print type {t!r}")
    return out[0]


_BINDER_KEYWORDS = {Lam: "lam", Exists: "exists", Forall: "forall"}


def ref_term_form(t: Term):
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
                             [str(t.var), ref_type_form(t.ty)], None]
            todo.append((sub, 2, t.body))
        elif isinstance(t, PiType):
            form[i] = sub = ["pi", str(t.var), None]
            todo.append((sub, 2, t.body))
        else:
            raise sexpr.SexprError(f"cannot print term {t!r}")
    return out[0]


def ref_task_form(T: Task):
    return ["task",
            ["types"] + [[str(n), a] for n, a in T.types],
            ["sig"] + [[str(n), ref_type_form(ty)] for n, ty in T.sig],
            ["hyps"] + [[str(p.name), ref_term_form(p.formula)] for p in T.hyps],
            ["goals"] + [[str(p.name), ref_term_form(p.formula)] for p in T.goals]]


# ---------------------------------------------------------------------------
# The reference certificate printer: the form printer cert_dumps was before
# it printed in one pass. It builds the list form of every node and payload
# with the reference form printers above, walking a shared formula again at
# each occurrence, and prints the whole form with sexpr.dumps; the one-pass
# printer (sexpr.to_text) shares none of that code.

def _cert_form_node(node):
    """ref_cert_dumps' expand for cert.rebuild: a node's form without its
    subcertificates, which are its last fields, and those."""
    if isinstance(node, cert.SHole):
        return "SHole", ()
    form, children = [type(node).__name__], []
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        if isinstance(v, (cert.KernelCert, cert.SurfaceCert)):
            children.append(v)
        elif isinstance(v, bool):
            form.append(v)
        elif isinstance(v, Ident):
            form.append(str(v))
        elif isinstance(v, Term):
            form.append(ref_term_form(v))
        elif isinstance(v, Type):
            form.append(ref_type_form(v))
        elif isinstance(v, Task):
            form.append(ref_task_form(v))
        else:
            raise AssertionError(f"cannot serialize payload {v!r}")
    return form, children


def ref_cert_dumps(c) -> str:
    """The text of certificate c: its list form, built bottom-up with
    cert.rebuild, printed by sexpr.dumps."""
    return sexpr.dumps(cert.rebuild(c, _cert_form_node, list.__add__))


# ---------------------------------------------------------------------------
# The reference blast search: t_blast's search as it was before it carried
# state from step to step, written naively. Each step scans every premise:
# falsity and truth, then every hypothesis-goal pair, hypothesis-major,
# compared by their nameless normal forms, then the goals and the
# hypotheses from the first for a compound one; each fresh name is found by
# fresh_ident over all the task's premise names. It builds the tasks a step
# leaves with cert.elaborate_node, the rules t_blast elaborates with.

def _ref_fresh(base: str, T: Task):
    base = ident(base)
    if base.name in RESERVED | {"prop"}:
        base = ident(base.name + "_")
    return fresh_ident(base, set(T.premise_names()))


def _ref_kind(p) -> str:
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
    raise Refused(f"premise {p.name} is not propositional")


def _ref_blast_step(T: Task, parent: Task | None):
    """One step of the search on T, which parent's step left (None at the
    root). Every hypothesis-goal pair is compared, and none of two premises
    that parent had too, the same objects on the same sides, may close T:
    parent did not close."""
    kept = set() if parent is None else (
        {(False, id(p)) for p in parent.hyps}
        | {(True, id(p)) for p in parent.goals})
    for h in T.hyps:
        if isinstance(h.formula, Bottom):
            return cert.STrivial(h.name)
    for g in T.goals:
        if isinstance(g.formula, Top):
            return cert.STrivial(g.name)
    pairs = [(h, g) for h in T.hyps for g in T.goals
             if db_term(h.formula) == db_term(g.formula)]
    for h, g in pairs:
        assert (False, id(h)) not in kept or (True, id(g)) not in kept, \
            f"{h.name} and {g.name}, kept from the parent, close the task"
    if pairs:
        return cert.SAxiom(pairs[0][0].name, pairs[0][1].name)
    hole = cert.SHole
    for p in T.goals:
        kind, n = _ref_kind(p), p.name
        if kind == "and":
            return cert.SSplit(n, hole(), hole())
        if kind == "or":
            return cert.SDestruct(n, _ref_fresh(f"{n}.1", T),
                                  _ref_fresh(f"{n}.2", T), hole())
        if kind == "imp":
            return cert.SIntroImp(n, _ref_fresh(f"{n}.1", T), hole())
        if kind == "not":
            return cert.SSwapNeg(n, hole())
        if kind == "iff":
            return cert.SUnfoldIff(n, hole())
        if kind == "bottom":
            return cert.SClear(n, hole())
    for p in T.hyps:
        kind, n = _ref_kind(p), p.name
        if kind == "and":
            return cert.SDestruct(n, _ref_fresh(f"{n}.1", T),
                                  _ref_fresh(f"{n}.2", T), hole())
        if kind == "or":
            return cert.SSplit(n, hole(), hole())
        if kind == "imp":
            return cert.SSplitImp(n, _ref_fresh(f"{n}.1", T), hole(), hole())
        if kind == "not":
            return cert.SSwapNeg(n, hole())
        if kind == "iff":
            return cert.SUnfoldIff(n, hole())
        if kind == "top":
            return cert.SClear(n, hole())
    raise Refused("cannot close the task")


def ref_blast(T: Task, parent: Task | None = None):
    """The surface certificate the reference search builds for T, a
    well-typed task; Refused if it cannot close T."""
    s = _ref_blast_step(T, parent)
    _, kids = cert.elaborate_node((s, T))
    return cert.with_children(s, [ref_blast(sub, T) for _, sub in kids])
