"""Command-line driver.

Commands:
  parse      read a task file, typecheck it, print the canonical form
  transform  apply a certifying transformation; write the resulting task
             files only when the kernel certificate checks
  check      run the checker on a task + serialized certificate
  export     emit a lambda-Pi module (and optionally the preamble)
  bench      time blast + check on the chain-task family, CSV output

Task files hold one (task ...) s-expression; certificates are the
serialized kernel form from cert_dumps. Every command exits 0 only when
the whole pipeline validated.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import sexpr
from . import transforms as tr
from .cert import CertError, KHole, cert_dumps, cert_loads, elaborate, leaves
from .checker import CheckFailure, ccheck
from .core import Ident, Term, Type, TypingError, ident
from .lp_export import ExportError, emit_module, emit_preamble
from .sexpr import SexprError
from .task import (Task, TaskError, gen_chain_task, ill_typed_reason,
                   task_list_alpha_equal, well_typed)
from .transforms import TransformError


@dataclass(frozen=True, slots=True)
class BenchRow:
    n: int
    transform_s: float
    cert_bytes: int
    check_s: float

    def __post_init__(self) -> None:
        if self.n <= 0 or self.transform_s < 0 or self.cert_bytes < 0 \
                or self.check_s < 0:
            raise ValueError(f"negative bench row for n={self.n}")


# ---------------------------------------------------------------------------
# Parsing task files

def parse_task(text: str) -> Task:
    """One (task ...) datum, checked: every premise must be a proposition.
    TaskError for text that spells no task. The task is judged by
    well_typed, so the kernel finds its premises already recorded; a
    refusal names the first premise that is not prop and why (see
    ill_typed_reason)."""
    try:
        T = sexpr.task_loads(text)
    except SexprError as e:
        raise TaskError(f"malformed task text: {e}") from e
    if well_typed(T):
        return T
    raise TypingError(ill_typed_reason([T]))


def read_task_file(path: str) -> Task:
    return parse_task(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# The transformation registry

def _single_premise(ns) -> Ident:
    ps = ns.premise or []
    if len(ps) != 1:
        raise TransformError(f"{ns.name} needs exactly one --premise")
    return ident(ps[0])


def _names(ns, count: int) -> tuple[Ident, ...]:
    names = ns.new_names or []
    if len(names) != count:
        raise TransformError(f"{ns.name} needs --as with {count} name(s)")
    return tuple(ident(n) for n in names)


def _term(ns, what: str = "--with") -> Term:
    if ns.with_arg is None:
        raise TransformError(f"{ns.name} needs {what} <term>")
    return sexpr.term_from_sexpr(sexpr.loads(ns.with_arg))


def _type(ns) -> Type:
    if ns.with_arg is None:
        raise TransformError(f"{ns.name} needs --with <type>")
    return sexpr.type_from_sexpr(sexpr.loads(ns.with_arg))


def _goal(ns) -> Ident:
    if ns.goal is None:
        raise TransformError(f"{ns.name} needs --goal")
    return ident(ns.goal)


def _eq(ns) -> Ident:
    if ns.eq is None:
        raise TransformError(f"{ns.name} needs --eq <premise>")
    return ident(ns.eq)


def _rewrite(T, ns):
    inst = None
    if ns.with_arg is not None:
        inst = [sexpr.term_from_sexpr(f)
                for f in sexpr.loads_many(ns.with_arg)]
    return tr.t_rewrite(T, _eq(ns), _single_premise(ns),
                        right_to_left=ns.right_to_left, inst=inst)


def _induction(T, ns):
    if ns.var is None or ns.bound is None:
        raise TransformError("induction needs --var and --bound")
    return tr.t_induction(T, _single_premise(ns), ident(ns.var),
                          sexpr.term_from_sexpr(sexpr.loads(ns.bound)))


def _two_then_one(T, ns):
    ps = ns.premise or []
    if len(ps) != 2:
        raise TransformError("construct needs --premise with two names")
    return tr.t_construct(T, ident(ps[0]), ident(ps[1]), _names(ns, 1)[0])


_TRANSFORMS = {
    "identity": (lambda T, ns: tr.t_identity(T), ""),
    "trivial": (lambda T, ns: tr.t_trivial(T, _single_premise(ns)),
                "--premise P"),
    "axiom": (lambda T, ns: tr.t_axiom(T, _single_premise(ns), _goal(ns)),
              "--premise H --goal G"),
    "assert": (lambda T, ns: tr.t_assert(T, _names(ns, 1)[0], _term(ns)),
               "--as NAME --with FORMULA"),
    "split": (lambda T, ns: tr.t_split(T, _single_premise(ns)),
              "--premise P"),
    "destruct": (lambda T, ns: tr.t_destruct(T, _single_premise(ns),
                                             *_names(ns, 2)),
                 "--premise P --as P1 P2"),
    "construct": (_two_then_one, "--premise P1 P2 --as P"),
    "clear": (lambda T, ns: tr.t_clear(T, _single_premise(ns)),
              "--premise P"),
    "swap-neg": (lambda T, ns: tr.t_swap_neg(T, _single_premise(ns)),
                 "--premise P"),
    "intro-imp": (lambda T, ns: tr.t_intro_imp(T, _single_premise(ns)),
                  "--premise G"),
    "split-imp": (lambda T, ns: tr.t_split_imp(T, _single_premise(ns)),
                  "--premise H"),
    "unfold-iff": (lambda T, ns: tr.t_unfold_iff(T, _single_premise(ns)),
                   "--premise P"),
    "instantiate": (lambda T, ns: tr.t_instantiate(T, _single_premise(ns),
                                                   _term(ns)),
                    "--premise P --with TERM"),
    "inst-type": (lambda T, ns: tr.t_inst_type(T, _single_premise(ns),
                                               _type(ns)),
                  "--premise H --with TYPE"),
    "intro": (lambda T, ns: tr.t_intro(T, _single_premise(ns)),
              "--premise P"),
    "rewrite": (_rewrite, "--eq E --premise P [--right-to-left] [--with TERMS]"),
    "induction": (_induction, "--premise G --var X --bound TERM"),
    "blast": (lambda T, ns: tr.t_blast(T), ""),
}


# ---------------------------------------------------------------------------
# Commands

def cmd_parse(ns) -> int:
    T = read_task_file(ns.file)
    print(sexpr.to_text(T))
    return 0


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _rejected(f: CheckFailure) -> int:
    print(f"error: certificate rejected: {f}", file=sys.stderr)
    return 1


def cmd_transform(ns) -> int:
    T = read_task_file(ns.file)
    name = ns.name.replace("_", "-")
    entry = _TRANSFORMS.get(name)
    if entry is None:
        known = " ".join(sorted(_TRANSFORMS))
        raise TransformError(f"unknown transformation {ns.name}; one of: {known}")
    op, _ = entry
    tasks, s = op(T, ns)
    k = elaborate(s, T)
    report = ccheck(k, T)
    if not report.ok:
        return _rejected(report.failure)
    if not task_list_alpha_equal(report.derived_leaves, tasks):
        raise TransformError(
            f"{name}: the checked certificate does not derive the tasks "
            "the transformation returned")
    src = Path(ns.file)
    out_dir = Path(ns.out_dir) if ns.out_dir else src.parent
    for i, t in enumerate(tasks, 1):
        _write(out_dir / f"{src.stem}.{i}.tsk",
               sexpr.to_text(t) + "\n")
    if ns.emit_cert:
        _write(Path(ns.emit_cert), cert_dumps(k) + "\n")
    if ns.emit_lp:
        _write(Path(ns.emit_lp), emit_module(T, report.derived_leaves, k))
    print(f"ok: {len(tasks)} resulting task(s)")
    return 0


def cmd_check(ns) -> int:
    T = read_task_file(ns.file)
    k = cert_loads(Path(ns.cert).read_text(encoding="utf-8"))
    report = ccheck(k, T)
    if not report.ok:
        return _rejected(report.failure)
    print(f"ok: {len(report.derived_leaves)} open task(s)")
    return 0


def cmd_export(ns) -> int:
    if ns.preamble:
        _write(Path(ns.preamble), emit_preamble())
    if ns.file is None:
        if not ns.preamble:
            print("error: nothing to export; give a task file or --preamble",
                  file=sys.stderr)
            return 1
        return 0
    T = read_task_file(ns.file)
    if ns.cert:
        k = cert_loads(Path(ns.cert).read_text(encoding="utf-8"))
    else:
        k = KHole(T)
    module = emit_module(T, leaves(k), k)
    if ns.out:
        _write(Path(ns.out), module)
    else:
        print(module, end="")
    return 0


# ---------------------------------------------------------------------------
# Benchmarks

def bench_ladder(max_n: int) -> list[int]:
    if max_n < 5:
        raise ValueError("bench needs --max-n >= 5")
    ns = [n for n in (5, 10, 15, 20, 25, 50, 100) if n <= max_n]
    k = 200
    while k <= max_n:
        ns.append(k)
        k *= 2
    if ns[-1] != max_n:
        ns.append(max_n)
    return ns


def bench_row(n: int, runs: int = 3) -> BenchRow:
    T = gen_chain_task(n)
    transform_times, check_times, size = [], [], 0
    for _ in range(runs):
        t0 = time.perf_counter()
        tasks, s = tr.t_blast(T)
        k = elaborate(s, T)
        t1 = time.perf_counter()
        report = ccheck(k, T)
        t2 = time.perf_counter()
        if tasks or not report.ok:
            raise RuntimeError(f"blast left the chain task open at n={n}")
        transform_times.append(t1 - t0)
        check_times.append(t2 - t1)
        size = len(cert_dumps(k).encode("utf-8"))
    return BenchRow(n, statistics.median(transform_times), size,
                    statistics.median(check_times))


def cmd_bench(ns) -> int:
    ladder = bench_ladder(ns.max_n)
    lines = ["n,transform_s,cert_bytes,check_s"]
    if not ns.out:
        print(lines[0], flush=True)
    for n in ladder:
        row = bench_row(n, runs=ns.runs)
        lines.append(f"{row.n},{row.transform_s:.6f},"
                     f"{row.cert_bytes},{row.check_s:.6f}")
        if not ns.out:
            print(lines[-1], flush=True)
    if ns.out:
        _write(Path(ns.out), "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Wiring

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="certforge",
        description="certified logical transformations on proof tasks")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="typecheck a task file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_parse)

    usage = "; ".join(f"{n} {u}".strip() for n, (_, u) in
                      sorted(_TRANSFORMS.items()))
    st = sub.add_parser("transform", help="apply a certifying transformation")
    st.add_argument("file")
    st.add_argument("--name", required=True, help=usage)
    st.add_argument("--premise", nargs="+", metavar="P")
    st.add_argument("--goal", metavar="G")
    st.add_argument("--as", dest="new_names", nargs="+", metavar="NAME")
    st.add_argument("--with", dest="with_arg", metavar="SEXPR")
    st.add_argument("--eq", metavar="H")
    st.add_argument("--var", metavar="X")
    st.add_argument("--bound", metavar="SEXPR")
    st.add_argument("--right-to-left", action="store_true")
    st.add_argument("--out-dir", metavar="DIR")
    st.add_argument("--emit-cert", metavar="FILE")
    st.add_argument("--emit-lp", metavar="FILE")
    st.set_defaults(func=cmd_transform)

    sc = sub.add_parser("check", help="check a serialized certificate")
    sc.add_argument("file")
    sc.add_argument("--cert", required=True, metavar="FILE")
    sc.set_defaults(func=cmd_check)

    se = sub.add_parser("export", help="emit lambda-Pi text")
    se.add_argument("file", nargs="?")
    se.add_argument("--cert", metavar="FILE")
    se.add_argument("--out", metavar="FILE")
    se.add_argument("--preamble", metavar="FILE")
    se.set_defaults(func=cmd_export)

    sb = sub.add_parser("bench", help="blast/check timings on chain tasks")
    sb.add_argument("--max-n", type=int, default=100)
    sb.add_argument("--out", metavar="FILE")
    sb.add_argument("--runs", type=int, default=3)
    sb.set_defaults(func=cmd_bench)

    return p


def main(argv: list[str] | None = None) -> int:
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(40000)
    try:
        ns = _build_parser().parse_args(argv)
        return ns.func(ns)
    except (OSError, ValueError, SexprError, TaskError, TypingError,
            CertError, TransformError, ExportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
