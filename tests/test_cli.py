"""The command-line driver: parsing, the pipeline commands, bench shapes."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lp_parser as lpp
from certforge import cli, sexpr
from certforge.cert import KHole, cert_dumps, cert_loads
from certforge.cli import (
    BenchRow,
    bench_ladder,
    bench_row,
    main,
    parse_task,
)
from certforge.core import Top, TypingError, ident, var
from certforge.task import Premise, TaskError, gen_chain_task, task_alpha_equal
from oracles import ref_task_form

EX1 = """
(task (types)
      (sig (y (int)) (x (int)) (p (-> (int) prop)))
      (hyps (H1 (= y (+ (* 2 x) 1)))
            (H (forall (i (int)) (p (+ (* 4 i) 1)))))
      (goals (G (p (* y y)))))
"""

EX2 = """
(task (types (color 0) (set 1))
      (sig (red (color)) (green (color)) (blue (color))
           (empty (set a))
           (add (-> a (set a) (set a)))
           (mem (-> a (set a) prop)))
      (hyps (H1 (pi b (forall (x b) (forall (y b) (forall (s (set b))
                  (imp (mem x s) (mem x (add y s))))))))
            (H2 (pi b (forall (x b) (forall (s (set b))
                  (mem x (add x s)))))))
      (goals (G (mem green (add red (add green empty))))))
"""

SPLIT = """
(task (types) (sig (x1 prop) (x2 prop) (x prop))
      (hyps (H (or x1 x2))) (goals (G x)))
"""


# ---------------------------------------------------------------------------
# parse

@pytest.mark.parametrize("text", [EX1, EX2, SPLIT,
                                  "(task (types) (sig) (hyps) (goals))"])
def test_parse_print_parse_is_alpha_stable(text):
    T = parse_task(text)
    printed = sexpr.to_text(T)
    T2 = parse_task(printed)
    assert task_alpha_equal(T, T2)
    assert sexpr.to_text(T2) == printed


def test_parse_task_refuses_every_truncation():
    text = EX2.strip()
    for k in range(len(text)):
        with pytest.raises(TaskError):
            parse_task(text[:k])


def test_parse_true_goal():
    T = parse_task("(task (types) (sig) (hyps) (goals (G true)))")
    assert T.goals[0].formula == Top()


def test_parse_command_prints_canonical_form(tmp_path, capsys):
    f = tmp_path / "t.tsk"
    f.write_text(SPLIT, encoding="utf-8")
    assert main(["parse", str(f)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == sexpr.dumps(ref_task_form(parse_task(SPLIT)))


# the text parse and transform printed before they printed through
# sexpr.to_text, pinned byte for byte
_EX2_PRINTED = (
    "(task (types (color 0) (set 1)) (sig (red (color)) (green (color)) "
    "(blue (color)) (empty (set a)) (add (-> a (set a) (set a))) "
    "(mem (-> a (set a) prop))) (hyps (H1 (pi b (forall (x b) (forall (y b) "
    "(forall (s (set b)) (imp (mem x s) (mem x (add y s)))))))) "
    "(H2 (pi b (forall (x b) (forall (s (set b)) (mem x (add x s))))))) "
    "(goals (G (mem green (add red (add green empty))))))")
_EX1_INSTANTIATED = (
    "(task (types) (sig (y (int)) (x (int)) (p (-> (int) prop))) "
    "(hyps (H1 (= y (+ (* 2 x) 1))) (H (forall (i (int)) (p (+ (* 4 i) 1)))) "
    "(H_inst (p (+ (* 4 (+ (* x x) x)) 1)))) (goals (G (p (* y y)))))")


def test_parse_command_output_is_pinned(tmp_path, capsys):
    f = tmp_path / "ex2.tsk"
    f.write_text(EX2, encoding="utf-8")
    assert main(["parse", str(f)]) == 0
    assert capsys.readouterr().out == _EX2_PRINTED + "\n"
    assert sexpr.to_text(parse_task(EX2)) == \
        sexpr.dumps(ref_task_form(parse_task(EX2)))


def test_transform_command_output_is_pinned(tmp_path, capsys):
    f = tmp_path / "ex1.tsk"
    f.write_text(EX1, encoding="utf-8")
    assert main(["transform", str(f), "--name", "instantiate",
                 "--premise", "H", "--with", "(+ (* x x) x)"]) == 0
    capsys.readouterr()
    assert (tmp_path / "ex1.1.tsk").read_text(encoding="utf-8") == \
        _EX1_INSTANTIATED + "\n"


def test_parse_command_prints_a_deeply_nested_goal(tmp_path, capsys):
    depth = 30_000
    text = ("(task (types) (sig (p prop)) (hyps) (goals (G "
            + "(not " * depth + "p" + ")" * depth + ")))")
    f = tmp_path / "deep.tsk"
    f.write_text(text, encoding="utf-8")
    try:
        code = main(["parse", str(f)])
    except RecursionError:
        # caught: pytest renders a traceback this deep very slowly
        code = "RecursionError"
    assert code == 0
    printed = capsys.readouterr().out
    assert printed == text + "\n", "not the canonical form"


def test_parse_and_check_a_deeply_declared_type(tmp_path):
    # check_type walks a declared type on an explicit stack: at this depth
    # its recursion ended both commands in an uncaught RecursionError
    # (exit 1). Run in a subprocess, as a crash there fails this test alone
    depth = 60_000
    text = ("(task (types) (sig (f " + "(-> (int) " * depth + "prop"
            + ")" * depth + ")) (hyps) (goals (G true)))")
    task_file, cert_file = tmp_path / "deep.tsk", tmp_path / "deep.cert"
    task_file.write_text(text, encoding="utf-8")
    cert_file.write_text(cert_dumps(KHole(parse_task(text))), encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    for args in (["parse", str(task_file)],
                 ["check", str(task_file), "--cert", str(cert_file)]):
        proc = subprocess.run([sys.executable, "-m", "certforge.cli", *args],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (args[0], proc.stderr[-2000:])
    assert proc.stdout.startswith("ok")


def test_check_and_export_refuse_a_deep_surface_certificate_in_one_line(
        tmp_path):
    # the refusal quoted the node's repr, the whole subtree: 126 KB at
    # 3 000 deep, and at this depth a RecursionError traceback from the
    # dataclass __repr__
    depth = 30_000
    task_file, cert_file = tmp_path / "t.tsk", tmp_path / "deep.cert"
    task_file.write_text("(task (types) (sig (p prop)) (hyps (H p)) "
                         "(goals (G p)))", encoding="utf-8")
    cert_file.write_text("(SClear H " * depth + "SHole" + ")" * depth,
                         encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    for command in ("check", "export"):
        proc = subprocess.run(
            [sys.executable, "-m", "certforge.cli", command, str(task_file),
             "--cert", str(cert_file)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (
            1, "error: certificate rejected: SClear at []: "
               "unknown kernel certificate SClear\n"), command


_QUOTED = "(" * 60_000 + "(a)" + ")" * 60_000
_DEEP_HEAD = "(task (types) (sig (x " + _QUOTED + ")) (hyps) (goals))"
_DEEP_HEAD_ERROR = "malformed task text: bad type head " + _QUOTED[1:-1]


@pytest.mark.parametrize("text, message", [
    (_DEEP_HEAD, _DEEP_HEAD_ERROR),
    ("(task (types) (sig) (hyps) (goals (G true " + _QUOTED + ")))",
     "malformed task text: bad premise (G true " + _QUOTED + ")"),
], ids=["type head", "premise"])
def test_parse_task_quotes_a_deep_form_without_recursion(text, message):
    # the refused form is quoted in task-file syntax, printed on an
    # explicit stack: its repr recursed per level
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        parse_task(text)
    except (TaskError, RecursionError) as e:
        got = e
    finally:
        sys.setrecursionlimit(old)
    assert type(got) is TaskError
    assert str(got) == message


def test_parse_command_refuses_a_deep_bad_type_head_in_one_line(tmp_path):
    f = tmp_path / "deep.tsk"
    f.write_text(_DEEP_HEAD, encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "certforge.cli", "parse",
                           str(f)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (1, f"error: {_DEEP_HEAD_ERROR}\n")


def test_a_name_with_non_ascii_digits_after_its_hash_reads_back():
    text = "(KTrivial #t x#\u00b2)"
    assert cert_dumps(cert_loads(text)) == text
    text = "(task (types) (sig) (hyps) (goals (G#\u00b2 true)))"
    assert sexpr.to_text(parse_task(text)) == text


def test_parse_rejects_reserved_int(tmp_path, capsys):
    f = tmp_path / "t.tsk"
    f.write_text("(task (types (int 0)) (sig) (hyps) (goals))",
                 encoding="utf-8")
    assert main(["parse", str(f)]) == 1
    assert "reserved" in capsys.readouterr().err


def test_parse_error_carries_position(tmp_path, capsys):
    f = tmp_path / "t.tsk"
    f.write_text("(task (types)\n  (sig", encoding="utf-8")
    assert main(["parse", str(f)]) == 1
    assert "2:" in capsys.readouterr().err


def test_parse_rejects_non_propositional_premise(tmp_path, capsys):
    f = tmp_path / "t.tsk"
    f.write_text("(task (types) (sig) (hyps) (goals (G 3)))",
                 encoding="utf-8")
    assert main(["parse", str(f)]) == 1
    assert "premise G has type (int), not prop" in capsys.readouterr().err


def test_parse_task_words_the_readers_errors_as_task_errors():
    # the text is read in one pass; its faults keep the reader's wording
    for text, message in [
        ("(task (types) (sig) (hyps (H (and true))) (goals))",
         "and takes two arguments"),
        ("(task (types) (sig) (hyps) (goals (G true))", "1:1: unclosed ("),
        ("(task (types) (sig) (hyps)) (goals))", "1:36: unmatched )"),
        ("(task (types) (sig) (hyps) (goals)) x", "expected one datum, found 2"),
        ("(task (types (c x)) (sig) (hyps) (goals))",
         "bad type declaration (c x)"),
    ]:
        with pytest.raises(TaskError) as e:
            parse_task(text)
        assert str(e.value) == f"malformed task text: {message}"


def test_parse_task_judges_premises_against_prop():
    T = parse_task("(task (types) (sig (choose a)) (hyps) (goals (G choose)))")
    assert T.goals[0].formula == var("choose")
    # a premise no instance makes prop names the type it has when that
    # type is determined, and the open instance when it is not
    with pytest.raises(TypingError,
                       match=r"premise G has type \(-> \(int\) \(int\)\), not prop"):
        parse_task("(task (types) (sig (f (-> a a))) (hyps) "
                   "(goals (G (f (lam (x (int)) x)))))")
    with pytest.raises(TypingError,
                       match=r"^premise G: instance of f at \[0\] is ambiguous$"):
        parse_task("(task (types) (sig (f (-> a a))) (hyps) (goals (G (f f))))")


def test_parse_checks_the_signature_without_premises(tmp_path, capsys):
    f = tmp_path / "t.tsk"
    f.write_text("(task (types) (sig (e (set a))) (hyps) (goals))",
                 encoding="utf-8")
    assert main(["parse", str(f)]) == 1
    assert "undeclared type symbol set" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# transform

def test_transform_instantiate_example(tmp_path, capsys):
    f = tmp_path / "ex1.tsk"
    f.write_text(EX1, encoding="utf-8")
    code = main(["transform", str(f), "--name", "instantiate",
                 "--premise", "H", "--with", "(+ (* x x) x)",
                 "--emit-cert", str(tmp_path / "ex1.cert")])
    assert code == 0
    assert "ok: 1 resulting task(s)" in capsys.readouterr().out
    t = parse_task((tmp_path / "ex1.1.tsk").read_text(encoding="utf-8"))
    added = t.hyps[-1].formula
    assert added == sexpr.term_from_sexpr(
        sexpr.loads("(p (+ (* 4 (+ (* x x) x)) 1))"))
    assert main(["check", str(f), "--cert", str(tmp_path / "ex1.cert")]) == 0


def test_transform_split_on_wrong_shape_writes_nothing(tmp_path, capsys):
    f = tmp_path / "t.tsk"
    f.write_text(SPLIT, encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    code = main(["transform", str(f), "--name", "split", "--premise", "G",
                 "--out-dir", str(out)])
    assert code == 1
    assert "not a conjunction" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_transform_blast_closes_chain_task(tmp_path, capsys):
    f = tmp_path / "chain2.tsk"
    f.write_text(sexpr.to_text(gen_chain_task(2)) + "\n",
                 encoding="utf-8")
    assert main(["transform", str(f), "--name", "blast"]) == 0
    assert "ok: 0 resulting task(s)" in capsys.readouterr().out
    assert not (tmp_path / "chain2.1.tsk").exists()


def test_transform_emits_checked_artifacts(tmp_path, capsys):
    f = tmp_path / "t.tsk"
    f.write_text(SPLIT, encoding="utf-8")
    code = main(["transform", str(f), "--name", "split", "--premise", "H",
                 "--emit-lp", str(tmp_path / "t.lp"),
                 "--emit-cert", str(tmp_path / "t.cert")])
    assert code == 0
    capsys.readouterr()
    decls = lpp.parse_lp((tmp_path / "t.lp").read_text(encoding="utf-8"))
    assert isinstance(decls[0], lpp.LpRequire)
    # the two written tasks parse back through the same pipeline
    for i in (1, 2):
        assert main(["parse", str(tmp_path / f"t.{i}.tsk")]) == 0
        capsys.readouterr()


def test_transform_writes_nothing_its_certificate_does_not_derive(
        tmp_path, capsys, monkeypatch):
    # a transformation whose tasks differ from what its certificate derives
    op, usage = cli._TRANSFORMS["split"]

    def bogus(T, ns):
        tasks, s = op(T, ns)
        extra = Premise(ident("Bogus"), var("q"))
        return [t.append(False, extra) for t in tasks], s

    monkeypatch.setitem(cli._TRANSFORMS, "split", (bogus, usage))
    f = tmp_path / "t.tsk"
    f.write_text("(task (types) (sig (p prop) (q prop)) (hyps)"
                 " (goals (G (and p q))))", encoding="utf-8")
    assert main(["transform", str(f), "--name", "split",
                 "--premise", "G"]) == 1
    captured = capsys.readouterr()
    assert "does not derive" in captured.err
    assert "ok:" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.tsk"]


def test_transform_missing_argument(tmp_path, capsys):
    f = tmp_path / "t.tsk"
    f.write_text(SPLIT, encoding="utf-8")
    assert main(["transform", str(f), "--name", "instantiate",
                 "--premise", "H"]) == 1
    assert "--with" in capsys.readouterr().err


def test_transform_unknown_name(tmp_path, capsys):
    f = tmp_path / "t.tsk"
    f.write_text(SPLIT, encoding="utf-8")
    assert main(["transform", str(f), "--name", "frobnicate"]) == 1
    assert "unknown transformation" in capsys.readouterr().err


def test_transform_accepts_underscored_names(tmp_path, capsys):
    f = tmp_path / "t.tsk"
    f.write_text("(task (types) (sig (x prop)) (hyps (H (not x)))"
                 " (goals (G (not x))))", encoding="utf-8")
    assert main(["transform", str(f), "--name", "swap_neg",
                 "--premise", "H"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# check

def test_check_rejects_certificate_for_another_task(tmp_path, capsys):
    a = tmp_path / "a.tsk"
    a.write_text(SPLIT, encoding="utf-8")
    b = tmp_path / "b.tsk"
    b.write_text("(task (types) (sig (x prop)) (hyps) (goals (G x)))",
                 encoding="utf-8")
    assert main(["transform", str(a), "--name", "split", "--premise", "H",
                 "--emit-cert", str(tmp_path / "a.cert")]) == 0
    capsys.readouterr()
    assert main(["check", str(b), "--cert", str(tmp_path / "a.cert")]) == 1
    assert "rejected" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export

def test_export_refuses_a_certificate_for_another_task(tmp_path, capsys):
    a = tmp_path / "a.tsk"
    a.write_text(SPLIT, encoding="utf-8")
    b = tmp_path / "b.tsk"
    b.write_text("(task (types) (sig (x prop)) (hyps) (goals (G x)))",
                 encoding="utf-8")
    assert main(["transform", str(a), "--name", "split", "--premise", "H",
                 "--emit-cert", str(tmp_path / "a.cert")]) == 0
    capsys.readouterr()
    assert main(["export", str(b), "--cert", str(tmp_path / "a.cert")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: certificate rejected: KSplit at []: "
                            "no premise named H\n")


def test_export_identity_module(tmp_path, capsys):
    f = tmp_path / "t.tsk"
    f.write_text(SPLIT, encoding="utf-8")
    assert main(["export", str(f)]) == 0
    text = capsys.readouterr().out
    decls = lpp.parse_lp(text)
    names = [d.name for d in decls if isinstance(d, lpp.LpSymbol)]
    assert names == ["task1", "initial", "proof"]


def test_export_preamble_matches_the_library(tmp_path, capsys):
    from certforge.lp_export import emit_preamble
    out = tmp_path / "preamble.lp"
    assert main(["export", "--preamble", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == emit_preamble()


def test_export_without_inputs_fails(capsys):
    assert main(["export"]) == 1
    assert "nothing to export" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench

def test_bench_ladder_shapes():
    assert bench_ladder(5) == [5]
    assert bench_ladder(7) == [5, 7]
    assert bench_ladder(60) == [5, 10, 15, 20, 25, 50, 60]
    assert bench_ladder(100) == [5, 10, 15, 20, 25, 50, 100]
    assert bench_ladder(400) == [5, 10, 15, 20, 25, 50, 100, 200, 400]
    with pytest.raises(ValueError):
        bench_ladder(4)


def test_bench_row_values():
    row = bench_row(5, runs=1)
    assert row.n == 5 and row.cert_bytes > 0
    assert row.transform_s >= 0 and row.check_s >= 0


def test_bench_row_validation():
    with pytest.raises(ValueError):
        BenchRow(0, 0.1, 10, 0.1)
    with pytest.raises(ValueError):
        BenchRow(5, -0.1, 10, 0.1)


def test_bench_prints_each_row_as_it_is_measured(monkeypatch, capsys):
    printed_before = []

    def row(n, runs):
        printed_before.append(capsys.readouterr().out)
        return BenchRow(n, 0.5, 100 * n, 0.25)

    monkeypatch.setattr(cli, "bench_row", row)
    assert main(["bench", "--max-n", "10"]) == 0
    assert printed_before == ["n,transform_s,cert_bytes,check_s\n",
                              "5,0.500000,500,0.250000\n"]
    assert capsys.readouterr().out == "10,0.500000,1000,0.250000\n"


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_bench_refuses_fewer_than_one_run_before_any_output(
        runs, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    for extra in ([], ["--out", str(out)]):
        assert main(["bench", "--max-n", "5", "--runs", runs, *extra]) == 1
        assert capsys.readouterr() == ("", "error: bench needs --runs >= 1\n")
    assert not out.exists()


def test_bench_csv_schema(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["bench", "--max-n", "5", "--runs", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,transform_s,cert_bytes,check_s"
    assert len(lines) == 2
    n, ts, cb, cs = lines[1].split(",")
    assert int(n) == 5 and float(ts) >= 0 and int(cb) > 0 and float(cs) >= 0


# ---------------------------------------------------------------------------
# the installed entry point

@pytest.mark.skipif(shutil.which("certforge") is None,
                    reason="console script not on PATH")
def test_console_script(tmp_path):
    f = tmp_path / "t.tsk"
    f.write_text(SPLIT, encoding="utf-8")
    proc = subprocess.run(["certforge", "parse", str(f)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("(task")
