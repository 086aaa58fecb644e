"""certforge pipeline benchmark.

    python3 perfbench/run.py --workload {chain,prop_mix,fol} --seed N \\
        --seconds S --trace {0,1}

Runs from the root of a source checkout: certforge is imported from
`src/`, and nothing is installed. One process, one client, closed loop:
each application starts when the previous one has finished. The run
repeats whole rounds of the workload's seeded inputs for about S seconds
(at least MIN_SAMPLES applications) and prints, as its last line, one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).

Every timing is scaled by the machine's pace, measured between
applications by a probe that calls no certforge code (see pace.py), so
that drift on a shared machine does not pass for a change in certforge.

A traced run alternates untraced and traced rounds; per-layer figures come
from the traced ones, and the tracing overhead compares the two. Spans are
written to .perfbench_out/ when the run ends. No layer queues work, so no
waiting time is reported: it is zero by construction.

Counts that must repeat exactly (certificate and module bytes, kernel
nodes per rule) are compared across the rounds of a run and with earlier
runs of the same seed on the same sources (.perfbench_state/); a mismatch
makes the result incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import NEAREST, Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 4        # fresh processes timing set-up, besides this one
MIN_SAMPLES = 100       # p90 then has ten samples beyond it
HARD_STOP_S = 120.0     # stop starting rounds here whatever the sample count

END_TO_END = {
    "setup_s": "s", "apply_p50_s": "s", "apply_p90_s": "s",
    "verify_p50_s": "s", "verify_p90_s": "s", "export_p50_s": "s",
    "apps_per_s": "1/s", "cert_bytes": "bytes", "lp_bytes": "bytes",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
# Self time per application, from the span of that name.
LAYER_TIMES = {
    "sexpr.parse_s": "sexpr.parse",
    "task.well_typed_s": "task.well_typed",
    "task.alpha_equal_s": "task.alpha_equal",
    "transforms.apply_s": "transforms.apply",
    "cert.elaborate_s": "cert.elaborate",
    "cert.dumps_s": "cert.dumps",
    "cert.loads_s": "cert.loads",
    "checker.ccheck_s": "checker.ccheck",
    "checker.verify_ccheck_s": "checker.verify_ccheck",
    "lp_export.emit_s": "lp_export.emit",
}
# Counts per round, deterministic for a seed.
LAYER_COUNTS = ("task.premises", "transforms.rejected", "cert.kernel_nodes",
                "checker.forged_rejected")
# Compared across rounds and runs of one seed.
DETERMINISTIC = ("cert_bytes", "lp_bytes", "cert.kernel_nodes",
                 "task.premises", "transforms.rejected",
                 "checker.forged_rejected")


def _import_pipeline():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stages
    import workloads
    return stages, workloads


def set_up(name: str, seed: int):
    """Import, generate the seeded inputs, warm up; time all three.

    Returns the paced set-up time, the round's scripts, the warm-up's
    failures and the pace.
    """
    t0 = time.perf_counter()
    stages, workloads = _import_pipeline()
    pace = Pace()
    w = workloads.WORKLOADS[name]
    scripts = w.rounds(random.Random(f"{seed}:inputs"))
    warm = stages.run_round(w.warmup(random.Random(f"{seed}:warmup")),
                            f"{seed}:warmup", stages.Tracer(False), pace)
    took = time.perf_counter() - t0
    for _ in range(NEAREST):
        pace.probe()
    return took * pace.scale(t0), scripts, warm.failed, pace


def probe_setup(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles cuts it."""
    return statistics.quantiles(values, n=100)[q - 1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for d in (SRC / "certforge", HERE):
        for p in sorted(d.glob("*.py")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def check_repeatable(name: str, seed: int, rounds) -> list[str]:
    """Deterministic counts must agree across rounds and earlier runs."""
    def fingerprint(t):
        return {k: v for k, v in sorted(t.counts.items())
                if k in DETERMINISTIC or k.startswith("checker.nodes.")}

    first = fingerprint(rounds[0])
    problems = [f"round {i} counted {fp} against {first}"
                for i, fp in enumerate(map(fingerprint, rounds[1:]), 1)
                if fp != first]
    state = ROOT / ".perfbench_state" / _source_digest() \
        / f"{name}-{seed}.json"
    if state.is_file():
        earlier = json.loads(state.read_text(encoding="utf-8"))
        if earlier != first:
            problems.append(f"an earlier run of seed {seed} counted "
                            f"{earlier} against {first}")
    elif not problems:
        state.parent.mkdir(parents=True, exist_ok=True)
        tmp = state.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(first), encoding="utf-8")
        os.replace(tmp, state)
    return problems


def end_to_end(setups, rounds, pace) -> dict[str, float]:
    apply = pace.scaled([x for t in rounds for x in t.apply_s])
    verify = pace.scaled([x for t in rounds for x in t.verify_s])
    export = pace.scaled([x for t in rounds for x in t.export_s])
    busy = pace.scaled([x for t in rounds for x in t.busy_s])
    attempted = sum(t.attempted for t in rounds)
    failed = sum(t.failed for t in rounds)
    return {
        "setup_s": statistics.median(setups),
        "apply_p50_s": statistics.median(apply),
        "apply_p90_s": quantile(apply, 90),
        "verify_p50_s": statistics.median(verify),
        "verify_p90_s": quantile(verify, 90),
        "export_p50_s": statistics.median(export),
        "apps_per_s": sum(t.completed for t in rounds) / sum(busy),
        "cert_bytes": rounds[0].counts["cert_bytes"],
        "lp_bytes": rounds[0].counts["lp_bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ok_ratio": 1 - failed / attempted,
    }


def per_layer(tracer, plain, traced, pace) -> dict[str, float]:
    stages, _ = _import_pipeline()
    spans = tracer.self_times(pace)
    apps = spans["apply"][1]
    first = traced[0].counts
    out = {m: spans.get(s, (0.0, 0))[0] / apps for m, s in LAYER_TIMES.items()}
    out["core.typecheck_us_per_node"] = 1e6 * spans["task.well_typed"][0] \
        / sum(t.counts["task.formula_nodes"] for t in traced)
    nodes = sum(t.counts["cert.kernel_nodes"] for t in traced)
    for metric, span in (("checker.ccheck_us_per_node", "checker.ccheck"),
                         ("lp_export.emit_us_per_node", "lp_export.emit")):
        out[metric] = 1e6 * spans[span][0] / nodes
    forged, n_forged = spans["checker.forged"]
    out["checker.forged_reject_s"] = forged / n_forged
    for m in LAYER_COUNTS:
        out[m] = first[m]
    # every kernel rule, in definition order, counted or not
    for rule in stages.KERNEL:
        out[f"checker.nodes.{rule}"] = first[f"checker.nodes.{rule}"]

    def work(ts):
        return sum(pace.scaled([x for t in ts for x in t.busy_s + t.forged_s]))

    out["trace.overhead_ratio"] = work(traced) / work(plain) - 1
    return out


def layer_unit(metric: str) -> str:
    if metric.endswith("_us_per_node"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric == "trace.overhead_ratio":
        return "ratio"
    return "count"


def write_spans(tracer, name: str, seed: int) -> Path:
    out = ROOT / ".perfbench_out" / f"trace-{name}-{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("w", encoding="utf-8") as f:
        for app, sid, parent, span, t0, t1 in tracer.spans:
            f.write(json.dumps({"app": app, "span": sid, "parent": parent,
                                "name": span, "start": t0, "end": t1}))
            f.write("\n")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("chain", "prop_mix", "fol"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    ns = p.parse_args(argv)
    if not (SRC / "certforge" / "__init__.py").is_file():
        print(f"error: no certforge sources under {SRC}; run from the root "
              "of a certforge checkout", file=sys.stderr)
        return 2
    if ns.probe_setup:
        print(set_up(ns.workload, ns.seed)[0])
        return 0

    # set-up time is an end-to-end metric; a traced run does not report it
    setups = [probe_setup(ns.workload, ns.seed)
              for _ in range(0 if ns.trace else SETUP_PROBES)]
    own, scripts, failed_warmup, pace = set_up(ns.workload, ns.seed)
    setups.append(own)
    stages, _ = _import_pipeline()

    tracer = stages.Tracer(True)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        is_traced = bool(ns.trace) and len(plain) > len(traced)
        t0 = time.perf_counter()
        tally = stages.run_round(scripts, f"{ns.seed}:forge",
                                 tracer if is_traced else stages.Tracer(False),
                                 pace)
        (traced if is_traced else plain).append(tally)
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if ns.trace:
            # per-layer figures are means; they need no percentile samples
            done = len(plain) == len(traced) \
                and elapsed + 2 * took > ns.seconds
        else:
            done = sum(len(t.verify_s) for t in plain) >= MIN_SAMPLES \
                and elapsed + took > ns.seconds
        if done or elapsed >= HARD_STOP_S:
            break

    rounds = plain + traced
    problems = check_repeatable(ns.workload, ns.seed, rounds)
    for line in problems:
        print(f"not repeatable: {line}", file=sys.stderr)
    attempted = sum(t.attempted for t in rounds)
    failed = sum(t.failed for t in rounds) + failed_warmup
    if ns.trace:
        values = per_layer(tracer, plain, traced, pace)
        metrics = {m: {"value": v, "unit": layer_unit(m)}
                   for m, v in values.items()}
        print(f"spans: {write_spans(tracer, ns.workload, ns.seed)}")
    else:
        values = end_to_end(setups, plain, pace)
        metrics = {m: {"value": v, "unit": END_TO_END[m]}
                   for m, v in values.items()}
    measured = traced or plain
    print(f"workload {ns.workload}, seed {ns.seed}: {len(rounds)} rounds of "
          f"{len(scripts)} scripts in {time.perf_counter() - start:.1f} s; "
          f"{sum(len(t.apply_s) for t in measured)} apply, "
          f"{sum(len(t.verify_s) for t in measured)} verify samples")
    for m, v in metrics.items():
        print(f"  {m:32} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
