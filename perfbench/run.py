#!/usr/bin/env python3
"""Benchmark of the hierstretch package.

    python3 perfbench/run.py --workload guarantees --seed 1 --seconds 30 --trace 0

Workloads are ``guarantees``, ``long_streams`` and ``oracle`` (see
``perfbench/NOTES.md``).  A run, in one process and one thread:

1. set-up, seven times: import the package in a fresh interpreter, build the
   seeded deck of operations and run its first few ops once; ``setup_s`` is
   the median of the seven;
2. verification, untimed: replay the verification ops of the committed
   reference seed under a probe and compare the behaviour digest with
   ``perfbench/digests.json``, then replay those of ``--seed`` for its
   digest and exact counters;
3. with ``--trace 0``, cycle through the deck for ``--seconds`` with
   nothing wrapped, each op followed by a run of the calibration kernel;
   with ``--trace 1``, run each op untraced and then again traced, for
   ``--seconds`` in all, for the per-layer metrics and
   ``trace.overhead_share``, and write the spans under ``.perfbench_out/``.

Timings are reported as they would read on a reference host, on which the
calibration kernel (fixed Fraction and dict work that does not use the
package) takes ``KERNEL_REF_S``: each time is multiplied by ``KERNEL_REF_S``
over the kernel's median time around it.  The op metrics use each op's best
scaled time over the passes through the deck.  The raw figures are in the
report line.

Every op checks its outputs; a wrong output fails the run (exit 1).  An op
scheduler A refuses with its typed ``SizeLimit`` is checked up to the refusal
and counted as refused in the report, not as failed: no op fails, so
``failed`` is 0 unless the run fails as a whole.  The second
to last line of output is a report (environment, digests, counters,
quartiles); the last line is the result object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 7
REFERENCE_SEED = 0
# tail percentiles of the per-op best times leaving at least ten ops of the
# deck beyond them (decks of 1000, 130 and 210 ops)
TAIL_PERCENTILE = {"guarantees": 90.0, "long_streams": 96.0, "oracle": 97.0}

# The calibration kernel: fixed work of the package's kind (Fraction sums,
# dict copies, a sort) that does not use the package.  Timings are scaled to
# a host on which one kernel run takes KERNEL_REF_S, using the median of the
# KERNEL_WINDOW kernel runs on either side of each timed op.
KERNEL_FRACTIONS = [Fraction(i, 1000 + 7 * i) for i in range(1, 61)]
KERNEL_REF_S = 0.3e-3
KERNEL_WINDOW = 10

RULES = {"A": (2, 3, 4), "B": (2, 3, 4, 5), "C": (2, 3, 4, 5),
         "D": (2, 3, 4, 5), "baseline": (2, 3)}
BRUTE_K = range(1, 11)
LAYERS = ("core", "algorithms", "harness", "generators", "oracle", "adversary")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> list[tuple[str, str]]:
    names = [
        ("core.apply_decision.calls", "count"),
        ("core.apply_decision.self_s", "s"),
        ("core.validate_instance.self_s", "s"),
    ]
    for sched, steps in RULES.items():
        names += [(f"algorithms.{sched}.calls", "count"),
                  (f"algorithms.{sched}.self_s", "s")]
        names += [(f"algorithms.{sched}.step{step}", "count") for step in steps]
    names += [
        ("algorithms.select_max_subset.calls", "count"),
        ("algorithms.select_max_subset.self_s", "s"),
        ("algorithms.select_max_subset.candidates_max", "count"),
        ("algorithms.select_prefix.calls", "count"),
        ("algorithms.select_prefix.self_s", "s"),
        ("harness.run_stream.calls", "count"),
        ("harness.run_stream.self_s", "s"),
        ("harness.guarantee_suite.self_s", "s"),
        ("generators.generate.calls", "count"),
        ("generators.generate.self_s", "s"),
        ("generators.random_config.self_s", "s"),
        ("oracle.brute_opt.calls", "count"),
        ("oracle.brute_opt.self_s", "s"),
    ]
    names += [(f"oracle.brute_opt.k{k}.ms_p50", "ms") for k in BRUTE_K]
    names += [
        ("oracle.opt_prefix_loads.calls", "count"),
        ("oracle.opt_prefix_loads.self_s", "s"),
        ("oracle.prefix_opt_monotone_check.calls", "count"),
        ("oracle.prefix_opt_monotone_check.self_s", "s"),
        ("adversary.play_duel.calls", "count"),
        ("adversary.play_duel.self_s", "s"),
        ("adversary.next.calls", "count"),
        ("adversary.next.self_s", "s"),
    ]
    names += [(f"{layer}.refused", "count") for layer in LAYERS]
    names.append(("trace.overhead_share", "share"))
    return names


def layer_value(probe, name: str):
    if name in probe.maxima:
        return probe.maxima[name]
    if name.endswith(".refused"):
        return probe.refused[name[: -len(".refused")]]
    span, _, kind = name.rpartition(".")
    if kind == "calls":
        return probe.calls[span]
    if kind == "self_s":
        return probe.self_s[span]
    if kind == "ms_p50":
        samples = probe.brute_ms[int(span.rpartition(".k")[2])]
        return statistics.median(samples) if samples else 0
    if kind.startswith("step"):
        return probe.counts[name]
    return 0  # a maximum never observed


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def environment(args) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_import_seconds() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import hierstretch"],
        cwd=ROOT, env=env, check=True, timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def kernel() -> list:
    total = Fraction(0)
    loads: dict = {}
    for i, size in enumerate(KERNEL_FRACTIONS):
        total += size
        loads = dict(loads)
        loads[i] = total
    return sorted(loads.values(), reverse=True)


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def set_up(workloads, name: str, seed: int):
    """Import, deck generation and warm-up, repeated.

    Returns the deck, the raw seconds of each set-up and each scaled to the
    reference host by the median of the kernel runs around all of them.
    """
    raw = []
    pace = []
    deck = None
    for _ in range(SETUP_REPEATS):
        pace += [kernel_seconds() for _ in range(KERNEL_WINDOW)]
        start_import = fresh_import_seconds()
        start = time.perf_counter()
        deck = workloads.WORKLOADS[name](seed)
        for pos in deck.warmup:
            deck.ops[pos]()
        raw.append(start_import + time.perf_counter() - start)
    pace += [kernel_seconds() for _ in range(KERNEL_WINDOW)]
    scale = KERNEL_REF_S / statistics.median(pace)
    return deck, raw, [seconds * scale for seconds in raw]


def verify(probes, deck, trace: bool):
    """Replay the verification ops under a probe; count refusals."""
    probe = probes.Probe(spans=trace, digest=True)
    refused = 0
    with probe.install(deck.adversaries):
        for pos in deck.verify:
            probe.begin_op(pos)
            refused += not deck.ops[pos]()
    probe.counts["size_limit_refusals"] = refused
    probe.counts["verified_ops"] = len(deck.verify)
    return probe


def timed(ops, seconds: float):
    """Run ops in deck order, cycling, until ``seconds`` have passed.

    A kernel run follows every op.  Returns each op's best time scaled to
    the reference host, its best raw time, the number of op runs, the number
    of refused runs and the median kernel time.  The host's speed swings by
    tens of percent within seconds and drifts by more over minutes: the
    scaling takes out the drift and the best time over the passes the
    swings.
    """
    op_s: list[float] = []
    kernel_s: list[float] = []
    refused = 0
    clock = time.perf_counter
    now = clock()
    deadline = now + seconds
    count = len(ops)
    while now < deadline:
        start = clock()
        refused += not ops[len(op_s) % count]()
        between = clock()
        kernel()
        now = clock()
        op_s.append(between - start)
        kernel_s.append(now - between)
    best = [math.inf] * count
    best_raw = [math.inf] * count
    for i, seconds_i in enumerate(op_s):
        pos = i % count
        pace = statistics.median(
            kernel_s[max(0, i - KERNEL_WINDOW): i + KERNEL_WINDOW + 1]
        )
        best[pos] = min(best[pos], seconds_i * KERNEL_REF_S / pace)
        best_raw[pos] = min(best_raw[pos], seconds_i)
    ran = [pos for pos in range(count) if best[pos] < math.inf]
    return ([best[pos] for pos in ran], [best_raw[pos] for pos in ran],
            len(op_s), refused, statistics.median(kernel_s))


def paired(probes, deck, seconds: float):
    """Run each op untraced, then at once again traced, until ``seconds``.

    Timing both runs of every op back to back keeps the host's drift out of
    ``trace.overhead_share``.
    """
    probe = probes.Probe(spans=True)
    durations: list[float] = []
    refused = 0
    traced_s = 0.0
    clock = time.perf_counter
    now = clock()
    deadline = now + seconds
    i = 0
    count = len(deck.ops)
    while now < deadline:
        op = deck.ops[i % count]
        start = clock()
        ok = op()
        durations.append(clock() - start)
        refused += not ok
        with probe.install(deck.adversaries):
            probe.begin_op(i)
            start = clock()
            op()
            now = clock()
        traced_s += now - start
        i += 1
    return durations, refused, probe, traced_s


def attribution(probe, total: float) -> dict:
    """Self time of each traced function as a share of traced op time."""
    shares = {name: value / total for name, value in probe.self_s.items()}
    shares["outside traced functions"] = 1 - sum(shares.values())
    return {name: round(share, 4) for name, share in sorted(shares.items())}


def emit(report: dict, correct: bool, attempted: int, failed: int,
         metrics: dict) -> None:
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hierstretch" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import probes
    import workloads

    report: dict = {"environment": environment(args),
                    "waits": "none: one thread, no queue, nothing waits"}
    try:
        deck, setup_raw, setup_samples = set_up(workloads, args.workload, args.seed)
        report["setup_s_samples"] = setup_samples
        report["setup_s_raw"] = setup_raw
        report["inputs_sha256"] = hashlib.sha256(
            json.dumps(probes.canonical(deck.inputs)).encode()
        ).hexdigest()
        reference = verify(
            probes, workloads.WORKLOADS[args.workload](REFERENCE_SEED), bool(args.trace)
        )
        expected = json.loads(DIGESTS.read_text())[args.workload]
        report["reference"] = {"seed": REFERENCE_SEED, "digest": reference.digest(),
                               "expected": expected}
        if reference.digest() != expected:
            raise workloads.WrongResult(
                f"behaviour digest {reference.digest()} of reference seed "
                f"{REFERENCE_SEED} differs from committed {expected}"
            )
        checked = verify(probes, deck, bool(args.trace))
        report["digest"] = checked.digest()
        report["counters"] = checked.exact_counters()

        if args.trace:
            durations, refused, probe, traced_s = paired(probes, deck, args.seconds)
            attempted = len(durations)
        else:
            best, best_raw, attempted, refused, kernel_s = timed(deck.ops, args.seconds)
    except workloads.WrongResult as exc:
        print(f"wrong result: {exc}", file=sys.stderr)
        emit(report, False, 1, 0, {})
        return 1

    report["ops"] = {
        "attempted": attempted,
        "size_limit_refusals": refused,
        "refused_share": refused / attempted,
    }

    if args.trace:
        untraced_s = sum(durations)
        metrics = {
            name: {"value": layer_value(probe, name), "unit": unit}
            for name, unit in per_layer_units()
        }
        metrics["trace.overhead_share"]["value"] = (traced_s - untraced_s) / untraced_s
        report["attribution"] = attribution(probe, traced_s)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        probe.write_spans(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        ordered = sorted(best)
        pct = TAIL_PERCENTILE[args.workload]
        raw = sorted(best_raw)
        report["ops"].update({
            "kernel_ms_median": kernel_s * 1e3,
            "raw": {"ops_per_s": len(raw) / sum(raw),
                    "op_ms_p50": statistics.median(raw) * 1e3,
                    "op_ms_tail": percentile(raw, pct) * 1e3},
            "distinct_ops": len(ordered),
            "passes": attempted / len(deck.ops),
            "best_ms_quartiles": [q * 1e3 for q in statistics.quantiles(ordered, n=4)]
            if len(ordered) > 1 else [ordered[0] * 1e3] * 3,
            "tail_percentile": pct,
            "ops_beyond_tail": len(ordered) - max(1, math.ceil(pct / 100 * len(ordered))),
        })
        values = {
            "ops_per_s": len(ordered) / sum(ordered),
            "op_ms_p50": statistics.median(ordered) * 1e3,
            "op_ms_tail": percentile(ordered, pct) * 1e3,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    emit(report, True, attempted, 0, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
