"""Outside-in instrumentation of the hierstretch package.

A :class:`Probe` wraps the package's public functions by rebinding them at
every module attribute through which they are reached, so the package runs
unmodified.  Wrappers return results unchanged and re-raise every error.

Each probe always counts calls and exact events (rule fires, migrations,
candidate counts, oracle calls per grade-2 count).  With ``spans`` it also
times every call and records a span (name, start, end, parent, op id); a
span's self time is its duration minus the part its child spans cover.
With ``digest`` it hashes canonical JSON of every decision, final load,
oracle optimum and duel transcript it observes.
"""
from __future__ import annotations

import functools
import hashlib
import json
import operator
from collections import Counter, defaultdict
from fractions import Fraction
from functools import partial
from time import perf_counter

from hierstretch import adversary, algorithms, core, generators, harness, oracle
from hierstretch.errors import HierStretchError

TRACED_SCHEDULERS = ("A", "B", "C", "D", "baseline")

# (span name, function attribute, modules whose attribute is rebound)
SITES = (
    ("core.apply_decision", "apply_decision", (harness, adversary)),
    ("core.validate_instance", "validate_instance", (core,)),
    ("algorithms.select_max_subset", "select_max_subset", (algorithms,)),
    ("algorithms.select_prefix", "select_prefix_max", (algorithms,)),
    ("algorithms.select_prefix", "select_prefix_min", (algorithms,)),
    ("harness.run_stream", "run_stream", (harness,)),
    ("harness.guarantee_suite", "guarantee_suite", (harness,)),
    ("generators.generate", "generate", (generators, harness)),
    ("generators.random_config", "random_config", (generators, harness)),
    ("oracle.brute_opt", "brute_opt", (oracle, harness, adversary)),
    ("oracle.opt_prefix_loads", "opt_prefix_loads", (oracle,)),
    (
        "oracle.prefix_opt_monotone_check",
        "prefix_opt_monotone_check",
        (oracle, harness),
    ),
    ("adversary.play_duel", "play_duel", (adversary, harness)),
)


def canonical(value):
    """JSON-ready form with exact rationals as 'num/den' strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def decision_record(decision) -> list:
    return [
        int(decision.target),
        [[idx, int(machine)] for idx, machine in decision.migrations],
        decision.step,
    ]


def grade2_count(jobs) -> int:
    return sum(1 for job in jobs if job.gos == 2)


class Probe:
    """Counters, optional spans and an optional behaviour digest."""

    def __init__(self, spans: bool = False, digest: bool = False) -> None:
        self.record_spans = spans
        self.hasher = hashlib.sha256() if digest else None
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.refused: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, object] = {}
        self.brute_ms: defaultdict = defaultdict(list)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._op = 0
        self._undo: list = []

    # --- installation -------------------------------------------------

    def install(self, adversaries=()) -> "Probe":
        """Rebind every traced function; :meth:`uninstall` restores them."""
        for name, attr, modules in SITES:
            wrapped = self._wrap(name, getattr(modules[0], attr))
            for module in modules:
                self._undo.append(partial(setattr, module, attr, getattr(module, attr)))
                setattr(module, attr, wrapped)
        table = algorithms.SCHEDULERS
        for sched in TRACED_SCHEDULERS:
            original = table[sched]
            self._undo.append(partial(operator.setitem, table, sched, original))
            table[sched] = self._wrap(f"algorithms.{sched}", original)
        for adv in adversaries:
            # an instance attribute shadows the class's method until deleted
            self._undo.append(partial(delattr, adv, "next"))
            adv.next = self._wrap("adversary.next", adv.next)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    # --- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        if name.startswith("algorithms.") and name[11:] in TRACED_SCHEDULERS:
            observe = self._see_scheduler(name)
        else:
            observe = getattr(self, "_see_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        calls = self.calls
        spans = self.record_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args)
            frame = self._open(name) if spans else None
            try:
                result = fn(*args, **kwargs)
            except HierStretchError as exc:
                self._raised(layer, exc)
                raise
            finally:
                duration = self._close(frame) if spans else None
            if observe is not None:
                observe(args, result, duration)
            return result

        return wrapper

    def _open(self, name: str) -> list:
        """Start a span: [id, name, start, time covered by child spans]."""
        frame = [len(self.spans), name, perf_counter(), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_s[name] += duration - child
        self.spans[span_id] = (
            span_id, name, start, end, parent[0] if parent else -1, self._op
        )
        return duration

    def _raised(self, layer: str, exc: HierStretchError) -> None:
        layers = exc.__dict__.setdefault("_probe_layers", set())
        if layer not in layers:
            layers.add(layer)
            self.refused[layer] += 1

    def _keep_max(self, key: str, value) -> None:
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    def _hash(self, tag: str, payload) -> None:
        if self.hasher is not None:
            line = json.dumps([tag, canonical(payload)], sort_keys=True)
            self.hasher.update(line.encode())
            self.hasher.update(b"\n")

    # --- observers: exact counters and digest inputs --------------------

    def _see_core_apply_decision(self, args, state, duration) -> None:
        decision, ledger = args[2], args[3]
        self.counts["migrations"] += len(decision.migrations)
        entry = ledger.entries[-1]
        if entry.budget > 0:
            ratio = entry.migrated_total / entry.budget
            self._keep_max("max_migrated_over_budget", ratio)

    def _see_scheduler(self, name: str):
        def observe(args, decision, duration) -> None:
            self.counts[f"{name}.step{decision.step}"] += 1
        return observe

    def _before_algorithms_select_max_subset(self, args) -> None:
        self._keep_max("algorithms.select_max_subset.candidates_max", len(args[0]))

    def _see_harness_run_stream(self, args, result, duration) -> None:
        self._hash("run_stream", {
            "decisions": [decision_record(dec) for dec in result.decisions],
            "loads": [result.final_state.load1, result.final_state.load2],
            "violations": result.violations,
        })

    def _see_oracle_brute_opt(self, args, opt, duration) -> None:
        k = grade2_count(args[0])
        self.counts[f"oracle.brute_opt.k{k}"] += 1
        if duration is not None:
            self.brute_ms[k].append(duration * 1e3)
        self._hash("brute_opt", opt)

    def _see_oracle_opt_prefix_loads(self, args, result, duration) -> None:
        self._hash("opt_prefix_loads", {"opt": result.opt, "loads": result.loads})

    def _see_oracle_prefix_opt_monotone_check(self, args, report, duration) -> None:
        self._hash(
            "prefix_opts", {"opts": report.prefix_opts, "failures": report.failures}
        )

    def _see_adversary_play_duel(self, args, transcript, duration) -> None:
        self.counts["adversary.arrivals"] += len(transcript.jobs)
        self._hash("duel", transcript.to_json_dict())

    # --- results ----------------------------------------------------------

    def digest(self) -> str:
        return self.hasher.hexdigest()

    def exact_counters(self) -> dict:
        """Counts that depend only on the code and the inputs."""
        out = {key: self.counts[key] for key in sorted(self.counts)}
        out.update({f"calls.{key}": self.calls[key] for key in sorted(self.calls)})
        out.update({f"refused.{key}": self.refused[key] for key in sorted(self.refused)})
        out.update({key: canonical(self.maxima[key]) for key in sorted(self.maxima)})
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,start,end,parent,op\n")
            for span in self.spans:
                handle.write("%d,%s,%.9f,%.9f,%d,%d\n" % span)
