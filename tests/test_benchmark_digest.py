"""Behaviour digests of the benchmark's reference decks.

``perfbench/run.py`` replays the verification ops of reference seed 0
under its probe before it times anything, and refuses to run when the
digest of every decision, load, optimum and duel transcript it saw differs
from ``perfbench/digests.json``.  This test makes the same replay, so a
change in behaviour shows in the test suite before it reaches the
benchmark.  It only reads ``perfbench/``.
"""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


def _load(name: str):
    module_name = f"_perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            module_name, PERFBENCH / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module  # dataclasses look the module up
        spec.loader.exec_module(module)
    return sys.modules[module_name]


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_reference_digest(workload):
    run, probes, workloads = _load("run"), _load("probes"), _load("workloads")
    deck = workloads.WORKLOADS[workload](run.REFERENCE_SEED)
    probe = run.verify(probes, deck, trace=False)
    assert probe.digest() == DIGESTS[workload]
