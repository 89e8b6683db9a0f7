"""The tdnh names the benchmark harness reads still exist.

``perfbench/tracer.py`` wraps the public functions of tdnh's modules (their
``__all__``) and a few named CLI stages; ``perfbench/run.py`` reads the
per-layer metrics from those wrappers' statistics and stops with "traced
names missing" when a name it reads is gone.  This test runs that lookup
on a stub sample, so a change that removes or renames such a name fails
here rather than in a benchmark run.  Both harness files are imported
read-only from ``perfbench/``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time

from tdnh import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name: str):
    """Import perfbench/<name>.py under a private module name; run.py imports
    its sibling modules by bare name, so perfbench/ is on the path meanwhile."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, PERFBENCH)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


def test_traced_names_exist():
    tracer, run = _load("tracer"), _load("run")
    recorder = tracer.Recorder(time.perf_counter)
    try:
        recorder.install()
    finally:
        assert recorder.restore()
    sample = {"rc": 0, "action": "verify", "points": 1, "seconds": 0.0, "cpu_s": 0.0,
              "probe_in_cpu_s": 0.0, "probe_s": 0.0, "probe_cpu_s": 0.0, "scaled_s": 0.0}
    checks = {"attempted": 1, "failed": 0, "verdict_mismatches": 0}
    # raises RuntimeError naming every traced name a metric reads that is missing
    metrics = run.per_layer({"samples": [sample]},
                            {"trace": recorder.summary(), "samples": [sample]}, checks)
    assert "model.hamiltonian_calls" in metrics


def test_setup_probe_entry_point_exists():
    # perfbench/setup_probe.py and the propagate workload build scenarios through it
    assert callable(cli._build_scenario)
