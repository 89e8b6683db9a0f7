"""tdnh benchmark: one workload, one seed, one measured run.

Run from the root of a checkout (the package sources under ``src/``)::

    python3 perfbench/run.py --workload loop_hermitian --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time over several
fresh interpreters, then a closed-loop pass in a fresh child process.
``--trace 1`` runs the anchor round once untraced and once under the
span recorder, each in its own child, and reports the per-layer metrics.
Both check the outputs (exit codes, determinism, oracles, the verdict
reference), print one line per metric, write a result file with
provenance under ``perfbench/out/``, and end with one JSON line.

``--record-reference`` re-records ``reference.json`` (verdicts of every
instance in the default seed's pools) and prints nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import gen
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
OUT = os.path.join("perfbench", "out")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_SAMPLES = 9
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion; a timeout kills and reaps it."""
    return subprocess.run([sys.executable] + args, env=_child_env(), capture_output=True,
                          text=True, timeout=timeout, check=False)


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


# --------------------------------------------------------------------------
# Passes
# --------------------------------------------------------------------------


def _plan(workload: str, rounds, paths: dict, work: str, *, seconds: float, prefix: int,
          max_rounds: int | None, trace: bool) -> dict:
    return {
        "workload": workload,
        "seconds": seconds,
        "prefix": prefix,
        "max_rounds": max_rounds,
        "trace": trace,
        "spans": os.path.join(work, "spans.json"),
        "rounds": [[{
            "name": inst.name,
            "action": inst.action,
            "config": paths[inst.name],
            "config_digest": inst.digest,
            "points": inst.points,
            "csv": os.path.join(work, inst.name + "_series.csv"),
            "report": os.path.join(work, inst.name + "_report.txt"),
        } for inst in rnd] for rnd in rounds],
    }


def _pass(plan: dict, work: str, tag: str) -> dict:
    plan_path = os.path.join(work, f"plan-{tag}.json")
    result_path = os.path.join(work, f"pass-{tag}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    proc = _run_child([os.path.join("perfbench", "child.py"), plan_path, result_path],
                      CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _setup_seconds(config: str) -> list[dict]:
    """Wall seconds from interpreter start to the first grid point, raw and
    scaled by a bare interpreter start timed just before (speed.py), for
    each of SETUP_SAMPLES starts that follow one unmeasured warm-up start
    (byte-code caches, file cache)."""
    values = []
    for k in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        _run_child(["-c", "pass"], 60)
        bare = time.monotonic() - start
        start = time.monotonic()
        proc = _run_child([os.path.join("perfbench", "setup_probe.py"), config], 60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        if k > 0:
            seconds = float(proc.stdout.split()[-1]) - start
            values.append({"seconds": seconds, "bare_start_s": bare,
                           "scaled_s": speed.scale_setup(seconds, bare)})
    return values


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------


def _load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def check_samples(samples: list[dict], reference: dict) -> dict:
    """Count failed invocations and verdict mismatches.

    An invocation fails on exit code 2, on a propagate oracle failure, or
    when an earlier invocation of the same instance gave other output bytes.
    A FAIL verdict is a result, not a failure; it is compared with the
    reference instead.
    """
    first_digest: dict[str, str] = {}
    failed = mismatches = referenced = repeats = 0
    failures = []
    for s in samples:
        reason = None
        if s["rc"] == 2:
            reason = f"exit 2: {(s.get('error') or '').strip()[-300:]}"
        elif s["action"] == "propagate" and "FAIL" in s["verdicts"].values():
            reason = f"oracle failure: {s['verdicts']}"
        elif s["instance"] not in first_digest:
            first_digest[s["instance"]] = s["digest"]
        else:
            repeats += 1
            if s["digest"] != first_digest[s["instance"]]:
                reason = "output bytes differ from an identical earlier invocation"
        if reason is not None:
            failed += 1
            failures.append({"instance": s["instance"], "pass_round": s["pass_round"],
                             "reason": reason})
        ref = reference.get(s["config_digest"])
        if ref is not None and "verdicts" in s:
            referenced += 1
            got, ref = s["verdicts"], ref["verdicts"]
            mismatches += sum(got.get(k) != ref.get(k) for k in set(got) | set(ref))
    return {"attempted": len(samples), "failed": failed, "verdict_mismatches": mismatches,
            "referenced": referenced, "determinism_repeats": repeats, "failures": failures}


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


TAIL_PERCENTILE = 90


def tail(values: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE-th percentile (interpolated between the two
    nearest samples) and how many samples lie above it.

    The percentile is fixed rather than chosen from the sample count: how
    many invocations fit into a pass depends on the host's speed, and a
    percentile that moved with the count would move the figure with it.
    """
    if len(values) == 1:
        return values[0], 0
    value = statistics.quantiles(values, n=100 // (100 - TAIL_PERCENTILE),
                                 method="inclusive")[-1]
    return value, sum(v > value for v in values)


def end_to_end(samples: list[dict], setup: list[dict], peak_rss_mb: float) -> tuple[dict, dict]:
    """Invocation times are process CPU seconds, and set-up times wall
    seconds, scaled to the reference speed (speed.py)."""
    done = [s for s in samples if s["rc"] != 2]
    if not done:
        raise RuntimeError("no invocation completed")
    times = [s["scaled_s"] for s in done]
    raw = [s["seconds"] for s in done]
    tail_value, beyond = tail(times)
    points = sum(s["points"] for s in done)
    margins = [s["margin"] for s in samples if s["round"] == 0 and s.get("margin") is not None]
    metrics = {
        "run_s": {"value": statistics.median(times), "unit": "s"},
        "run_s_tail": {"value": tail_value, "unit": "s"},
        "points_per_s": {"value": points / sum(times), "unit": "1/s"},
        "setup_s": {"value": statistics.median(s["scaled_s"] for s in setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "worst_margin": {"value": max(margins), "unit": "ratio"},
    }
    notes = {
        "run_s": f"median of {len(times)} invocations; raw wall median "
                 f"{statistics.median(raw):.4g} s, raw CPU median "
                 f"{statistics.median(s['cpu_s'] for s in done):.4g} s",
        "run_s_tail": f"p{TAIL_PERCENTILE} of {len(times)} invocations, "
                      f"{beyond} above it",
        "points_per_s": f"{points} grid points in {sum(times):.3f} s of invocations "
                        f"({sum(raw):.3f} s raw)",
        "setup_s": f"median of {len(setup)} fresh interpreters; raw wall median "
                   f"{statistics.median(s['seconds'] for s in setup):.4g} s",
        "peak_rss_mb": "peak resident set of the pass process",
        "worst_margin": f"max residual/tolerance over {len(margins)} anchor invocations",
    }
    return metrics, notes


def per_layer(untraced: dict, traced: dict, checks: dict) -> dict:
    """Per-layer metrics from the traced pass.

    Every traced name a metric reads must be in the recorder's statistics,
    which list each wrapped function even when it was never called.  A
    name that is missing (renamed or removed in tdnh) is an error, so that
    a layer does not read 0 and look like a gain.
    """
    summary = traced["trace"]
    stats = summary["stats"]
    missing = set()

    def total(field: str, *names: str):
        missing.update(name for name in names if name not in stats)
        return sum(stats[name][field] for name in names if name in stats)

    def calls(*names: str) -> int:
        return total("calls", *names)

    def incl(*names: str) -> float:
        return total("inclusive_s", *names)

    builds = ("model.build_hermitian_map_scenario", "model.build_nonhermitian_map_scenario")
    calls("model.dyson_residual")  # presence check; the figure comes from the edges
    certificate = sum(e["inclusive_s"] for e in summary["edges"]
                      if e["name"] == "model.dyson_residual" and e["parent"] in builds)
    expr_calls = calls("expr.evaluate", "expr.evaluate_dual")
    points = sum(s["points"] for s in traced["samples"])
    expr_names = [n for n in stats if n.startswith("expr.")]
    done = [s for s in untraced["samples"] if s["rc"] != 2]
    values = {
        "config.load_s": (incl("config.load_config"), "s"),
        "expr.calls": (expr_calls, "count"),
        "expr.calls_per_point": (expr_calls / points, "count/point"),
        "expr.self_s": (total("self_s", *expr_names), "s"),
        "model.build_s": (incl(*builds), "s"),
        "model.certificate_s": (certificate, "s"),
        "model.hamiltonian_calls": (calls("model.hamiltonian"), "count"),
        "model.quadrature_calls": (calls("model.adaptive_simpson"), "count"),
        "model.quadrature_s": (incl("model.adaptive_simpson"), "s"),
        "linalg.eig_calls": (calls("linalg.eig_biorthogonal", "linalg.metric_normalized"), "count"),
        "linalg.eig_s": (incl("linalg.eig_biorthogonal", "linalg.metric_normalized"), "s"),
        "linalg.fd_calls": (calls("linalg.operator_time_derivative"), "count"),
        "operators.energy_op_calls": (calls("operators.energy_operator"), "count"),
        "operators.metric_ode_s": (incl("operators.metric_ode_solve"), "s"),
        "evolution.trajectory_s": (incl("evolution.eigen_trajectory"), "s"),
        "evolution.rates_s": (incl("evolution.berry_rates"), "s"),
        "evolution.rates_h_s": (incl("evolution.hermitian_frame_rates"), "s"),
        "evolution.loop_s": (incl("evolution.berry_phase_loop"), "s"),
        "evolution.tdse_s": (incl("evolution.tdse_integrate"), "s"),
        "evolution.rk4_steps": (summary["counters"].get("evolution.rk4_steps", 0), "count"),
        "cli.battery_self_s": (total("self_s", "cli._run_mapped"), "s"),
        "cli.csv_write_s": (incl("cli._write_csv"), "s"),
        "cli.csv_bytes": (sum(s.get("csv_bytes", 0) for s in traced["samples"]
                              if s["action"] == "run"), "B"),
        "cli.static_s": (incl("cli._run_static"), "s"),
        "cli.regimes_s": (incl("cli._run_regimes"), "s"),
        "trace.overhead_s": (_scaled_total(traced) - _scaled_total(untraced), "s"),
        "raw.run_s": (statistics.median(s["seconds"] for s in done), "s"),
        "raw.cpu_s": (statistics.median(s["cpu_s"] - s["probe_in_cpu_s"] for s in done), "s"),
        "raw.probe_s": (statistics.median(s["probe_s"] for s in done), "s"),
        "raw.probe_cpu_s": (statistics.median(s["probe_cpu_s"] for s in done), "s"),
        "error_rate": (checks["failed"] / checks["attempted"], "ratio"),
        "verdict_mismatches": (checks["verdict_mismatches"], "count"),
    }
    if missing:
        raise RuntimeError("traced names missing from tdnh, update the per-layer metrics in "
                           f"perfbench/run.py: {', '.join(sorted(missing))}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _scaled_total(result: dict) -> float:
    """Invocation CPU seconds of a pass, net of probe time and scaled to the
    reference speed."""
    return sum(s["scaled_s"] for s in result["samples"] if s["rc"] != 2)


# --------------------------------------------------------------------------
# Provenance
# --------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(os.getcwd()):
        return None
    return lines[1]


def _src_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "tdnh")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode("utf-8"))
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(workload: str, seed: int, rounds, numpy_version: str) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "workload": workload,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": BLAS_THREADS,
        "grid_points": {inst.name: inst.points for rnd in rounds for inst in rnd},
    }


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def _workdir(workload: str, seed: int, tag: str) -> str:
    work = os.path.join(OUT, "work", f"{workload}-seed{seed}-{tag}")
    os.makedirs(work, exist_ok=True)
    return work


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds = gen.generate(workload, seed)
    work = _workdir(workload, seed, f"trace{int(trace)}")
    paths = gen.write_pool(rounds, os.path.join(work, "configs"))
    reference = _load_reference()
    common = dict(seconds=seconds, prefix=gen.PREFIX_ROUNDS[workload])
    if not trace:
        setup = _setup_seconds(paths[rounds[0][0].name])
        result = _pass(_plan(workload, rounds, paths, work, max_rounds=None, trace=False,
                             **common), work, "untraced")
        checks = check_samples(result["samples"], reference)
        metrics, notes = end_to_end(result["samples"], setup, result["peak_rss_mb"])
        record = {"setup_samples_s": setup, "pass": result}
        restored = True
    else:
        one_round = dict(seconds=0.0, prefix=1)
        untraced = _pass(_plan(workload, rounds, paths, work, max_rounds=1, trace=False,
                               **one_round), work, "untraced")
        traced = _pass(_plan(workload, rounds, paths, work, max_rounds=1, trace=True,
                             **one_round), work, "traced")
        samples = untraced["samples"] + traced["samples"]
        checks = check_samples(samples, reference)  # traced outputs must equal untraced ones
        metrics = per_layer(untraced, traced, checks)
        notes = {
            "trace.overhead_s": f"traced anchor round {_scaled_total(traced):.3f} s minus "
                                f"untraced {_scaled_total(untraced):.3f} s, both scaled "
                                f"(raw {traced['wall_s']:.3f} s and {untraced['wall_s']:.3f} s)",
            "raw.run_s": "median wall time of an untraced anchor invocation",
            "raw.cpu_s": "median CPU time of those invocations, net of probe time",
            "raw.probe_s": "median speed-probe wall time over those invocations",
            "raw.probe_cpu_s": "median speed-probe CPU time over those invocations",
        }
        restored = traced["restored"] and traced["wrapped"] > 0
        if not restored:
            checks["failures"].append({"reason": "tracer did not restore the original functions"})
        record = {"untraced": untraced, "traced": traced}
        result = traced
    correct = checks["failed"] == 0 and checks["verdict_mismatches"] == 0 and restored
    summary = {
        "provenance": provenance(workload, seed, rounds, result["numpy"]),
        "trace": trace,
        "seconds": seconds,
        "correct": correct,
        "checks": checks,
        "metrics": metrics,
        "notes": notes,
        **record,
    }
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def record_reference() -> int:
    """Record the verdicts of every instance in the default seed's pools."""
    instances = {}
    for workload in gen.WORKLOADS:
        rounds = gen.generate(workload, DEFAULT_SEED)
        work = _workdir(workload, DEFAULT_SEED, "reference")
        paths = gen.write_pool(rounds, os.path.join(work, "configs"))
        every_round = len(rounds) + 1  # the anchor runs twice
        result = _pass(_plan(workload, rounds, paths, work, seconds=0.0, prefix=every_round,
                             max_rounds=every_round, trace=False), work, "reference")
        for s in result["samples"]:
            if s["rc"] == 2:
                return _fail(f"{workload} {s['instance']}: {s['error']}")
            instances[s["config_digest"]] = {"instance": f"{workload}/{s['instance']}",
                                             "verdicts": s["verdicts"]}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "src_sha256": _src_digest(), "instances": instances},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="tdnh benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "tdnh", "__init__.py")):
        return _fail(f"no package sources at {SRC}/tdnh; run from the root of a tdnh checkout")
    os.makedirs(OUT, exist_ok=True)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return _fail(str(exc))

    checks = summary["checks"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{checks['attempted']} invocations, {checks['failed']} failed, "
          f"{checks['verdict_mismatches']} verdict mismatches "
          f"({checks['referenced']} referenced), correct={summary['correct']}")
    for failure in checks["failures"]:
        print(f"  failure: {failure}")
    for name, metric in summary["metrics"].items():
        value = metric["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        note = summary["notes"].get(name, "")
        print(f"{name} {shown} {metric['unit']}" + (f"  [{note}]" if note else ""))
    if not args.trace:
        print(f"error_rate {checks['failed'] / checks['attempted']:.6g} ratio")
        print(f"verdict_mismatches {checks['verdict_mismatches']} count")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
