"""One workload pass in a fresh interpreter.

Reads a plan written by ``run.py``, runs whole rounds of invocations in
a closed loop (one caller, the next invocation starts when the previous
one returns) until the plan's prefix is done and its seconds are spent,
and writes one JSON result: per-invocation wall and CPU time, exit code, output
digest, verdicts and margin, plus the pass's peak resident memory.  The
speed probe (:class:`speed.Sampler`) runs throughout, and each sample also
gets its process CPU time net of probe time, scaled to the reference
speed.  With
``trace`` set, the run is recorded by :class:`tracer.Recorder` and the
recorder's statistics and spans are written too.

    python3 perfbench/child.py PLAN RESULT
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from time import perf_counter, process_time

from gen import sequence
from speed import Sampler, scale

ORACLE_TOL = 1e-6       # |rho_ode - rho_closed_form|, acceptance criterion 4
DRIFT_LIMIT = 1e-3      # tdse_integrate's default relative drift guard


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _report_verdicts(json_path: str) -> tuple[dict, float | None]:
    payload = json.loads(_read(json_path))
    verdicts = {c["name"]: c["verdict"] for c in payload["checks"]}
    verdicts["overall"] = payload["overall"]
    margins = [c["residual"] / c["tolerance"] for c in payload["checks"]
               if c["verdict"] != "SKIP" and c["tolerance"] > 0.0]
    return verdicts, (max(margins) if margins else None)


def _regime_counts(csv_text: bytes) -> dict:
    counts: dict[str, int] = {}
    for line in csv_text.decode("utf-8").splitlines()[1:]:
        label = line.rsplit(",", 1)[-1]
        counts[label] = counts.get(label, 0) + 1
    return counts


def _cli(inst: dict) -> dict:
    from tdnh import cli

    argv = [inst["action"], inst["config"]]
    if inst["action"] in ("run", "regimes"):
        argv += ["--csv", inst["csv"]]
    if inst["action"] in ("run", "verify"):
        argv += ["--report", inst["report"]]
    out, err = io.StringIO(), io.StringIO()
    start, cpu = perf_counter(), process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    seconds, cpu = perf_counter() - start, process_time() - cpu

    sample = {"start": start, "seconds": seconds, "cpu_s": cpu, "rc": rc,
              "error": err.getvalue() or None}
    if rc == 2:
        return sample
    digest = hashlib.sha256(out.getvalue().encode("utf-8"))
    if inst["action"] in ("run", "regimes"):
        csv_bytes = _read(inst["csv"])
        digest.update(csv_bytes)
        sample["csv_bytes"] = len(csv_bytes)
    if inst["action"] in ("run", "verify"):
        digest.update(_read(inst["report"]))
        digest.update(_read(inst["report"] + ".json"))
        sample["verdicts"], sample["margin"] = _report_verdicts(inst["report"] + ".json")
    else:
        sample["verdicts"] = _regime_counts(csv_bytes)
    sample["digest"] = digest.hexdigest()
    return sample


def _propagate(inst: dict) -> dict:
    """TDSE with its drift guard, metric ODE and adiabatic decomposition of
    one slow drive, then the closed-form oracles (outside the timed part)."""
    import numpy as np
    import tdnh
    from tdnh import cli

    start, cpu = perf_counter(), process_time()
    cfg = tdnh.load_config(inst["config"])
    sc = cli._build_scenario(cfg)
    grid = cfg.grid
    traj = tdnh.scenario_eigen_trajectory(sc, grid)
    states = tdnh.tdse_integrate(sc.hamiltonian, traj.right[0][:, 0], grid, metric=sc.rho)
    flow = tdnh.metric_ode_solve(sc.hamiltonian, sc.rho(grid.start), grid)
    rates = tdnh.berry_rates(traj, sc.rho, sc.eta, sc.eta_dot)
    decomp = tdnh.adiabatic_decompose(states, traj, tdnh.dynamical_phase(traj),
                                      tdnh.geometric_phase(rates, grid))
    seconds, cpu = perf_counter() - start, process_time() - cpu

    oracle = 0.0
    norms = np.empty(grid.n_points)
    for k, t in enumerate(grid.times()):
        rho = np.asarray(sc.rho(t))
        oracle = max(oracle, float(np.max(np.abs(flow.values[k] - rho))))
        norms[k] = float(np.real(states[k].conj() @ rho @ states[k]))
    drift = float(np.max(np.abs(norms - norms[0])) / (1.0 + abs(norms[0])))
    digest = hashlib.sha256()
    for array in (states, flow.values, decomp.coefficients):
        digest.update(np.ascontiguousarray(array).tobytes())
    return {
        "start": start,
        "seconds": seconds,
        "cpu_s": cpu,
        "rc": 0,
        "error": None,
        "digest": digest.hexdigest(),
        "verdicts": {
            "metric_ode_oracle": "PASS" if oracle <= ORACLE_TOL else "FAIL",
            "metric_positive": "PASS" if flow.all_positive else "FAIL",
        },
        "margin": max(oracle / ORACLE_TOL, drift / DRIFT_LIMIT),
        "residuals": {"metric_ode_oracle": oracle, "norm_drift": drift,
                      "adiabatic_deviation": decomp.max_deviation},
    }


def invoke(inst: dict) -> dict:
    if inst["action"] == "propagate":
        try:
            return _propagate(inst)
        except Exception as exc:  # a drift-guard or build failure is a failed invocation
            return {"start": 0.0, "seconds": 0.0, "rc": 2,
                    "error": f"{type(exc).__name__}: {exc}"}
    return _cli(inst)


def run_pass(plan: dict, sampler: Sampler, recorder=None) -> dict:
    """Whole rounds in a closed loop."""
    samples = []
    rounds = 0
    start = perf_counter()
    for index in sequence(plan["workload"]):
        if plan["max_rounds"] is not None and rounds >= plan["max_rounds"]:
            break
        if rounds >= plan["prefix"] and perf_counter() - start >= plan["seconds"]:
            break
        for inst in plan["rounds"][index]:
            if recorder is not None:
                recorder.begin_invocation(f"{rounds}:{inst['name']}")
            sample = invoke(inst)
            if sample["rc"] != 2:
                w = sampler.window(sample["start"], sample["start"] + sample["seconds"])
                sample.update(probe_in_s=w["in_s"], probe_s=w["probe_s"],
                              probe_in_cpu_s=w["in_cpu_s"], probe_cpu_s=w["probe_cpu_s"],
                              scaled_s=scale(sample["cpu_s"] - w["in_cpu_s"], w["probe_cpu_s"]))
            sample.update(instance=inst["name"], round=index, pass_round=rounds,
                          action=inst["action"], points=inst["points"],
                          config_digest=inst["config_digest"])
            samples.append(sample)
        rounds += 1
    return {"samples": samples, "rounds": rounds, "wall_s": perf_counter() - start}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import numpy

    import tdnh.cli  # noqa: F401  (loaded before tracing so every module is wrapped)

    recorder = None
    with Sampler() as sampler:
        if plan["trace"]:
            from tracer import Recorder

            recorder = Recorder(sampler.clock)
            recorder.install()
        result = run_pass(plan, sampler, recorder)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    if recorder is not None:
        result["wrapped"] = recorder.wrapped_count
        result["restored"] = recorder.restore()
        result["trace"] = recorder.summary()
        recorder.write_spans(plan["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
