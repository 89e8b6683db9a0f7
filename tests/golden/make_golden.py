"""Record the golden outputs of the shipped configs.

    PYTHONPATH=src python3 tests/golden/make_golden.py

For ``run`` on every shipped config this stores, under
``tests/golden/<config stem>/``: the exit code, the text report, its JSON
mirror, the CSV header with every 100th data row plus the last one, and
the largest entry magnitude of the scenario matrices (``scale``), which
sets the round-off the comparison allows.  For ``regimes`` on
``static_map.cfg`` it stores the SHA-256 and line count of the whole CSV
plus the same row sample.  ``tests/test_golden.py`` compares fresh
outputs against these files.

The files in the repository were recorded with the per-point (scalar)
implementation that the grid-batched pipeline replaced; regenerate them
only for a deliberate change of outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_CONFIGS = ("hermitian_broken", "hermitian_loop", "nonhermitian_drive", "static_map")
REGIMES_CONFIG = "static_map"
SAMPLE_STRIDE = 100


def sample_rows(lines: list[str]) -> list[str]:
    """Header, then ``index,row`` for every SAMPLE_STRIDE-th data row and the last."""
    data = lines[1:]
    picks = list(range(0, len(data), SAMPLE_STRIDE))
    if picks[-1] != len(data) - 1:
        picks.append(len(data) - 1)
    return ["row," + lines[0]] + [f"{k},{data[k]}" for k in picks]


def _main(argv: list[str]) -> tuple[int, str]:
    from tdnh import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def operand_scale(cfg) -> float:
    """max(1, largest entry of H, eta, rho and h) over the grid points."""
    from tdnh import cli
    from tdnh.model import hamiltonian

    times = cfg.grid.times()
    if cfg.kind == "static":
        path = cli._static_path(cfg)
        mats = [hamiltonian(path, t) for t in times]
    else:
        sc = cli._build_scenario(cfg)
        mats = [f(t) for t in times[::SAMPLE_STRIDE]
                for f in (sc.hamiltonian, sc.eta, sc.rho, sc.hermitian_hamiltonian)]
    return max(1.0, max(float(np.max(np.abs(m))) for m in mats))


def record_run(name: str, tmp: str) -> None:
    from tdnh.config import load_config

    config = os.path.join(ROOT, "configs", name + ".cfg")
    csv = os.path.join(tmp, name + ".csv")
    report = os.path.join(tmp, name + "_report.txt")
    code, _ = _main(["run", config, "--csv", csv, "--report", report])
    cfg = load_config(config)
    target = os.path.join(HERE, name)
    os.makedirs(target, exist_ok=True)
    with open(csv, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _write(os.path.join(target, "series_sample.csv"), "\n".join(sample_rows(lines)) + "\n")
    with open(report, encoding="utf-8") as fh:
        _write(os.path.join(target, "report.txt"), fh.read())
    with open(report + ".json", encoding="utf-8") as fh:
        _write(os.path.join(target, "report.json"), fh.read())
    meta = {"config": f"configs/{name}.cfg", "command": "run", "exit_code": code,
            "rows": len(lines) - 1, "scale": operand_scale(cfg)}
    _write(os.path.join(target, "meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def record_regimes(name: str, tmp: str) -> None:
    config = os.path.join(ROOT, "configs", name + ".cfg")
    csv = os.path.join(tmp, name + "_regimes.csv")
    code, _ = _main(["regimes", config, "--csv", csv])
    with open(csv, "rb") as fh:
        raw = fh.read()
    lines = raw.decode("utf-8").splitlines()
    target = os.path.join(HERE, name + "_regimes")
    os.makedirs(target, exist_ok=True)
    _write(os.path.join(target, "regimes_sample.csv"), "\n".join(sample_rows(lines)) + "\n")
    meta = {"config": f"configs/{name}.cfg", "command": "regimes", "exit_code": code,
            "lines": len(lines), "sha256": hashlib.sha256(raw).hexdigest()}
    _write(os.path.join(target, "meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUN_CONFIGS:
            record_run(name, tmp)
        record_regimes(REGIMES_CONFIG, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
