"""Print one SHA-256 per CLI invocation, to compare two versions' outputs.

    PYTHONPATH=src python3 tests/golden/output_digests.py [--work DIR] > digests.txt

Runs ``tdnh run``/``verify``/``regimes`` in-process on the shipped configs
(``run`` and ``verify`` on all four, ``regimes`` on ``static_map.cfg``)
and on the seed-0 pools of the benchmark's ``loop_hermitian``,
``drive_nonhermitian`` and ``batch_small`` workloads, as
``perfbench/gen.py`` generates them and with the action the benchmark
takes on each.  Each line is ``<sha256> <exit code> <label>``; the digest
covers stdout, stderr, the exit code, the CSV, the text report and its
JSON mirror.

Outputs are written under ``out/`` relative to the work directory (a
fresh temporary one by default), so the CSV path that ``regimes`` echoes
is the same wherever it runs.  Point ``PYTHONPATH`` at another checkout's
``src`` to digest that version with the same script; two versions are
byte-identical on these inputs iff their lines are.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SHIPPED = ("hermitian_broken", "hermitian_loop", "nonhermitian_drive", "static_map")
POOLS = ("loop_hermitian", "drive_nonhermitian", "batch_small")
SEED = 0


def invocations() -> list[tuple[str, str, str]]:
    """(label, action, config text) of every invocation, in a fixed order."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    out = []
    for name in SHIPPED:
        with open(os.path.join(ROOT, "configs", name + ".cfg"), encoding="utf-8") as fh:
            text = fh.read()
        actions = ("run", "verify", "regimes") if name == "static_map" else ("run", "verify")
        out += [(f"shipped/{name}", action, text) for action in actions]
    for workload in POOLS:
        for rnd in gen.generate(workload, SEED):
            out += [(f"{workload}/{inst.name}", inst.action, inst.text) for inst in rnd]
    return out


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b"<absent>"


def digest(index: int, action: str, text: str) -> tuple[str, int]:
    """Run one invocation in the current directory; (hex digest, exit code)."""
    from tdnh import cli

    stem = os.path.join("out", f"{index:03d}")
    config, csv, report = stem + ".cfg", stem + "_series.csv", stem + "_report.txt"
    with open(config, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    argv = [action, config]
    if action in ("run", "regimes"):
        argv += ["--csv", csv]
    if action in ("run", "verify"):
        argv += ["--report", report]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    h = hashlib.sha256()
    for part in (out.getvalue().encode(), err.getvalue().encode(), str(code).encode(),
                 _read(csv), _read(report), _read(report + ".json")):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest(), code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", help="work directory (default: a fresh temporary one)")
    args = parser.parse_args()
    work = args.work or tempfile.mkdtemp(prefix="tdnh-digests-")
    try:
        os.makedirs(os.path.join(work, "out"), exist_ok=True)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for index, (label, action, text) in enumerate(invocations()):
                hexdigest, code = digest(index, action, text)
                print(f"{hexdigest} {code} {label} {action}")
        finally:
            os.chdir(cwd)
    finally:
        if args.work is None:
            shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
