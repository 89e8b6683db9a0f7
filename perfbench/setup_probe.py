"""Set-up probe: one fresh interpreter through import, config load and
the CLI's scenario build (with its Dyson certificate), up to the first
grid point.

Prints ``time.monotonic()`` at that point; the caller subtracts the
monotonic time at which it started the interpreter.  Run from the
checkout root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/setup_probe.py CONFIG
"""

from __future__ import annotations

import sys
import time

if __name__ == "__main__":
    from tdnh import cli, load_config

    cli._build_scenario(load_config(sys.argv[1]))
    print(repr(time.monotonic()))
