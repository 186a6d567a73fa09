"""Run ``occlusion_meter.cli`` under the tracer and save its spans.

Usage: python perfbench/cli_traced.py SPANS.json CLI-ARGS...

Used only by the traced ``cli_cold`` run; its exit code is the CLI's.
"""

from __future__ import annotations

import sys

import layers
from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    layers.observe(tracer)
    tracer.install()
    from occlusion_meter import cli

    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
