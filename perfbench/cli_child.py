"""``repro run`` with the front-door layers wrapped, for traced cli-grid ops.

Usage: ``python -X importtime perfbench/cli_child.py LAYERS_JSON <repro args>``.
Runs ``repro.cli.main`` on the arguments after ``LAYERS_JSON`` with the
executor and result-store wrappers of :mod:`layers` installed, then writes
their self times and call counts to ``LAYERS_JSON``.
"""

import json
import sys

import repro.cli

import layers


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    timer = layers.SelfTimer()
    uninstall = layers.install(timer, layers.CLI_LAYERS)
    try:
        return repro.cli.main(argv)
    finally:
        uninstall()
        with open(out, "w") as handle:
            json.dump({"self_s": timer.self_s, "calls": timer.calls}, handle)


if __name__ == "__main__":
    sys.exit(main())
