"""Run ``powerplan.cli.main`` as a child process with tracing or a planted fault.

Usage: python3 perfbench/cli_child.py [--trace-out PATH] [--fault NAME] -- <powerplan args>

Used for the traced and fault-injected ``cli-select`` ops; plain ops run
``python -m powerplan.cli`` directly.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, rest = argv[:split], argv[split + 1 :]
    trace_out = opts[opts.index("--trace-out") + 1] if "--trace-out" in opts else None
    fault = opts[opts.index("--fault") + 1] if "--fault" in opts else None

    import powerplan.cli

    if fault:
        import faults

        faults.install(fault)
    tracer = None
    if trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return powerplan.cli.main(rest)
    finally:
        if tracer is not None:
            with open(trace_out, "w", encoding="utf-8") as fh:
                json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
