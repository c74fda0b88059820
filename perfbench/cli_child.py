"""Run the secondorder CLI in this process and write a report on the run.

Usage: python3 perfbench/cli_child.py {trace,memory} REPORT_OUT CLI_ARG...

Stdout, stderr and the exit code are the CLI's own. When the command
returns, REPORT_OUT receives JSON:

- ``trace``: the benchmark tracer's aggregates for the command;
- ``memory``: this process's peak RSS (VmHWM, which exec resets, so the
  parent's memory is not in it) and its RSS right after ``import secondorder``,
  both in KiB.
"""

import json
import sys
from pathlib import Path


def status_kib(field: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not in /proc/self/status")


def main() -> int:
    mode, out, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    from secondorder import cli

    if mode == "memory":
        post_import = status_kib("VmRSS")
        try:
            return cli.main(argv)
        finally:
            out.write_text(json.dumps({"hwm_kib": status_kib("VmHWM"), "post_import_rss_kib": post_import}))

    from tracer import Tracer

    tracer = Tracer().install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.raw()))


if __name__ == "__main__":
    raise SystemExit(main())
