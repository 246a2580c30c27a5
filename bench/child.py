"""Cold-process probe: import dplens.cli, load one config, optionally run it.

    python child.py COMMAND CONFIG [OUTDIR JOBS]

Prints ``ready`` as soon as ``load_config`` returns, so the parent can time
set-up (spawn, import, config validation) up to that line.  Given OUTDIR it
then runs the subcommand once into it.  The last line is a JSON object with
the import time, the exit code (null when nothing ran) and the peak resident
memory of this process in KiB.  The peak is read from ``VmHWM``, because on
Linux ``ru_maxrss`` carries over the parent's peak through ``exec``.
"""

import time

_start = time.perf_counter()
import dplens.cli  # noqa: E402

_import_s = time.perf_counter() - _start

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    command, config = argv[:2]
    dplens.cli.load_config(config, command)
    print("ready", flush=True)
    rc = None
    if len(argv) == 4:
        outdir, jobs = argv[2:]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            rc = dplens.cli.run_subcommand(
                [command, "--config", config, "--out", outdir, "--jobs", jobs]
            )
    peak_kib = _peak_rss_kib()
    print(json.dumps({"import_s": _import_s, "rc": rc, "maxrss_kib": peak_kib}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
