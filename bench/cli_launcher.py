"""Run one pythcpt CLI command with the layer-boundary spans installed.

Usage: python3 bench/cli_launcher.py --spans FILE -- <cli arguments>

The import of ``pythcpt.cli`` is recorded as a ``cli.import`` span; the
spans are appended to FILE as JSON lines when the command returns, and
the process exits with the command's exit code.
"""

import os
import sys
import time

_T0 = time.perf_counter()

_BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(_BENCH), "src"))

from spans import Recorder  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: cli_launcher.py --spans FILE -- <cli arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[3:]
    import pythcpt.cli

    recorder = Recorder("cli_session")
    recorder.spans.append(
        {"id": 0, "name": "cli.import", "parent": None, "workload": "cli_session", "item": None,
         "start": _T0, "end": time.perf_counter()}
    )
    recorder.install()
    try:
        code = pythcpt.cli.main(cli_args)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
