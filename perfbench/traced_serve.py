"""``python -m repro.store.serve`` with the benchmark's layer wrappers installed.

Usage: ``traced_serve.py --spans-out PATH [repro.store.serve options]``.
The served-sweep workload starts this instead of the plain service for its
traced pass.  On SIGINT the service shuts down as usual and the spans, the
per-layer self times and the tally profile are written to ``PATH``.
"""

from __future__ import annotations

import argparse
import sys

import tracing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--spans-out", required=True)
    args, serve_argv = parser.parse_known_args(argv)

    from repro.core.tally import profile_snapshot
    from repro.store import serve

    recorder = tracing.Recorder()
    missing = tracing.install(recorder)
    try:
        return serve.main(serve_argv)
    finally:
        tally = profile_snapshot()
        recorder.count("tally_s", tally["seconds"])
        recorder.count("tally_builds", tally["builds"])
        recorder.dump(args.spans_out, missing=missing)


if __name__ == "__main__":
    sys.exit(main())
