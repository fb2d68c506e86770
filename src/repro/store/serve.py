"""CLI entry point: ``python -m repro.store.serve --store runs.db``.

Starts the stdlib scenario service (:mod:`repro.store.service`) on the
given host/port and serves until interrupted.  The store file is created
if it does not exist; an existing file that is not a valid run store
aborts with a clear error instead of serving garbage.
"""

from __future__ import annotations

import argparse
import sys

from .db import StoreError
from .resumable import DEFAULT_SEGMENT_EVENTS
from .service import create_server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.serve",
        description="Serve a run store over HTTP with streaming sweeps.",
    )
    parser.add_argument(
        "--store", required=True, help="path to the SQLite run store"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="default worker processes per launched sweep",
    )
    parser.add_argument(
        "--segment-events",
        type=int,
        default=DEFAULT_SEGMENT_EVENTS,
        help="trace persistence granularity (events per segment)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        server = create_server(
            args.store,
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            segment_events=args.segment_events,
        )
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(f"scenario service on http://{host}:{port} (store: {args.store})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
