r"""Launch a repro.ingest daemon in its own process for ``ingest_http``.

Usage::

    python3 perfbench/ingest_daemon.py --db PATH --admin TOKEN \
        --tenant NAME:TOKEN:THRESHOLD [--tenant ...] [--trace DIR]

Registers the tenants in the sqlite archive at ``PATH`` (``:memory:``
for an in-memory one) and starts an :class:`repro.ingest.IngestServer`
with its default admission limits.  Once it is serving, it prints one
JSON line, ``{"port": N}``.  It then serves until its standard input
closes.  Each ``cpu`` line it reads on standard input is answered with
``{"cpu_s": S}``: the daemon's CPU clock, with every request thread
included, finished ones too.  With ``--trace DIR`` it installs the
benchmark's span wrappers first and writes its spans to ``DIR`` on
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--db", required=True)
    parser.add_argument("--admin", required=True)
    parser.add_argument("--tenant", action="append", default=[])
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
    from repro.ingest import IngestServer, IngestStore

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(args.trace, role="daemon")
        tracing.install_ingest(tracer)
        tracing.install_leakprof(tracer)

    store = IngestStore(args.db)
    for spec in args.tenant:
        name, token, threshold = spec.split(":")
        store.register_tenant(name, token, threshold=int(threshold))
    server = IngestServer(store, admin_token=args.admin).start()
    print(json.dumps({"port": server.port}), flush=True)
    try:
        for line in sys.stdin:  # serve until the benchmark closes stdin
            if line.strip() == "cpu":
                print(json.dumps({"cpu_s": time.process_time()}), flush=True)
    finally:
        server.close()
        store.close()
        if tracer is not None:
            tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
