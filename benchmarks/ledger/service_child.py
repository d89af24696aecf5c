"""The server process of the ``service_unix`` workload.

Runs ``StreamService`` over ``serve_unix`` on the thread backend — the
program under test, alone in its own process so its CPU, RSS and thread
count can be read from ``/proc`` without the load generator in them.

Protocol with the harness (the parent):

* prints ``ready`` on stdout once the socket is bound;
* ``SIGUSR1`` / ``SIGUSR2`` open / close a traced window (``--trace 1``
  only): spans are recorded and counter growth summed inside windows;
* ``SIGTERM`` drains: snapshot the service, close it, ``fini()`` the
  runtime, write the report JSON, exit 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import threading
import time

import harness


def main() -> int:
    # Before numpy loads: BLAS reads its thread variables only once.
    malloc_policy = harness.pin_process()
    harness.die_with_parent()
    harness.add_src_to_path()

    import kernels
    import tracing
    from repro import HStreams, make_platform
    from repro.service import StreamService, serve_unix

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    hs = HStreams(platform=make_platform("HSW", 1), backend="thread", trace=False)
    hs.register_kernel("noop", fn=kernels.noop)
    service = StreamService(hs)

    rec = window = None
    traced_wall_s = opened_at = 0.0
    if args.trace:
        rec = tracing.Recorder(bridge=True)
        rec.install()
        window = tracing.CounterWindow()

    def counters():
        return {**tracing.runtime_counters(hs), **tracing.admission_counters(service)}

    def open_window() -> None:
        nonlocal opened_at
        window.open(counters())
        opened_at = time.perf_counter()
        rec.enabled = True

    def close_window() -> None:
        nonlocal traced_wall_s
        if not rec.enabled:
            return
        rec.enabled = False
        traced_wall_s += time.perf_counter() - opened_at
        window.close(counters())

    report = {"pid": os.getpid(), "malloc": malloc_policy}

    async def amain() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        if rec is not None:
            loop.add_signal_handler(signal.SIGUSR1, open_window)
            loop.add_signal_handler(signal.SIGUSR2, close_window)
        server = await serve_unix(service, args.socket)
        print("ready", flush=True)
        await stop.wait()
        if rec is not None:
            close_window()
        server.close()
        await server.wait_closed()
        # What the harness checks after its clients closed every
        # session: nothing admitted, nothing open, nothing failed.
        snap = service.metrics()
        report["service"] = {"inflight": snap["inflight"], "sessions": snap["sessions"]}
        report["runtime"] = tracing.runtime_counters(hs)
        await service.close()

    asyncio.run(amain())
    hs.fini()
    if os.path.exists(args.socket):
        os.unlink(args.socket)
    if rec is not None:
        rec.uninstall()
        report["summary"] = tracing.summarize(rec, threading.main_thread().ident)
        report["counters"] = dict(window.total)
        report["traced_wall_s"] = traced_wall_s
        if args.trace_out:
            harness.write_json(
                args.trace_out, tracing.chrome_trace(rec, os.getpid()), compact=True
            )
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
