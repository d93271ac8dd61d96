"""Open-loop load generator for ``feed_drilldown``: one process, one thread,
one TCP connection.

Protocol with the benchmark process: build the seeded schedule, connect,
print ``ready``, read the start time (a ``time.monotonic()`` value) from
stdin, then send every line when it is due, regardless of how the service
keeps up.  Lines due while the generator was busy go out together as soon
as it can send them.  At the end it closes the connection and prints one
JSON object: lines sent and how late they went out.

Run by ``w_feed.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time

import gen


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    schedule = gen.feed_schedule(args.seed, args.seconds)
    payloads = [line.data + b"\n" for line in schedule.lines]
    dues = [line.due for line in schedule.lines]
    lags = []
    with socket.create_connection(("127.0.0.1", args.port)) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        print("ready", flush=True)
        start = float(sys.stdin.readline())
        index = 0
        count = len(payloads)
        while index < count:
            delay = start + dues[index] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent_at = time.monotonic()
            stop = index
            while stop < count and start + dues[stop] <= sent_at:
                lags.append(sent_at - start - dues[stop])
                stop += 1
            conn.sendall(b"".join(payloads[index:stop]))
            index = stop
        conn.shutdown(socket.SHUT_WR)
    lags.sort()
    p95 = lags[max(0, -(-len(lags) * 95 // 100) - 1)] if lags else 0.0
    print(json.dumps({"sent": count, "lag_ms_p95": p95 * 1e3, "lag_ms_max": lags[-1] * 1e3 if lags else 0.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
