"""Local MT stub for the I/O-bound workload, run as its own process.

    python3 bench/stub.py --lexicon MAP.json

Serves POST /translate ({"texts","src_lang","tgt_lang"} -> {"translations"})
by applying the lexicon test double with `reverse` reordering after a
service time of 20 ms plus 0.2 ms per text. One in 10 distinct request
bodies, chosen by hash, is answered 503 on its first attempt only. The only
faults are 503s: a malformed 200 would abort the whole corpus in the client.

GET /stats returns the counters (attempts, 503s, connections that sent a
translate request, peak concurrent requests, summed service seconds), then
zeroes them and forgets which bodies were seen. Control requests are not
counted.

Prints "PORT <n>" once listening and exits when its stdin closes, so it
never outlives the process that started it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from spanbridge.translate import (  # noqa: E402
    REORDER_REVERSE,
    LexiconBackend,
    LexiconBackendConfig,
    TranslateRequest,
)

BASE_S = 0.020
PER_ITEM_S = 0.0002
FAIL_ONE_IN = 10


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.attempts = 0
        self.faults = 0
        self.connections = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.service_s = 0.0
        self.seen_bodies: set[bytes] = set()

    def snapshot(self) -> dict:
        return {
            "attempts": self.attempts,
            "faults": self.faults,
            "connections": self.connections,
            "peak_in_flight": self.peak_in_flight,
            "service_s": self.service_s,
        }


def make_handler(backend: LexiconBackend, counters: Counters):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, so connection reuse can show

        def setup(self):
            super().setup()
            self.counted_connection = False

        def _reply(self, code: int, payload: bytes = b""):
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404)
                return
            with counters.lock:
                stats = counters.snapshot()
                counters.reset()
            self._reply(200, json.dumps(stats).encode())

        def do_POST(self):
            raw = self.rfile.read(int(self.headers["Content-Length"]))
            if self.path != "/translate":
                self._reply(404)
                return
            start = time.perf_counter()
            with counters.lock:
                counters.attempts += 1
                if not self.counted_connection:
                    counters.connections += 1
                    self.counted_connection = True
                counters.in_flight += 1
                counters.peak_in_flight = max(counters.peak_in_flight, counters.in_flight)
                first_attempt = raw not in counters.seen_bodies
                counters.seen_bodies.add(raw)
                digest = hashlib.sha256(raw).digest()
                fault = first_attempt and int.from_bytes(digest[:8], "big") % FAIL_ONE_IN == 0
                if fault:
                    counters.faults += 1
            try:
                if fault:
                    self._reply(503)
                    return
                body = json.loads(raw)
                time.sleep(BASE_S + PER_ITEM_S * len(body["texts"]))
                response = backend.translate(
                    TranslateRequest(tuple(body["texts"]), body["src_lang"], body["tgt_lang"]))
                self._reply(200, json.dumps({"translations": response.outputs()}).encode())
            finally:
                with counters.lock:
                    counters.in_flight -= 1
                    counters.service_s += time.perf_counter() - start

        def log_message(self, *args):
            pass

    return Handler


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lexicon", required=True)
    args = parser.parse_args()
    with open(args.lexicon, encoding="utf-8") as f:
        token_map = json.load(f)
    backend = LexiconBackend(LexiconBackendConfig(token_map, reorder=REORDER_REVERSE))
    counters = Counters()
    handler = make_handler(backend, counters)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    print(f"PORT {server.server_port}", flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes the pipe or exits
    finally:
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main()
