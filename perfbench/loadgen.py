"""Load generator for the serve-mix workload.

One process, one thread, at most four keep-alive connections to a running
`locald serve`: three carry requests, the fourth scrapes `/metrics` once a
second. Requests come from a mix generated from the benchmark seed; the
server sees only those generated requests.

Open-loop phases send on a fixed schedule regardless of how the server
keeps up. Each request's latency is timed from its *due* time, so a stall
is charged to every request queued behind it, and the generator reports how
late it sent (its own lateness). The closed phase sends a fixed request list
back to back over the three connections, round after round.

Every response is checked: status 2xx and a body byte-identical to what the
same binary's CLI prints for that request (`expected`, computed before the
load starts). `/v1/healthz` has no CLI twin and is checked for
`"status": "ok"`; the scraper's `/metrics` only for status 200.
"""

import json
import random
import selectors
import socket
import time

REQUEST_CONNECTIONS = 3
TIMEOUT_S = 30.0

# Every three blocks of 20 requests hold the same 60 requests (`triple()`):
# 25 % catalog/health GETs, 45 % light runs, 20 % medium requests and 10 %
# fig2-gmr runs. The benchmark seed only orders them. Request parameters are
# fixed because they change the work: fig2-gmr at size 40 costs 0.34 s under
# one seed and 0.65 s under another, which would swamp any code change.
CATALOG = ["/v1/healthz", "/v1/scenarios", "/v1/families", "/v1/faults"]
TORUS_SIDES = [16, 32, 64]
GMR_SIZES = [20, 30, 40]
GMR_SEEDS = [1, 2]  # the first is written to the store before the run
BLOCKS_PER_TRIPLE = 3


class Request:
    """One generated request; `key` identifies its expected body."""

    def __init__(self, method, path, body=None):
        self.method = method
        self.path = path
        self.body = "" if body is None else json.dumps(body, sort_keys=True)
        self.key = (method, path, self.body)

    def wire(self):
        head = f"{self.method} {self.path} HTTP/1.1\r\nHost: localhost\r\n"
        if self.body:
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(self.body)}\r\n")
        return (head + "\r\n" + self.body).encode()


def run(body):
    return Request("POST", "/v1/run", body)


def gmr_requests():
    return [run({"scenario": "fig2-gmr", "size": size, "seed": seed})
            for seed in GMR_SEEDS for size in GMR_SIZES]


def block(gmr):
    """One block of 20: 5 GETs, 9 light, 4 medium and the 2 given fig2-gmr."""
    return ([Request("GET", path) for path in CATALOG + ["/v1/healthz"]]
            + [run({"scenario": "promise-halting", "seed": s}) for s in (1, 2, 3)]
            + [run({"scenario": "promise-cycle", "seed": s}) for s in (1, 2, 3)]
            + [run({"scenario": "family-workload",
                    "family": f"torus:width={side},height={side}"})
               for side in TORUS_SIDES]
            + [run({"scenario": "fault-robustness",
                    "family": "torus:width=16,height=16",
                    "fault_profile": "chaos", "seed": s}) for s in (1, 2)]
            + [Request("POST", "/v1/sweep", {"scenario": "promise-cycle",
                                             "sizes": [6, 8, 10]}),
               run({"scenario": "fig3-pyramid"})]
            + gmr)


def triple():
    gmr = gmr_requests()
    return [r for i in range(BLOCKS_PER_TRIPLE) for r in block(gmr[2 * i:2 * i + 2])]


def build_mix(seed, triples, stream):
    """`triples` shuffles of `triple()`, in orders drawn from (seed, stream)."""
    rng = random.Random(f"{seed}:{stream}")
    out = []
    for _ in range(triples):
        requests = triple()
        rng.shuffle(requests)
        out.extend(requests)
    return out


def closed_rounds(seed, count):
    """`count` closed-loop rounds, each the requests of `triple()` in its own
    order. A round's time depends on how its long requests fall across the
    connections, so one order repeated all run long made the median round
    move 0.79 s to 1.32 s between seeds."""
    mix = build_mix(seed, count, "closed")
    size = len(mix) // count
    return [mix[i * size:(i + 1) * size] for i in range(count)]


def populate_requests():
    """fig2-gmr keys an earlier server writes to the store: the first seed."""
    return gmr_requests()[:len(GMR_SIZES)]


def every_key():
    """Every distinct request of the mix."""
    return list({r.key: r for r in triple()}.values())


class Response:
    """Incremental HTTP/1.1 response parser (Content-Length or chunked)."""

    def __init__(self):
        self.buf = bytearray()
        self.status = None
        self.close = False
        self.body = None
        self._length = None
        self._chunked = False
        self._head_end = None

    def feed(self, data):
        """Adds bytes; returns True once the response is complete."""
        self.buf += data
        if self._head_end is None:
            end = self.buf.find(b"\r\n\r\n")
            if end < 0:
                return False
            self._head_end = end + 4
            lines = bytes(self.buf[:end]).decode("latin-1").split("\r\n")
            self.status = int(lines[0].split()[1])
            for line in lines[1:]:
                name, _, value = line.partition(":")
                name, value = name.strip().lower(), value.strip().lower()
                if name == "content-length":
                    self._length = int(value)
                elif name == "transfer-encoding" and "chunked" in value:
                    self._chunked = True
                elif name == "connection" and value == "close":
                    self.close = True
        if self._chunked:
            return self._parse_chunked()
        length = self._length or 0
        if len(self.buf) - self._head_end < length:
            return False
        self.body = bytes(self.buf[self._head_end:self._head_end + length])
        return True

    def _parse_chunked(self):
        pos, body = self._head_end, bytearray()
        while True:
            eol = self.buf.find(b"\r\n", pos)
            if eol < 0:
                return False
            size = int(bytes(self.buf[pos:eol]).split(b";")[0], 16)
            if size == 0:
                if self.buf.find(b"\r\n", eol + 2) < 0:
                    return False
                self.body = bytes(body)
                return True
            if len(self.buf) < eol + 2 + size + 2:
                return False
            body += self.buf[eol + 2:eol + 2 + size]
            pos = eol + 2 + size + 2


class Conn:
    def __init__(self, port, selector):
        self.port, self.selector = port, selector
        self.sock = None
        self.job = None      # (request, due, sent, phase record)
        self.response = None
        # Per socket lifetime, the completed requests in order:
        # (path, response body bytes, sent, done).
        self.history = []

    def send(self, job):
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port))
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.selector.register(self.sock, selectors.EVENT_READ, self)
            self.history.append([])
        self.job = job
        self.response = Response()
        self.sock.sendall(job[0].wire())

    def reset(self):
        if self.sock is not None:
            self.selector.unregister(self.sock)
            self.sock.close()
            self.sock = None


class Phase:
    """Counts and latencies of one phase."""

    def __init__(self, name):
        self.name = name
        self.sent = self.succeeded = self.failed = 0
        self.latency_ms = []
        self.lateness_ms = []
        self.failures = []
        self.wall_s = None
        self.rounds_s = []

    def summary(self):
        return {"sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed,
                "latency_ms": percentiles(self.latency_ms),
                "lateness_ms": percentiles(self.lateness_ms),
                "rounds_s": self.rounds_s}


def percentiles(values):
    if not values:
        return {"n": 0}
    ordered = sorted(values)

    def at(q):
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    # The highest percentile with at least ten samples beyond it.
    supported = max([q for q in (0.5, 0.9, 0.95, 0.99)
                     if len(ordered) * (1 - q) >= 10] or [0.5])
    return {"n": len(ordered), "p50": at(0.5), "p90": at(0.9),
            "p99": at(0.99), "max": ordered[-1], "supported": supported}


class LoadGenerator:
    def __init__(self, port, expected, scrape=True):
        self.port = port
        self.expected = expected  # request key -> expected body bytes
        self.selector = selectors.DefaultSelector()
        self.conns = [Conn(port, self.selector) for _ in range(REQUEST_CONNECTIONS)]
        self.scraper = Conn(port, self.selector) if scrape else None
        self.next_scrape = time.perf_counter()
        self.scrapes = Phase("scrape")

    def close(self):
        for conn in self.conns + ([self.scraper] if self.scraper else []):
            conn.reset()
        self.selector.close()

    def _check(self, req, resp):
        if resp.status is None or not 200 <= resp.status < 300:
            return f"status {resp.status} for {req.path} {req.body}"
        if req.path == "/v1/healthz":
            try:
                ok = json.loads(resp.body).get("status") == "ok"
            except ValueError:
                ok = False
            return None if ok else "healthz body"
        if req.path == "/metrics":
            return None if resp.body else "empty /metrics"
        if self.expected.get(req.key) != resp.body:
            return f"body differs from the CLI for {req.path} {req.body}"
        return None

    def _complete(self, conn, now):
        req, due, sent, phase = conn.job
        resp = conn.response
        error = self._check(req, resp)
        phase.sent += 1
        if error is None:
            phase.succeeded += 1
        else:
            phase.failed += 1
            phase.failures.append(error)
        phase.latency_ms.append((now - due) * 1e3)
        phase.lateness_ms.append((sent - due) * 1e3)
        conn.history[-1].append((req.path, len(resp.body or b""), sent, now))
        conn.job = None
        if resp.close:
            conn.reset()

    def _fail_job(self, conn, why, now):
        req, due, sent, phase = conn.job
        phase.sent += 1
        phase.failed += 1
        phase.failures.append(why)
        phase.latency_ms.append((now - due) * 1e3)
        phase.lateness_ms.append((sent - due) * 1e3)
        conn.job = None
        conn.reset()

    def _pump(self, timeout):
        """Waits up to `timeout` for responses and completes what arrived."""
        for key, _ in self.selector.select(max(0.0, timeout)):
            conn = key.data
            now = time.perf_counter()
            try:
                data = conn.sock.recv(1 << 20)
            except OSError as e:
                self._fail_job(conn, f"recv: {e}", now)
                continue
            if not data:
                if conn.job is not None:
                    self._fail_job(conn, "connection closed mid-response", now)
                else:
                    conn.reset()
                continue
            if conn.job is not None and conn.response.feed(data):
                self._complete(conn, time.perf_counter())
        now = time.perf_counter()
        for conn in self.conns + ([self.scraper] if self.scraper else []):
            if conn.job is not None and now - conn.job[1] > TIMEOUT_S:
                self._fail_job(conn, "timed out", now)

    def _maybe_scrape(self, now):
        if self.scraper and self.scraper.job is None and now >= self.next_scrape:
            self._send(self.scraper, Request("GET", "/metrics"), now, self.scrapes)
            self.next_scrape += 1.0

    def _send(self, conn, req, due, phase):
        try:
            conn.send((req, due, time.perf_counter(), phase))
        except OSError as e:
            conn.job = (req, due, time.perf_counter(), phase)
            self._fail_job(conn, f"send: {e}", time.perf_counter())

    def open_loop(self, name, requests, rate, seconds):
        """Sends requests[i % len] due at start + i / rate for `seconds`."""
        phase = Phase(name)
        start = time.perf_counter()
        count = int(rate * seconds)
        queue = []  # due-ordered backlog: (due, request)
        issued = 0
        while issued < count or queue or any(c.job for c in self.conns):
            now = time.perf_counter()
            while issued < count and start + issued / rate <= now:
                queue.append((start + issued / rate, requests[issued % len(requests)]))
                issued += 1
            for conn in self.conns:
                if conn.job is None and queue:
                    due, req = queue.pop(0)
                    self._send(conn, req, due, phase)
            self._maybe_scrape(now)
            # Sleep in select until the next due time or scrape, or until a
            # response frees a connection for the backlog.
            wake = self.next_scrape
            if issued < count:
                wake = min(wake, start + issued / rate)
            self._pump(min(wake - time.perf_counter(), 0.05))
        phase.wall_s = time.perf_counter() - start
        return phase

    def closed_loop(self, name, rounds, min_rounds, seconds):
        """Rounds back to back, cycling through `rounds` (request lists); at
        least `min_rounds` rounds."""
        phase = Phase(name)
        start = time.perf_counter()
        while len(phase.rounds_s) < min_rounds or time.perf_counter() - start < seconds:
            round_start = time.perf_counter()
            pending = list(rounds[len(phase.rounds_s) % len(rounds)])
            while pending or any(c.job for c in self.conns):
                now = time.perf_counter()
                for conn in self.conns:
                    if conn.job is None and pending:
                        self._send(conn, pending.pop(0), time.perf_counter(), phase)
                self._maybe_scrape(now)
                self._pump(0.05)
            phase.rounds_s.append(time.perf_counter() - round_start)
        phase.wall_s = time.perf_counter() - start
        return phase

    def wait_times_ms(self, access_log_lines):
        """Client latency minus the server's own duration, per request.

        A keep-alive connection is served by one worker for its life, so the
        access-log entries of one worker, in order, are the requests of the
        connections it served, in order. Each client socket lifetime is
        matched to the worker whose next entries carry the same paths and
        response sizes.
        """
        by_worker = {}
        for entry in access_log_lines:
            by_worker.setdefault(entry["worker"], []).append(entry)
        cursor = {w: 0 for w in by_worker}
        lifetimes = []
        for conn in self.conns + ([self.scraper] if self.scraper else []):
            lifetimes.extend(jobs for jobs in conn.history if jobs)
        lifetimes.sort(key=lambda jobs: jobs[0][2])
        waits, unmatched = [], 0
        for jobs in lifetimes:
            match = None
            # A worker's next entries may start with requests this generator
            # did not send (the readiness probe's /v1/healthz): skip a few.
            for w, entries in by_worker.items():
                for start in range(cursor[w], min(cursor[w] + 3, len(entries))):
                    window = entries[start:start + len(jobs)]
                    if len(window) == len(jobs) and all(
                            (e["path"], e["bytes"]) == j[:2]
                            for e, j in zip(window, jobs)):
                        match = w, start
                        break
                if match:
                    break
            if match is None:
                unmatched += len(jobs)
                continue
            w, start = match
            window = by_worker[w][start:start + len(jobs)]
            cursor[w] = start + len(jobs)
            for entry, (_, _, sent, done) in zip(window, jobs):
                waits.append((done - sent) * 1e3 - entry["duration_ms"])
        return waits, unmatched
