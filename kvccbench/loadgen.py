"""Open-loop HTTP/1.1 load generator over a few keep-alive connections.

One thread, non-blocking sockets and a selector polled in a busy loop
(the client owns one CPU while it runs).  Each request has an
intended send time; the generator writes it at that time whatever the
state of earlier requests (open loop), pipelining onto the connection
with the fewest requests in flight.  An *ordered* lane instead sends
its next request only after the previous one was answered, still timed
from its intended send time - the write trickle, where each batch must
see the one before it.

Each request records when it was due, sent and answered, the status and
the body, so latency is measured from the schedule (see
``arith.latencies``) and every answer can be checked after the phase.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from typing import List, Optional

clock = time.perf_counter


class Request:
    __slots__ = ("intended", "wire", "sent", "done", "status", "body", "tag")

    def __init__(self, intended: float, wire: bytes, tag=None) -> None:
        self.intended = intended
        self.wire = wire
        self.tag = tag
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.status: Optional[int] = None
        self.body: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return self.status == 200


def get(path: str, request_id: str) -> bytes:
    return (f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
            f"X-Request-Id: {request_id}\r\n\r\n").encode("ascii")


def post(path: str, body: bytes, request_id: str) -> bytes:
    head = (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"X-Request-Id: {request_id}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
    return head + body


class _Conn:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.inflight: deque = deque()
        self.dead = False

    def close(self) -> None:
        self.sock.close()


class Lane:
    """A schedule of requests bound to some connections."""

    def __init__(self, requests: List[Request], conns: List[_Conn],
                 ordered: bool = False) -> None:
        self.requests = requests
        self.conns = conns
        self.ordered = ordered
        self.next = 0

    def due_at(self) -> Optional[float]:
        if self.next >= len(self.requests):
            return None
        if self.ordered and self.next and \
                self.requests[self.next - 1].done is None:
            return None
        return self.requests[self.next].intended

    def busy(self) -> bool:
        return any(c.inflight for c in self.conns)


class LoadGen:
    """Connections to one server, driven by :meth:`run`."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.conns = [_Conn(host, port) for _ in range(connections)]
        self.sel = selectors.DefaultSelector()
        for conn in self.conns:
            self.sel.register(conn.sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        self.sel.close()
        for conn in self.conns:
            conn.close()

    def run(self, lanes: List[Lane], give_up: float) -> None:
        """Send every lane's schedule and wait for the answers.

        Stops at the absolute time ``give_up`` even if answers are
        missing; those requests keep ``done=None`` and count as failed.
        """
        while True:
            now = clock()
            pending = False
            for lane in lanes:
                while True:
                    due = lane.due_at()
                    if due is None or due > now:
                        break
                    self._send(lane, lane.requests[lane.next], now)
                    lane.next += 1
                if lane.next < len(lane.requests) or lane.busy():
                    pending = True
            if not pending or now >= give_up:
                return
            # Poll, never sleep: a sleeping client wakes late for sends
            # and answers alike, by as much as the host's load decides.
            for key, mask in self.sel.select(0):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    self._flush(conn)
                if mask & selectors.EVENT_READ:
                    self._receive(conn)

    def _send(self, lane: Lane, req: Request, now: float) -> None:
        live = [c for c in lane.conns if not c.dead]
        if not live:
            return
        conn = min(live, key=lambda c: len(c.inflight))
        req.sent = now
        conn.inflight.append(req)
        conn.out += req.wire
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._kill(conn)
            return
        del conn.out[:sent]
        events = selectors.EVENT_READ
        if conn.out:
            events |= selectors.EVENT_WRITE
        self.sel.modify(conn.sock, events, conn)

    def _receive(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 18)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._kill(conn)
            return
        conn.inbuf += data
        now = clock()
        buf = conn.inbuf
        while conn.inflight:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(buf[:end]).decode("latin-1").split("\r\n")
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            if len(buf) < end + 4 + length:
                return
            req = conn.inflight.popleft()
            req.status = int(head[0].split()[1])
            req.body = bytes(buf[end + 4:end + 4 + length])
            req.done = now
            del buf[:end + 4 + length]

    def _kill(self, conn: _Conn) -> None:
        """A dropped connection fails everything in flight on it."""
        conn.dead = True
        conn.inflight.clear()
        conn.out.clear()
        self.sel.unregister(conn.sock)
