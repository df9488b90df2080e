"""``serve``: ``python -m repro serve <ds>=<edge list> --build-missing``.

One replica serves one community graph (one connected component, so a
write re-enumerates a whole parent component and costs a few hundred
ms).  One client process holds at most ``nproc`` keep-alive connections
and sends open-loop Poisson traffic in two kinds of window:

* **Phase A**, reads only: windows at a fixed reference rate
  (``read_p50_ms``, ``read_p99_ms``) and, in the traced run, a ladder of
  fixed rates on the untraced server (``read_max_rps``).
* **Phase B**: reads at the reference rate beside an ordered write
  trickle (``write_p50_ms``, ``mixed_read_p99_ms``).  Every write batch
  inserts one fresh intra-community non-edge and deletes the previous
  batch's insert, so each costs the same and the graph stays stationary.

The operation of ``op_ms`` is one write: ``op_ms`` is ``write_p50_ms``.
The other figures are in the report line.  The two kinds of window
alternate (see :class:`Session`): the host this was built on has slow
spells of seconds to minutes, and alternating puts every kind of window
into every spell.

Reads pick vertices with a Zipf skew over a fixed ranking and mix, with
equal weights, ``vcc-number`` (single and batch), ``same-kvcc``,
``components-of``, ``max-shared-level``, ``top-communities`` and
``critical-vertices``.  The mix is synthetic, not measured traffic.
Every answer is checked against an in-process ``HierarchyQueryService``
built from the same edges; every request that fails or answers wrongly
counts as failed.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import arith
import envinfo
import layers
import loadgen
from inputs import Relabeled, community_graph, rng_for

#: The served graph: five 50-vertex communities of 6-link pages, 3 cross
#: edges per community (n=250, one component); a write costs ~200 ms.
GRAPH = (5, 50, 6, 3)
#: Community whose non-edges the write trickle toggles.
WRITE_COMMUNITY = 0
BOOT_REPEATS = 5
#: Phase A reference rate and phase B read rate, requests/s.
REF_RATE = 500
#: Ladder: fixed rates 4 % apart, climbed in strides of five rungs.  A
#: rung passes with no failures, no growing backlog and p99 under the
#: limit; the limit sits well above a host stall (tens of ms), so only a
#: server falling behind fails a rung.
LADDER = tuple(int(round(1000 * 1.04 ** i)) for i in range(60))
LADDER_STRIDE = 5
READ_P99_LIMIT_S = 0.050
#: Requests a ladder step sends at least (p99 then has 10+ beyond it).
STEP_REQUESTS = 1100
STEP_MIN_S = 1.0
WRITE_INTERVAL_S = 0.4
WARMUP_S = 1.0
#: Share of ``--seconds`` the reference and the mixed windows get (the
#: ladder takes what its rungs need).  Read latencies are per-window
#: percentiles and a figure is the best window (``arith.best_window``);
#: every window holds at least STEP_REQUESTS reads, so each p99 has ten
#: samples beyond it.  Writes are few (one per WRITE_INTERVAL_S), so
#: ``write_p50_ms`` pools all of them: with five writes a window, the
#: best window's p50 spread 0.42 over ten seeds, the pooled p50 0.25.
SHARE_REF, SHARE_B = 0.50, 1.20
WINDOWS = 5
#: Read kinds, drawn with equal weights.  The mix, the Zipf skew
#: (exponent 1) of the vertex choice, the batch size and ``r`` are
#: synthetic choices, not derived from measured traffic.
KINDS = ("vcc", "vccb", "same", "comp", "msl", "top", "crit")
BATCH = 8
TOP_R = 3
POOL_SIZE = 4000
DATASET = "g"
#: Windows of each kind per server in the traced run, which runs two
#: servers (untraced with the ladder, then traced) in not much more
#: time than one measured run takes.
TRACED_WINDOWS = 3


class Server:
    """One ``repro serve`` process, started the way users start it."""

    def __init__(self, ctx, tag: str, traced: bool = False) -> None:
        self.cache = ctx.work / f"cache-{tag}"
        self.spans_path = ctx.work / f"spans-{tag}.json"
        argv = ["serve", f"{DATASET}={ctx.work / 'serve.txt'}",
                "--build-missing", "--cache-dir", str(self.cache),
                "--port", "0"]
        here = Path(__file__).resolve().parent
        if traced:
            cmd = [sys.executable, str(here / "launcher.py"),
                   str(self.spans_path), str(ctx.trace_path("serve")),
                   "--"] + argv
        else:
            cmd = [sys.executable, "-m", "repro"] + argv
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"),
                   PYTHONUNBUFFERED="1")
        self.log = open(ctx.work / f"server-{tag}.log", "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ctx.root, env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        try:
            self.port = self._read_port(deadline=started + 120)
            self._wait_healthy(deadline=started + 120)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if " on http://" in line:
                    address = line.split(" on http://")[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        raise RuntimeError("repro serve did not start; see its log")

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve never answered /healthz")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def post(self, path: str, payload: dict):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("POST", path, body=json.dumps(payload).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# -- reads ---------------------------------------------------------------
def _path(spec) -> str:
    kind = spec[0]
    base = f"/v1/{DATASET}"
    if kind == "vcc":
        return f"{base}/vcc-number?v={spec[1]}"
    if kind == "vccb":
        return f"{base}/vcc-number?" + "&".join(f"v={v}" for v in spec[1])
    if kind == "same":
        return f"{base}/same-kvcc?u={spec[1]}&v={spec[2]}&k={spec[3]}"
    if kind == "comp":
        return f"{base}/components-of?v={spec[1]}&k={spec[2]}"
    if kind == "msl":
        return f"{base}/max-shared-level?u={spec[1]}&v={spec[2]}"
    if kind == "top":
        return (f"/v2/{DATASET}/kvcc/top-communities"
                f"?v={spec[1]}&r={spec[2]}")
    return f"/v2/{DATASET}/kvcc/critical-vertices?v={spec[1]}&k={spec[2]}"


def _expected(service, spec):
    """The in-process answer, in the form :func:`_observed` returns."""
    kind = spec[0]
    if kind == "vcc":
        return service.vcc_number(spec[1])
    if kind == "vccb":
        return service.vcc_numbers(list(spec[1]))
    if kind == "same":
        return service.same_kvcc(spec[1], spec[2], spec[3])
    if kind == "comp":
        return frozenset(frozenset(c)
                         for c in service.components_of(spec[1], spec[2]))
    if kind == "msl":
        return service.max_shared_level(spec[1], spec[2])
    if kind == "top":
        return [(k, list(members))
                for k, members in service.top_communities(spec[1], spec[2])]
    return service.critical_vertices(spec[1], spec[2])


def _observed(spec, payload):
    kind = spec[0]
    if kind == "vcc":
        return payload["vcc_number"]
    if kind == "vccb":
        return payload["vcc_numbers"]
    if kind == "same":
        return payload["same_kvcc"]
    if kind == "comp":
        if payload["count"] != len(payload["components"]):
            return None
        return frozenset(frozenset(c) for c in payload["components"])
    if kind == "msl":
        return payload["max_shared_level"]
    if kind == "top":
        return [(c["k"], c["members"]) for c in payload["communities"]]
    return payload["critical"]


def _pool(seed: int, structure, forward, max_k: int) -> List[tuple]:
    """The read specs: a fixed mix over *structure* vertices, relabeled.

    Which vertices are hot and which queries are heavy is fixed, as the
    graph is: letting the seed choose them would let it choose the cost.
    The seed only relabels the vertices and shuffles the order.
    """
    rng = rng_for(0, "serve:reads")
    ranked = sorted(structure.vertices())
    rng.shuffle(ranked)
    cum, acc = [], 0.0
    for rank in range(len(ranked)):
        acc += 1.0 / (rank + 1)
        cum.append(acc)

    def vertex() -> int:
        return forward[rng.choices(ranked, cum_weights=cum)[0]]

    specs = []
    for _ in range(POOL_SIZE):
        kind = rng.choice(KINDS)
        k = rng.randint(1, max_k)
        if kind == "vcc":
            specs.append((kind, vertex()))
        elif kind == "vccb":
            specs.append((kind, tuple(vertex() for _ in range(BATCH))))
        elif kind == "same":
            specs.append((kind, vertex(), vertex(), k))
        elif kind == "msl":
            specs.append((kind, vertex(), vertex()))
        elif kind == "top":
            specs.append((kind, vertex(), TOP_R))
        else:
            specs.append((kind, vertex(), k))
    rng_for(seed, "serve:order").shuffle(specs)
    return specs


class Reads:
    """Cycles through the read pool, building Poisson schedules."""

    def __init__(self, seed: int, specs: List[tuple]) -> None:
        self.rng = rng_for(seed, "serve:arrivals")
        self.specs = specs
        self.next = 0

    def schedule(self, phase: str, rate: float, start: float,
                 seconds: float) -> List[loadgen.Request]:
        out = []
        t = start + self.rng.expovariate(rate)
        while t < start + seconds:
            spec = self.specs[self.next % len(self.specs)]
            rid = f"{phase}-{self.next}"
            self.next += 1
            out.append(loadgen.Request(
                t, loadgen.get(_path(spec), rid), tag=spec))
            t += self.rng.expovariate(rate)
        return out


def _graph_service(edges):
    from repro.graph.graph import Graph
    from repro.index import build_index
    from repro.index.query import HierarchyQueryService

    return HierarchyQueryService(build_index(Graph(edges)))


def _write_edges(structure, block, forward) -> List[tuple]:
    """Fresh intra-community non-edges, the same ones for every seed."""
    members = list(block)
    candidates = [(u, v) for i, u in enumerate(members)
                  for v in members[i + 1:] if not structure.has_edge(u, v)]
    rng_for(0, "serve:writes").shuffle(candidates)
    return [(forward[u], forward[v]) for u, v in candidates]


def _batch(insert, delete) -> dict:
    mutations = [{"op": "insert", "u": insert[0], "v": insert[1]}]
    if delete is not None:
        mutations.append({"op": "delete", "u": delete[0], "v": delete[1]})
    return {"mutations": mutations}


def _post_wire(batch: dict, rid: str) -> bytes:
    return loadgen.post(f"/v1/{DATASET}/edges",
                        json.dumps(batch).encode(), rid)


def _run_lanes(server: Server, lanes_spec, conns: int, end: float) -> None:
    """Run lanes on fresh connections; answers missing 3 s after the
    schedule ends are failures, and their connections are dropped."""
    gen = loadgen.LoadGen("127.0.0.1", server.port, conns)
    try:
        lanes = [loadgen.Lane(requests, [gen.conns[i] for i in idx], ordered)
                 for requests, idx, ordered in lanes_spec]
        gen.run(lanes, give_up=end + 3.0)
    finally:
        gen.close()


def _latency(requests) -> List[float]:
    return arith.latencies([r.intended for r in requests],
                           [r.done for r in requests],
                           [r.ok for r in requests])


class Session:
    """One server under the benchmark's traffic, window after window.

    Reference windows (reads only) and mixed windows (reads beside the
    write trickle) alternate, and the ladder's coarse and fine climbs,
    when it runs, sit between them, so a slow spell of the host falls on
    every kind of window alike.  ``state`` is the number of the last write applied:
    state j is the base graph plus ``writes[j]``.
    """

    def __init__(self, ctx, server: Server, reads: Reads, writes,
                 conns: int) -> None:
        self.ctx, self.server, self.reads = ctx, server, reads
        self.writes, self.conns = writes, conns
        self.state = 0
        #: (requests, state they see, server CPU seconds)
        self.reference: List[tuple] = []
        #: {"reads", "writes", "registry"} per mixed window
        self.mixed: List[dict] = []
        #: ladder rungs by index, each with its requests and state
        self.rungs: Dict[int, dict] = {}
        self._last_pass, self._first_fail = -1, len(LADDER)

    def _lanes(self, lanes_spec, end: float) -> None:
        _run_lanes(self.server, lanes_spec, self.conns, end)
        self.ctx.calibration.tick()

    def reference_window(self) -> None:
        seconds = max(self.ctx.seconds * SHARE_REF / WINDOWS,
                      STEP_REQUESTS / REF_RATE)
        start = loadgen.clock() + 0.05
        requests = self.reads.schedule("A", REF_RATE, start, seconds)
        cpu = envinfo.cpu_seconds(self.server.proc.pid)
        self._lanes([(requests, range(self.conns), False)], start + seconds)
        cpu = envinfo.cpu_seconds(self.server.proc.pid) - cpu
        self.reference.append((requests, self.state, cpu))

    def mixed_window(self) -> None:
        seconds = max(self.ctx.seconds * SHARE_B / WINDOWS,
                      STEP_REQUESTS / REF_RATE)
        start = loadgen.clock() + 0.05
        reads = self.reads.schedule("B", REF_RATE, start, seconds)
        writes = []
        for i in range(int(seconds / WRITE_INTERVAL_S)):
            j = self.state + i + 1
            writes.append(loadgen.Request(
                start + (i + 0.5) * WRITE_INTERVAL_S,
                _post_wire(_batch(self.writes[j], self.writes[j - 1]),
                           f"B-w{j}"), tag=j))
        before = self.server.get("/healthz")[1]
        self._lanes([(reads, range(max(1, self.conns - 1)), False),
                     (writes, [self.conns - 1], True)], start + seconds)
        after = self.server.get("/healthz")[1]
        self.mixed.append({
            "reads": reads, "writes": writes,
            "registry": {k: after[k] - before[k]
                         for k in ("hits", "loads", "reloads")},
        })
        self.state = max([w.tag for w in writes if w.ok], default=self.state)

    def _rung(self, i: int) -> bool:
        rate = LADDER[i]
        seconds = max(STEP_MIN_S, STEP_REQUESTS / rate)
        attempts = []
        # A failure must repeat to count: one host stall longer than the
        # p99 limit fails a rung the server could hold.
        for _ in range(2):
            start = loadgen.clock() + 0.05
            requests = self.reads.schedule("L", rate, start, seconds)
            self._lanes([(requests, range(self.conns), False)],
                        start + seconds)
            result = arith.judge_step(
                [r.intended for r in requests], [r.sent for r in requests],
                [r.done for r in requests], [r.ok for r in requests],
                rate, start, start + seconds, READ_P99_LIMIT_S)
            attempts.append({
                "verdict": result["verdict"], "p99_ms": result["p99"] * 1e3,
                "growth": result["growth"], "failed": result["failed"],
                "lateness_p99_ms": result["lateness_p99"] * 1e3,
                "requests": requests})
            if result["verdict"] == "pass":
                break
        passed = attempts[-1]["verdict"] == "pass"
        verdicts = {a["verdict"] for a in attempts}
        # The rung is the client's limit only when the client alone
        # failed every attempt (see arith.judge_step).
        limited_by = None if passed else (
            "server" if "server" in verdicts else "client")
        self.rungs[i] = {"rate": rate, "passed": passed,
                         "limited_by": limited_by,
                         "state": self.state, "attempts": attempts}
        return passed

    def coarse_climb(self) -> None:
        """Every LADDER_STRIDE-th rung up to the first failure."""
        for i in range(0, len(LADDER), LADDER_STRIDE):
            if not self._rung(i):
                self._first_fail = i
                return
            self._last_pass = i

    def fine_climb(self) -> None:
        """The rungs between the last coarse pass and first failure."""
        for i in range(self._last_pass + 1,
                       min(self._first_fail, len(LADDER))):
            if not self._rung(i):
                return

    def run_plan(self, windows: int = WINDOWS, ladder: bool = False) -> None:
        for window in range(windows):
            self.reference_window()
            self.mixed_window()
            if ladder and window == 0:
                self.coarse_climb()
            elif ladder and window == 1:
                self.fine_climb()

    # -- results ----------------------------------------------------------
    def reference_requests(self) -> list:
        return [r for requests, _, _ in self.reference for r in requests]

    def ladder_max(self) -> float:
        return arith.ladder_max([self.rungs[i] for i in sorted(self.rungs)])

    def ladder_end(self) -> str:
        """What stopped the climb: ``server``, ``client`` or ``top``."""
        for _, rung in sorted(self.rungs.items()):
            if not rung["passed"]:
                return rung["limited_by"]
        return "top"

    def all_writes(self) -> list:
        return [w for window in self.mixed for w in window["writes"]]

    def cpu_us_per_read(self) -> float:
        cpu = sum(c for _, _, c in self.reference)
        return cpu * 1e6 / len(self.reference_requests())

    def write_p50_ms(self) -> float:
        return arith.median(_latency(self.all_writes())) * 1e3

    def report(self) -> dict:
        out = {
            "writes": len(self.all_writes()),
            "reads": {
                "reference": len(self.reference_requests()),
                "mixed": sum(len(w["reads"]) for w in self.mixed),
                "ladder": sum(len(a["requests"]) for rung in
                              self.rungs.values() for a in rung["attempts"]),
            },
            "lateness_p99_ms": _lateness_p99_ms(self.reference_requests()),
            "server_cpu_us_per_read": self.cpu_us_per_read(),
        }
        if self.rungs:
            out["read_max_rps"] = {"value": self.ladder_max(),
                                   "unit": "req/s"}
            out["ladder_end"] = self.ladder_end()
            out["ladder"] = [
                {"rate": rung["rate"], "passed": rung["passed"],
                 "attempts": [{k: v for k, v in a.items() if k != "requests"}
                              for a in rung["attempts"]]}
                for _, rung in sorted(self.rungs.items())
            ]
        return out


def _check_reads(ctx, requests, answer_of, label: str) -> None:
    """``answer_of(request) -> list of acceptable answers``."""
    for request in requests:
        ok = request.ok
        if ok:
            got = _observed(request.tag, json.loads(request.body))
            ok = got in answer_of(request)
        ctx.check(ok, f"{label} read {_path(request.tag)} -> "
                      f"{request.status} {request.body!r:.200}")


def _best_ms(windows, q: float) -> dict:
    """The best window's ``q``-th percentile latency, in ms, with each
    window's sample count and the samples beyond the percentile."""
    result = arith.best_window([_latency(w) for w in windows], q)
    return {"value": result["value"] * 1e3, "unit": "ms",
            "samples": result["samples"], "beyond": result["beyond"]}


def _latency_report(session) -> dict:
    """Read latencies of both phases, best window of each (see README)."""
    reference = [requests for requests, _, _ in session.reference]
    return {
        "read_p50_ms": _best_ms(reference, 50),
        "read_p99_ms": _best_ms(reference, 99),
        "write_p50_ms": {"value": session.write_p50_ms(), "unit": "ms",
                         "samples": len(session.all_writes())},
        "mixed_read_p99_ms": _best_ms(
            [w["reads"] for w in session.mixed], 99),
    }


def run(ctx) -> None:
    structure, blocks = community_graph(*GRAPH)
    relabeled = Relabeled(structure, ctx.seed, "serve")
    relabeled.write(ctx.work / "serve.txt")
    writes = _write_edges(structure, blocks[WRITE_COMMUNITY],
                          relabeled.forward)
    conns = envinfo.nproc()
    servers: List[Server] = []
    try:
        if ctx.trace:
            _traced(ctx, servers, structure, relabeled, writes, conns)
        else:
            _measured(ctx, servers, structure, relabeled, writes, conns)
    finally:
        for server in servers:
            server.stop()


def _warm(ctx, server, writes, specs, conns: int) -> list:
    """Apply the warm-up write, then send a second of unmeasured reads,
    so lazy set-up (the updater, the delta-log reload) is not timed and
    the first window is no slower than the rest."""
    status, body = server.post(f"/v1/{DATASET}/edges",
                               _batch(writes[0], None))
    ctx.check(status == 200 and body.get("applied") == 1,
              f"warm-up write -> {status} {body}")
    reads = Reads(ctx.seed, specs)
    start = loadgen.clock() + 0.05
    requests = reads.schedule("W", REF_RATE, start, WARMUP_S)
    _run_lanes(server, [(requests, range(conns), False)], conns,
               start + WARMUP_S)
    return requests


def _measured(ctx, servers, structure, relabeled, writes, conns) -> None:
    setups = []
    for i in range(BOOT_REPEATS):
        ctx.calibration.tick()
        server = Server(ctx, f"boot{i}")
        servers.append(server)
        setups.append(server.boot_s)
        if i < BOOT_REPEATS - 1:
            server.stop()
            servers.remove(server)
    state0 = _graph_service(relabeled.edges + [writes[0]])
    specs = _pool(ctx.seed, structure, relabeled.forward, state0.index.max_k)
    warmup = _warm(ctx, server, writes, specs, conns)
    session = Session(ctx, server, Reads(ctx.seed, specs), writes, conns)
    session.run_plan()
    rss = envinfo.peak_rss_mb(str(server.proc.pid))
    final = _final_vcc_numbers(server, relabeled)

    _check_all(ctx, relabeled, writes, state0, session, warmup, final)
    ctx.metric("setup_s", arith.median(setups))
    ctx.metric("peak_rss_mb", rss)
    ctx.metric("op_ms", session.write_p50_ms())
    ctx.report["latency"] = _latency_report(session)
    ctx.report.update(session.report())
    ctx.report["setup_samples_s"] = setups


def _lateness_p99_ms(requests) -> float:
    return arith.percentile(
        arith.lateness([r.intended for r in requests],
                       [r.sent for r in requests]), 99) * 1e3


def _final_vcc_numbers(server, relabeled) -> Dict[int, Optional[int]]:
    labels = sorted(relabeled.forward.values())
    out = {}
    for i in range(0, len(labels), 60):
        chunk = labels[i:i + 60]
        status, body = server.get(
            f"/v1/{DATASET}/vcc-number?" + "&".join(f"v={v}" for v in chunk))
        numbers = body.get("vcc_numbers", [None] * len(chunk)) \
            if status == 200 else [None] * len(chunk)
        out.update(zip(chunk, numbers))
    return out


def _check_all(ctx, relabeled, writes, state0, session, warmup,
               final) -> None:
    """Every read against the in-process answer of a state it may see.

    State j is the base graph plus ``writes[j]``.  Reference windows and
    ladder rungs run with no write in flight and see the state they
    started in; a mixed-window read sees a state between the last write
    acknowledged before it was sent and the last write sent before it
    was answered.  ``final`` (vcc-numbers served after the last window)
    must equal a rebuild over the final graph.
    """
    services = {0: state0}
    answers: Dict[tuple, object] = {}

    def answer(j: int, spec):
        if (j, spec) not in answers:
            if j not in services:
                services[j] = _graph_service(relabeled.edges + [writes[j]])
            answers[(j, spec)] = _expected(services[j], spec)
        return answers[(j, spec)]

    def at(j: int):
        return lambda request: [answer(j, request.tag)]

    _check_reads(ctx, warmup, at(0), "warm-up")
    for requests, state, _ in session.reference:
        _check_reads(ctx, requests, at(state), "reference")
    for rung in session.rungs.values():
        for attempt in rung["attempts"]:
            _check_reads(ctx, attempt["requests"], at(rung["state"]),
                         "ladder")

    all_writes = session.all_writes()
    for w in all_writes:
        ctx.check(w.ok and json.loads(w.body).get("applied") == 2,
                  f"write {w.tag} -> {w.status} {w.body!r:.200}")

    def window(request):
        lo = sum(1 for w in all_writes
                 if w.done is not None and request.sent is not None
                 and w.done <= request.sent)
        hi = sum(1 for w in all_writes
                 if w.sent is not None and request.done is not None
                 and w.sent <= request.done)
        return [answer(j, request.tag) for j in range(lo, hi + 1)]

    for mixed in session.mixed:
        _check_reads(ctx, mixed["reads"], window, "mixed")
    if final is None:
        return
    for label, number in final.items():
        expected = answer(session.state, ("vcc", label))
        ctx.check(number == expected,
                  f"after the last write vcc-number({label}) = {number}, "
                  f"a rebuild says {expected}")


def _traced(ctx, servers, structure, relabeled, writes, conns) -> None:
    # An untraced server first: the baseline of trace.overhead_frac, the
    # server CPU per read and the ladder, all measured without wrappers.
    state0 = _graph_service(relabeled.edges + [writes[0]])
    specs = _pool(ctx.seed, structure, relabeled.forward, state0.index.max_k)
    plain = Server(ctx, "plain")
    servers.append(plain)
    plain_warmup = _warm(ctx, plain, writes, specs, conns)
    baseline = Session(ctx, plain, Reads(ctx.seed, specs), writes, conns)
    baseline.run_plan(TRACED_WINDOWS, ladder=True)
    plain_final = _final_vcc_numbers(plain, relabeled)
    plain.stop()
    servers.remove(plain)
    _check_all(ctx, relabeled, writes, state0, baseline, plain_warmup,
               plain_final)

    server = Server(ctx, "traced", traced=True)
    servers.append(server)
    warmup = _warm(ctx, server, writes, specs, conns)
    session = Session(ctx, server, Reads(ctx.seed, specs), writes, conns)
    session.run_plan(TRACED_WINDOWS)
    final = _final_vcc_numbers(server, relabeled)
    log_bytes = sum(p.stat().st_size
                    for p in (server.cache / "indexes").glob("*.delta"))
    server.stop()
    servers.remove(server)
    _check_all(ctx, relabeled, writes, state0, session, warmup, final)

    groups = {}
    for group, name, calls in json.loads(server.spans_path.read_text()):
        groups[(group, name)] = calls

    def spans(group: str, name: str, self_time=False) -> List[float]:
        """Span times (us) of ``name`` serving one kind of request:
        ``A`` reference windows, ``B`` mixed windows."""
        return [call[1 if self_time else 0] / 1e3
                for call in groups.get((group, name), ())]

    def p50(values: List[float]) -> float:
        return arith.median(values) if values else math.nan

    # Only writes enumerate: the phase-B spans of the enumeration layers
    # are the writes' own.
    totals = {}
    for (group, name), calls in groups.items():
        if group == "B":
            totals[name] = (len(calls), sum(c[0] for c in calls),
                            sum(c[1] for c in calls))
    layers.per_op_metrics(
        ctx, totals, max(1, len(session.all_writes())),
        session.write_p50_ms() / baseline.write_p50_ms() - 1)
    registry = {k: sum(w["registry"][k] for w in session.mixed)
                for k in ("hits", "loads", "reloads")}
    ctx.report["layers"] = {
        "service.transport.self_p50_us":
            p50(spans("A", "service.transport", True)),
        "service.handlers.self_p50_us":
            p50(spans("A", "service.handlers", True)),
        "service.schema.p50_us": p50(spans("A", "service.schema")),
        "service.render.p50_us": p50(spans("A", "service.render")),
        "service.registry.p50_us": p50(spans("A", "service.registry")),
        "service.registry.reloads": registry["reloads"],
        "service.registry.hit_frac":
            registry["hits"] / max(1, sum(registry.values())),
        "index.query.p50_us": p50(spans("A", "index.query")),
        "server.cpu_us_per_read": baseline.cpu_us_per_read(),
        "index.delta.apply_p50_ms":
            p50(spans("B", "index.delta.apply")) / 1e3,
        "index.delta.reload_p50_ms":
            p50(spans("B", "index.delta.reload")) / 1e3,
        "index.delta.log_bytes": log_bytes,
        "client.lateness_p99_ms":
            _lateness_p99_ms(baseline.reference_requests()),
        "index.query.methods_p50_us": {
            name.split(".")[-1]: p50(spans("A", name))
            for group, name in sorted(groups)
            if group == "A" and name.startswith("index.query.")
        },
    }
    ctx.report["untraced"] = dict(baseline.report(),
                                  latency=_latency_report(baseline))
    ctx.report["trace_file"] = str(ctx.trace_path("serve"))
