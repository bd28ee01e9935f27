"""The two causal-kv workloads and the metrics each run reports.

Live workloads start real `serve` nodes (through launcher.py) on loopback and
drive them from this process with loadgen.py. sim-partition runs the
deterministic simulator in this process. Inputs come only from the seed.
"""

from __future__ import annotations

import base64
import gc
import json
import os
import random
import resource
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from loadgen import Conn, Request, closed_loop, encode, now, open_loop
from tracer import dispatch_kind, revs_per_key

HERE = Path(__file__).resolve().parent
cpu_now = time.thread_time
LAUNCHER = HERE / "launcher.py"

SETUP_REPEATS = 5  # set-ups per run; setup_s is their mid-mean
CLOSED_WINDOW = 16  # outstanding requests in the closed-loop phase
SCAN_PROBES = 900  # sequential scans, 90 a round
HIST_PROBES = 200  # sequential historical point reads, 20 a round
ROUNDS = 10  # each run alternates this many mix segments, bursts and probe batches
PROBE_GAP_S = 0.002  # mean pause before each sequential probe
RECOVER_ROUND_S = 0.5  # recoveries in a round repeat until they have taken this long


# -- statistics -----------------------------------------------------------------


def pct(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def mid_mean(values) -> float:
    """Mean of the middle half. Machine speed here flips between two levels
    every few hundred ms, and the median of a few samples drawn from two
    levels jumps between them; the mean of the middle moves smoothly."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def b64e(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


# -- workload plans ---------------------------------------------------------------


@dataclass
class LiveSpec:
    name: str
    mode: str
    schema: str
    nodes: int
    fsync: bool
    rate: float  # open-loop requests per second
    closed_requests: int  # point reads in the closed-loop throughput phase
    keys: list[bytes]


def spec_for(name: str) -> LiveSpec:
    if name == "mesh3-repl":
        # 100 req/s: a response held by Nagle waits for the next request, so
        # a put delayed past that arrival costs a whole extra gap. At 300 req/s
        # (3.3 ms gaps) host stalls pushed many puts past it, and write_p50_ms
        # spread 0.6-0.7 between runs; at 10 ms gaps it spread 0.16.
        keys = [b"mesh/%04d" % k for k in range(1000)]
        return LiveSpec(name, "hash", "bytes", 3, True, 100.0, 50000, keys)
    raise ValueError(name)


def preload_items(spec: LiveSpec) -> list[tuple[bytes, bytes]]:
    """The same data set for every seed: the seed picks the request stream.
    Seeded preload values gave each run different change hashes, and so a
    different order for state_at to sort: historical reads took 2.5 or 5 ms."""
    rng = random.Random(f"{spec.name}:preload")
    return [(key, rng.randbytes(32)) for key in spec.keys]


class Plan:
    """Seeded request streams for one run of a live workload."""

    def __init__(self, spec: LiveSpec, seed: int, seconds: float, at):
        self.spec = spec
        self.rng = random.Random(f"{seed}:{spec.name}:requests")
        self._rid = 0
        self.at = at
        # Poisson arrivals: with a fixed interval the client's delayed-ACK timer
        # races the next request and the server's Nagle wait flips between runs
        arrivals = random.Random(f"{seed}:{spec.name}:arrivals")
        self.mix = []
        self.mix_rounds = [[] for _ in range(ROUNDS)]
        segment = seconds / ROUNDS
        due = arrivals.expovariate(spec.rate)
        while due < seconds:
            req = self._point(due % segment)
            self.mix.append(req)
            self.mix_rounds[int(due // segment)].append(req)
            due += arrivals.expovariate(spec.rate)
        # Point reads only: with puts in the bursts, each also waited on fsync
        # in all three nodes, and throughput followed the shared disk: it
        # spread 0.27-0.28 between runs, whatever the burst length.
        self.closed = [self._read(0.0) for _ in range(spec.closed_requests)]
        self.probes = [self._scan(0.0) for _ in range(SCAN_PROBES)] + [self._hist(0.0) for _ in range(HIST_PROBES)]
        # seeded pauses spread the probes over the anti-entropy ticks, so the
        # share of probes that meet one does not hang on where a batch falls
        self.probe_gaps = [arrivals.uniform(0, 2 * PROBE_GAP_S) for _ in self.probes]

    def _next_id(self) -> int:
        self._rid += 1
        return self._rid

    def _value(self, rid: int) -> bytes:
        return b"%08d:" % rid + self.rng.randbytes(24)

    def _point(self, due: float) -> Request:
        return self._put(due) if self.rng.random() < 0.5 else self._read(due)

    def _put(self, due: float) -> Request:
        rid = self._next_id()
        key = self.rng.choice(self.spec.keys)
        value = self._value(rid)
        frame = encode({"id": rid, "op": "put", "key": b64e(key), "value": b64e(value)})
        return Request(rid, "write", frame, key, value, due)

    def _read(self, due: float) -> Request:
        rid = self._next_id()
        key = self.rng.choice(self.spec.keys)
        return Request(rid, "read", encode({"id": rid, "op": "range", "key": b64e(key)}), key, None, due)

    def _scan(self, due: float) -> Request:
        rid = self._next_id()
        start = self.rng.randrange(len(self.spec.keys) // 10) * 10
        key, end = self.spec.keys[start], self.spec.keys[start][:-1] + b"\xff"
        frame = encode({"id": rid, "op": "range", "key": b64e(key), "range_end": b64e(end), "limit": 10})
        return Request(rid, "scan", frame, key, None, due)

    def _hist(self, due: float) -> Request:
        rid = self._next_id()
        key = self.rng.choice(self.spec.keys)
        return Request(rid, "hist", encode({"id": rid, "op": "range", "key": b64e(key), "at": self.at}), key, None, due)



def preload(spec: LiveSpec, dirs: list[Path]):
    """Write the preload through Store.put into node 1's data dir, as
    node 1 (so its own register_member is a no-op); other nodes start from a
    copy. Returns the post-preload history position for historical reads."""
    from causal_kv.node import Node, NodeConfig

    node = Node(NodeConfig(node_id=1, mode=spec.mode, schema=spec.schema, data_dir=str(dirs[0])))
    node.register_member()
    for key, value in preload_items(spec):
        node.store.put(key, value)
    at = node.store.current_revision() if spec.mode == "counter" else list(node.doc.heads)
    node.log.close()
    for d in dirs[1:]:
        d.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(dirs[0] / "changes.log", d / "changes.log")
    return at


# -- node processes ---------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class NodeProc:
    def __init__(self, node_id: int, ports: dict[int, int], spec: LiveSpec, data_dir: Path, rundir: Path, trace: bool):
        self.node_id = node_id
        self.port = ports[node_id]
        self.data_dir = data_dir
        self.stats_path = rundir / f"stats-{node_id}-{time.monotonic_ns()}.json"
        argv = [sys.executable, str(LAUNCHER), "--stats", str(self.stats_path)]
        if trace:
            argv.append("--trace")
        argv += ["--", "serve", "--node-id", str(node_id), "--mode", spec.mode, "--schema", spec.schema,
                 "--listen", f"127.0.0.1:{self.port}", "--data-dir", str(data_dir),
                 "--fsync", "on" if spec.fsync else "off", "--sync-interval-ms", "100"]
        for pid, port in sorted(ports.items()):
            if pid != node_id:
                argv += ["--peer", f"{pid}=127.0.0.1:{port}"]
        self.stderr = open(rundir / f"node-{node_id}.err", "ab")
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=self.stderr)

    def wait_ready(self, timeout: float = 60.0) -> dict:
        """Poll until the node answers status; returns that response."""
        deadline = now() + timeout
        while now() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"node {self.node_id} exited with {self.proc.returncode}")
            try:
                conn = Conn(("127.0.0.1", self.port), timeout=5.0)
            except OSError:
                time.sleep(0.005)
                continue
            try:
                response = conn.call({"id": 0, "op": "status"})
            finally:
                conn.close()
            if response.get("ok"):
                return response
        raise TimeoutError(f"node {self.node_id} did not answer status")

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def log_size(self) -> int:
        path = self.data_dir / "changes.log"
        return path.stat().st_size if path.exists() else 0

    def stop(self) -> dict:
        """SIGINT (as Ctrl-C stops `serve`), wait, and read the launcher's stats."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stderr.close()
        try:
            return json.loads(self.stats_path.read_text())
        except (OSError, ValueError):
            return {}


def stop_all(procs: list[NodeProc]) -> list[dict]:
    return [p.stop() for p in procs]


# Pinned to one vCPU at the lowest priority, it runs only when nothing else
# there wants to, and it ends as soon as the benchmark process is gone.
SPINNER = """import os
os.sched_setaffinity(0, {{{cpu}}})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == {parent}:
    pass
"""


def start_spinners() -> list[subprocess.Popen]:
    """Keep every vCPU busy with a spinner while a live workload runs, as
    idle=poll would. This VM halts an idle vCPU, and a thread woken onto it
    then waits until the host schedules that vCPU again: with the host busy,
    each such hop cost milliseconds, and the live latencies rose 40-75% and
    throughput fell 45% from one stretch of minutes to the next. A spinning
    vCPU never halts, and any other task preempts the spinner at once."""
    parent = os.getpid()
    return [subprocess.Popen([sys.executable, "-c", SPINNER.format(cpu=cpu, parent=parent)])
            for cpu in sorted(os.sched_getaffinity(0))]


def stop_spinners(spinners: list[subprocess.Popen]) -> None:
    for p in spinners:
        p.kill()
    for p in spinners:
        p.wait()


# -- live runs --------------------------------------------------------------------


def identity(spec: LiveSpec, header: dict):
    """What names one put on a single writer: its counter revision, or the
    change hash that is node 1's only head right after the commit."""
    if spec.mode == "counter":
        return header.get("revision")
    heads = header.get("heads") or []
    return heads[0] if len(heads) == 1 else None


def event_identity(spec: LiveSpec, event: dict):
    return event.get("mod_revision") if spec.mode == "counter" else event.get("change")


@dataclass
class LiveRun:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    stats: list = field(default_factory=list)  # launcher stats of each node's traced life
    requests: list = field(default_factory=list)
    late: list = field(default_factory=list)
    puts_acked: int = 0
    throughput: float = 0.0
    log_bytes: int = 0  # node 1's change log at the end of the run
    log_lines: int = 0


def start_nodes(spec: LiveSpec, ports, dirs, rundir, trace) -> list[NodeProc]:
    procs = [NodeProc(i + 1, ports, spec, dirs[i], rundir, trace) for i in range(spec.nodes)]
    try:
        for p in procs:
            p.wait_ready()
    except BaseException:
        stop_all(procs)
        raise
    return procs


def run_live(spec: LiveSpec, seed: int, seconds: float, rundir: Path, trace: bool, repeats: bool) -> LiveRun:
    out = LiveRun()
    rundir.mkdir(parents=True, exist_ok=True)
    ports = {i + 1: free_port() for i in range(spec.nodes)}
    setup_times = []
    procs: list[NodeProc] = []
    at = None
    spinners = start_spinners()
    try:
        for attempt in range(SETUP_REPEATS if repeats else 1):
            dirs = [rundir / f"setup{attempt}" / f"node{i + 1}" for i in range(spec.nodes)]
            t0 = now()
            at = preload(spec, dirs)
            procs = start_nodes(spec, ports, dirs, rundir, trace)
            setup_times.append(now() - t0)
            if attempt < (SETUP_REPEATS if repeats else 1) - 1:
                stop_all(procs)
                procs = []
                shutil.rmtree(rundir / f"setup{attempt}")
        plan = Plan(spec, seed, seconds, at)
        node1 = procs[0]
        client = Conn(("127.0.0.1", node1.port))
        watcher = Conn(("127.0.0.1", procs[-1].port), quickack=True)
        created = watcher.call({"id": 0, "op": "watch_create", "key": b64e(b"\x00"), "range_end": b64e(b"\x00")})
        if not created.get("ok"):
            raise RuntimeError(f"watch_create failed: {created}")

        # Rounds of (open-loop segment, closed-loop burst, probes, recovery)
        # spread every measurement over the run: machine speed here drifts over
        # ~10 s spans. The generator must not pause for its own garbage
        # collection meanwhile.
        gc.collect()
        gc.freeze()
        gc.disable()
        cpu = cpu1 = mix_s = log = 0.0
        late, pushes, recover_times = [], [], []
        burst_s = 0.0
        out.checks["recovered_same_position"] = True
        for k in range(ROUNDS):
            segment = plan.mix_rounds[k]
            cpu0, own0, log0, t0 = sum(p.cpu_s() for p in procs), node1.cpu_s(), node1.log_size(), now()
            mix = open_loop(client, segment, watcher)
            mix_s += now() - t0
            cpu += sum(p.cpu_s() for p in procs) - cpu0
            cpu1 += node1.cpu_s() - own0
            log += node1.log_size() - log0
            late += mix.late
            pushes += mix.pushes
            for r in segment:
                r.due += mix.start  # absolute due time from here on
            # replicas must catch up before the next phase, or it measures
            # the backlog the previous one left behind
            settle(procs)
            quiesce(procs, watcher, pushes)
            burst = plan.closed[k::ROUNDS]
            burst_s += closed_loop(client, burst, CLOSED_WINDOW, watcher, pushes)
            settle(procs)
            quiesce(procs, watcher, pushes)
            closed_loop(client, plan.probes[k::ROUNDS], 1, watcher, pushes, gaps=plan.probe_gaps[k::ROUNDS])
            spent = 0.0
            while (repeats and spent < RECOVER_ROUND_S) or (not repeats and k == ROUNDS - 1 and not spent):
                elapsed, same, stats = recover_copy(spec, node1, client, rundir, trace)
                spent += elapsed
                recover_times.append(elapsed)
                out.checks["recovered_same_position"] &= same
                if trace:
                    out.stats.append(stats)
        gc.enable()
        # Throughput over all bursts together: single bursts of one run varied
        # by up to 1.8x, with no steal.
        out.throughput = len(plan.closed) / burst_s
        rss = node1.peak_rss_mb()

        out.requests = plan.mix
        out.late = late
        every = plan.mix + plan.closed + plan.probes
        out.attempted = len(every)
        out.failed = sum(not r.ok for r in every)
        acked_puts = [r for r in plan.mix + plan.closed if r.kind == "write" and r.ok]
        out.puts_acked = len(acked_puts)

        # correctness: final ranges return every key's last acked value
        expected: dict[bytes, bytes | None] = {}
        for r in sorted((r for r in plan.mix + plan.closed if r.kind == "write"), key=lambda r: r.done or 1e18):
            expected[r.key] = r.value if r.ok else None  # unknown outcome: skip the key
        checks = [Request(i + 10**7, "read", encode({"id": i + 10**7, "op": "range", "key": b64e(k)}), k)
                  for i, k in enumerate(k for k, v in expected.items() if v is not None)]
        closed_loop(client, checks, CLOSED_WINDOW)
        out.checks["final_range_matches_last_ack"] = all(
            c.ok and c.response["kvs"] and base64.b64decode(c.response["kvs"][0]["value"]) == expected[c.key]
            for c in checks
        )

        # propagation: watch events matched to acked puts by identity
        put_ids = {identity(spec, r.response["header"]): r for r in acked_puts}
        seen = collect_pushes(spec, pushes)
        seen.update(drain_watch(spec, watcher, set(put_ids) - set(seen), timeout=15.0))
        out.checks["watch_saw_every_acked_put"] = None not in put_ids and set(put_ids) <= set(seen)
        lag_of = {id(put_ids[i]): (arrival - put_ids[i].due) * 1000 for i, arrival in seen.items() if i in put_ids}
        if spec.nodes > 1:
            out.checks["nodes_equal_heads"] = settle(procs)
        client.close()
        watcher.close()
        out.stats = stop_all(procs) + out.stats  # node 1 first, then its recovered copy
        procs = []
        log_data = (node1.data_dir / "changes.log").read_bytes()
        out.log_bytes, out.log_lines = len(log_data), log_data.count(b"\n")

        def latencies(kind):
            return [(r.done - r.due) * 1000 for r in plan.mix if r.kind == kind and r.ok]

        writes, reads = latencies("write"), latencies("read")
        lags = [lag_of[id(r)] for r in plan.mix if id(r) in lag_of]
        def probe_pct(kind, q):
            """Mid-mean over rounds of each round's percentile. Node 1's
            scans and historical reads ran about 1.7x slower in some rounds
            than in others, set by garbage-collector state left by the round
            before (with the collector off, both speeds matched). A pooled
            p50 jumped between the two speeds as the share of slow rounds
            crossed one half; this moves with that share smoothly."""
            return mid_mean([pct([(r.done - r.sent) * 1000 for r in plan.probes[k::ROUNDS] if r.kind == kind and r.ok], q)
                             for k in range(ROUNDS)])

        mix_puts = sum(1 for r in plan.mix if r.kind == "write" and r.ok)
        out.metrics = {
            "setup_s": (mid_mean(setup_times), "s"),
            "recover_s": (mid_mean(recover_times), "s"),
            "write_p50_ms": (pct(writes, 50), "ms"),
            "write_p99_ms": (pct(writes, 99), "ms"),
            "read_p50_ms": (pct(reads, 50), "ms"),
            "read_p99_ms": (pct(reads, 99), "ms"),
            "scan_p50_ms": (probe_pct("scan", 50), "ms"),
            "scan_p90_ms": (probe_pct("scan", 90), "ms"),
            "hist_p50_ms": (probe_pct("hist", 50), "ms"),
            "throughput_rps": (out.throughput, "1/s"),
            "error_frac": (out.failed / max(1, out.attempted), "fraction"),
            "repl_lag_mean_ms": (statistics.fmean(lags), "ms"),
            "repl_lag_p99_ms": (pct(lags, 99), "ms"),
            "rss_mb": (rss, "MB"),
            "log_bytes_per_put": (log / max(1, mix_puts), "bytes"),
            "sim_ms_per_req": (cpu * 1000 / max(1, len(plan.mix)), "ms"),
            "node1_busy_frac": (cpu1 / mix_s, "fraction"),
        }
        return out
    finally:
        stop_all(procs)
        stop_spinners(spinners)


def recover_copy(spec: LiveSpec, node1: NodeProc, client: Conn, rundir: Path, trace: bool):
    """Start node 1 again on a copy of its data dir, alone on a fresh port, and
    time it until it answers status. Node 1 keeps serving, so recoveries can be
    spread over the run. Returns (seconds, same position as node 1, stats)."""
    before = client.call({"id": 1, "op": "status"})["header"]
    copy = rundir / f"recover-{time.monotonic_ns()}"
    copy.mkdir()
    shutil.copyfile(node1.data_dir / "changes.log", copy / "changes.log")
    t0 = now()
    proc = NodeProc(1, {1: free_port()}, spec, copy, rundir, trace)
    try:
        after = proc.wait_ready()["header"]
        elapsed = now() - t0
    finally:
        stats = proc.stop()
    shutil.rmtree(copy)
    return elapsed, after == before, stats


def collect_pushes(spec: LiveSpec, pushes) -> dict:
    seen = {}
    for arrival, frame in pushes:
        for event in frame.get("events", ()):
            seen.setdefault(event_identity(spec, event), arrival)
    return seen


def drain_watch(spec: LiveSpec, watcher: Conn, missing: set, timeout: float) -> dict:
    """Read watch pushes until every missing identity arrived or time runs out."""
    seen = {}
    deadline = now() + timeout
    with selectors.SelectSelector() as sel:
        sel.register(watcher.sock, selectors.EVENT_READ)
        while missing and now() < deadline:
            if not sel.select(min(0.2, max(0.0, deadline - now()))):
                continue
            arrival = now()
            for frame in watcher.read_frames():
                for event in frame.get("events", ()):
                    ident = event_identity(spec, event)
                    seen.setdefault(ident, arrival)
                    missing.discard(ident)
    return seen


def quiesce(procs: list[NodeProc], watcher: Conn, pushes: list, window: float = 0.3,
            busy: float = 0.15, timeout: float = 10.0) -> None:
    """Wait until the nodes together use less than `busy` of a core over a
    window, reading watch pushes into `pushes` meanwhile. After a burst the
    nodes go on replicating and pushing its events for a while, and probes
    sent then took 5-30 ms instead of 2."""
    deadline = now() + timeout
    with selectors.SelectSelector() as sel:
        sel.register(watcher.sock, selectors.EVENT_READ)
        while now() < deadline:
            cpu0, t0 = sum(p.cpu_s() for p in procs), now()
            while (left := window - (now() - t0)) > 0:
                if sel.select(left):
                    arrival = now()
                    pushes.extend((arrival, frame) for frame in watcher.read_frames())
            if sum(p.cpu_s() for p in procs) - cpu0 < busy * (now() - t0):
                return


def settle(procs: list[NodeProc], timeout: float = 20.0) -> bool:
    """Wait until every node reports the same heads; True if they do."""
    if len(procs) < 2:
        return True
    deadline = now() + timeout
    conns = [Conn(("127.0.0.1", p.port)) for p in procs]
    try:
        while now() < deadline:
            heads = [tuple(c.call({"id": 2, "op": "status"})["header"]["heads"]) for c in conns]
            if len(set(heads)) == 1:
                return True
            time.sleep(0.02)
        return False
    finally:
        for c in conns:
            c.close()


# -- simulated partition ------------------------------------------------------------

SIM_SECONDS_PER_WALL_SECOND = 1 / 15  # simulated seconds per --seconds, per scenario; cost grows faster than length
SIM_REPEATS = 5  # scenarios per run; sim percentiles pool their samples
SIM_TIMING_REPEATS = 10  # set-ups and rebuilds timed per scenario
SIM_SCAN_PROBES = 300  # probe scans per scenario, and as many historical reads


def sim_scenario(seed: int, duration_s: float, quiescence_s: float = 2.0, partition: bool = True) -> dict:
    third_ms = duration_s * 1000 / 3
    events = [
        {"t_ms": third_ms, "action": "partition", "args": {"node": 5}},
        {"t_ms": 2 * third_ms, "action": "heal", "args": {"node": 5}},
    ] if partition else []
    return {
        "nodes": 5,
        "mode": "counter",
        "schema": "bytes",
        "workload": {"rate": 1000.0, "duration_s": duration_s, "key_count": 100},
        "link": {"delay_ms": 10.0, "jitter": 0.1},
        "events": events,
        "quiescence_s": quiescence_s,
    }




class SimProbe:
    """Wraps Node.dispatch while the simulator runs. It records the CPU time
    of each client request handed to a node, and after every n-th request it
    dispatches a probe scan or historical read into the same node. Probes
    commit nothing, so the simulated outcome is unchanged; their wall time is
    kept apart so it can be left out of the simulator's own cost.

    A dispatch here never waits on I/O, so its CPU time is its cost. Its wall
    time also held whatever the hypervisor took from the vCPU meanwhile, and
    with a few percent of steal that decided the p99: it spread 0.23-0.38
    between runs. Garbage collections are left out of a dispatch's time: a
    collection mostly frees what the simulator and the other nodes allocated,
    it lands in about 1% of writes, right at the p99, and whether the share
    was just above or below 1% moved write_p99_ms by 0.2 ms. Their cost stays
    in sim_ms_per_req and throughput_rps."""

    def __init__(self, seed: int, requests: int):
        self.samples: list[tuple[str, float, bool]] = []
        self.probes: list[tuple[str, float, bool]] = []
        # as many historical reads as scans: in-process they cost little
        self.every = max(1, requests // SIM_SCAN_PROBES)
        self.probe_wall = 0.0
        self.gc_cpu = 0.0  # CPU seconds spent in garbage collection so far
        self._gc_start = 0.0
        self._rng = random.Random(f"{seed}:sim:probes")

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_start = cpu_now()
        else:
            self.gc_cpu += cpu_now() - self._gc_start

    def _cpu(self) -> float:
        """CPU seconds of this thread outside garbage collection."""
        return cpu_now() - self.gc_cpu

    def _probe(self, node, request):
        n = len(self.samples)
        if n % self.every == 0:
            return {"id": 0, "op": "range", "key": request["key"], "range_end": b64e(b"\x00"), "limit": 10}
        if n % self.every == self.every // 2:
            at = self._rng.randrange(1, node.store.current_revision() // 2 + 2)
            return {"id": 0, "op": "range", "key": request["key"], "at": at}
        return None

    def install(self):
        from causal_kv.node import Node

        original = Node.dispatch

        def timed(node, request, watch_sink=None):
            c0 = self._cpu()
            response = original(node, request, watch_sink)
            self.samples.append((dispatch_kind(request), (self._cpu() - c0) * 1000, bool(response.get("ok"))))
            probe = self._probe(node, request)
            if probe is not None:
                t0, c0 = now(), self._cpu()
                ok = bool(original(node, probe).get("ok"))
                self.probes.append((dispatch_kind(probe), (self._cpu() - c0) * 1000, ok))
                self.probe_wall += now() - t0
            return response

        Node.dispatch = timed
        gc.callbacks.append(self._on_gc)
        return original

    def uninstall(self, original) -> None:
        from causal_kv.node import Node

        Node.dispatch = original
        gc.callbacks.remove(self._on_gc)


def sim_repl_lags_ms(result) -> list[float]:
    """Virtual time from node 1 sending a put's change until every other node
    has received it (directly, relayed, or by anti-entropy after the heal)."""
    first_send: dict[str, float] = {}
    arrive: dict[str, dict[int, float]] = {}
    for rec in result.network.log:
        if rec.src == 1 and rec.kind == "change":
            first_send.setdefault(rec.change_hashes[0], rec.send_s)
        if rec.delivered:
            for h in rec.change_hashes:
                per_node = arrive.setdefault(h, {})
                if rec.dst not in per_node or rec.deliver_s < per_node[rec.dst]:
                    per_node[rec.dst] = rec.deliver_s
    others = [n for n in result.nodes if n != 1]
    lags = []
    for change in result.nodes[1].doc.changes.values():
        if change.actor != 1 or not any(op.path[0] == "kvs" for op in change.ops):
            continue
        per_node = arrive.get(change.hash, {})
        if change.hash in first_send and all(n in per_node for n in others):
            lags.append((max(per_node[n] for n in others) - first_send[change.hash]) * 1000)
    return lags


@dataclass
class SimRun:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    puts_acked: int = 0
    throughput: float = 0.0
    wall_ms_per_req: float = 0.0
    revs_per_key: float = 1.0
    bytes_per_change: float = 0.0
    log_bytes: int = 0
    samples: dict = field(default_factory=dict)  # write/read/scan/hist ms, lag virtual ms
    setup_times: list = field(default_factory=list)
    recover_times: list = field(default_factory=list)


def run_sim(seed: int, seconds: float, rundir: Path, repeats: bool, tracer=None) -> SimRun:
    """Five partition scenarios with seeds derived from `seed`. Percentiles
    are taken over the samples of all five pooled: per scenario, a p99 rested
    on 4 samples beyond it and spread 0.4 between runs. Per-scenario rates
    are combined by mid-mean, since a scenario lasts seconds and machine speed
    here drifts over spans about that long. Without repeats, one scenario.
    A tracer is installed only while the partition scenario itself runs."""
    runs = [sim_once(seed * SIM_REPEATS + k, seconds, rundir / f"scenario{k}", repeats, tracer)
            for k in range(SIM_REPEATS if repeats else 1)]

    def pooled(kind):
        return [ms for r in runs for ms in r.samples[kind]]

    writes, reads, scans, hists, lags = (pooled(k) for k in ("write", "read", "scan", "hist", "lag"))
    out = SimRun(
        attempted=sum(r.attempted for r in runs),
        failed=sum(r.failed for r in runs),
        checks={k: all(r.checks[k] for r in runs) for k in runs[0].checks},
        puts_acked=sum(r.puts_acked for r in runs),
        throughput=mid_mean([r.throughput for r in runs]),
        revs_per_key=runs[-1].revs_per_key,
        bytes_per_change=runs[-1].bytes_per_change,
    )
    out.metrics = {
        "setup_s": (mid_mean([t for r in runs for t in r.setup_times]), "s"),
        "recover_s": (mid_mean([t for r in runs for t in r.recover_times]), "s"),
        "write_p50_ms": (pct(writes, 50), "ms"),
        "write_p99_ms": (pct(writes, 99), "ms"),
        "read_p50_ms": (pct(reads, 50), "ms"),
        "read_p99_ms": (pct(reads, 99), "ms"),
        "scan_p50_ms": (pct(scans, 50), "ms"),
        "scan_p90_ms": (pct(scans, 90), "ms"),
        "hist_p50_ms": (pct(hists, 50), "ms"),
        "throughput_rps": (out.throughput, "1/s"),
        "error_frac": (out.failed / max(1, out.attempted), "fraction"),
        "repl_lag_mean_ms": (statistics.fmean(lags), "ms"),
        "repl_lag_p99_ms": (pct(lags, 99), "ms"),
        "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "log_bytes_per_put": (sum(r.log_bytes for r in runs) / max(1, out.puts_acked), "bytes"),
        "sim_ms_per_req": (mid_mean([r.wall_ms_per_req for r in runs]), "ms"),
    }
    return out


def sim_once(seed: int, seconds: float, rundir: Path, repeats: bool, tracer=None) -> SimRun:
    """One partition scenario, sized from --seconds; its setup is timed on a
    one-request scenario and its recovery on a log of node 1's history."""
    from causal_kv.durability import ChangeLog
    from causal_kv.node import Node, NodeConfig
    from causal_kv.sim.harness import run_scenario, scenario_from_dict

    out = SimRun()
    rundir.mkdir(parents=True, exist_ok=True)
    for i in range(SIM_TIMING_REPEATS if repeats else 1):
        tiny = scenario_from_dict(sim_scenario(seed, 0.001, quiescence_s=0.0, partition=False))
        t0 = now()
        run_scenario(tiny, seed)
        out.setup_times.append(now() - t0)

    duration = max(0.3, seconds * SIM_SECONDS_PER_WALL_SECOND)
    scenario = scenario_from_dict(sim_scenario(seed, duration))
    probe = SimProbe(seed, int(scenario.workload.rate * duration))
    if tracer is not None:
        from tracer import install

        install(tracer)
    original = probe.install()
    gc.collect()  # start clean of garbage the benchmark itself left
    try:
        t0 = now()
        result = run_scenario(scenario, seed)
        wall = now() - t0 - probe.probe_wall
    finally:
        probe.uninstall(original)
        if tracer is not None:
            tracer.uninstall()
    node1 = result.nodes[1]
    revision = node1.store.current_revision()

    out.attempted = len(result.records)
    out.failed = sum(r.status != "ok" for r in result.records)
    out.puts_acked = sum(1 for r in result.records if r.op == "put" and r.status == "ok")
    out.throughput = out.attempted / wall
    out.wall_ms_per_req = wall * 1000 / max(1, out.attempted)
    out.checks["converged"] = result.converged
    out.revs_per_key = revs_per_key(node1)
    out.samples = {kind: [ms for k, ms, ok in rows if k == kind and ok]
                   for rows, kinds in ((probe.samples, ("write", "read")), (probe.probes, ("scan", "hist")))
                   for kind in kinds}
    out.samples["lag"] = sim_repl_lags_ms(result)
    out.checks["every_put_reached_every_node"] = len(out.samples["lag"]) == out.puts_acked

    logdir = rundir / "sim-node1"
    log = ChangeLog(logdir)
    for change in node1.doc.changes.values():
        log.append(change)
    log.close()
    out.log_bytes = (logdir / "changes.log").stat().st_size
    out.bytes_per_change = out.log_bytes / len(node1.doc.changes)
    # rebuild in a clean heap: with the finished simulation still alive, every
    # garbage collection during a rebuild would walk its whole history
    del result, node1
    gc.collect()
    gc.freeze()
    same = True
    for _ in range(SIM_TIMING_REPEATS if repeats else 1):
        t0 = now()
        restarted = Node(NodeConfig(node_id=1, mode="counter", schema="bytes", data_dir=str(logdir)))
        ok = restarted.dispatch({"id": 0, "op": "status"}).get("ok")
        out.recover_times.append(now() - t0)
        restarted.log.close()
        same = same and bool(ok) and restarted.store.current_revision() == revision
    out.checks["recovered_same_position"] = same
    gc.unfreeze()
    return out


# -- per-layer metrics from traced runs ---------------------------------------------


def merge_stats(dumps: list[dict]) -> dict:
    merged = {"durations": {}, "self_times": {}, "counts": {}, "dispatch_ns": {}}
    for d in dumps:
        for part in ("durations", "self_times"):
            for k, v in d.get(part, {}).items():
                merged[part].setdefault(k, []).extend(v)
        for k, v in d.get("counts", {}).items():
            merged["counts"][k] = merged["counts"].get(k, 0) + v
        merged["dispatch_ns"].update(d.get("dispatch_ns", {}))
    return merged


def per_layer(stats: dict, *, puts: int, overhead_ms: list, late_s: list, revs: float,
              bytes_per_change: float, base_rps: float, traced_rps: float) -> dict:
    durations, self_times, counts = stats["durations"], stats["self_times"], stats["counts"]

    def p50_us(name, table=durations):
        return pct(table.get(name, []), 50) / 1000.0

    def ratio(a, b):
        return a / b if b else 0.0

    # apply_remote is traced only for peer messages, so both dup fractions count the same calls
    applied = {k.rsplit(".", 1)[1]: v for k, v in counts.items() if k.startswith("engine.apply_remote.")}
    m = {
        "server.overhead_ms.p50": (pct(overhead_ms, 50), "ms"),
        "server.peer_send_us.p50": (p50_us("server.peer_send"), "us"),
    }
    for kind in ("write", "read", "scan", "hist"):
        m[f"node.dispatch_us.{kind}.p50"] = (p50_us(f"node.dispatch.{kind}"), "us")
    for kind in ("change", "sync_req", "sync_resp"):
        m[f"node.peer_msg_us.{kind}.p50"] = (p50_us(f"node.peer_msg.{kind}"), "us")
        m[f"node.peer_msg.{kind}.count"] = (len(durations.get(f"node.peer_msg.{kind}", [])), "count")
    m.update({
        "kvstore.put_us.p50": (p50_us("kvstore.put", self_times), "us"),
        "kvstore.range_us.p50": (p50_us("kvstore.range", self_times), "us"),
        "kvstore.revs_per_key": (revs, "count"),
        "kvstore.keys_examined_per_scan": (ratio(counts.get("kvstore.scan_keys_listed", 0), counts.get("kvstore.scans", 0)), "count"),
        "engine.commit_us.p50": (p50_us("engine.commit"), "us"),
        "engine.make_change_us.p50": (p50_us("engine.make_change"), "us"),
        "engine.apply_remote_us.p50": (p50_us("engine.apply_remote"), "us"),
        "engine.apply_remote.dup_frac": (ratio(applied.get("duplicate", 0), sum(applied.values())), "fraction"),
        "engine.state_at_us.p50": (p50_us("engine.state_at"), "us"),
        "engine.state_at.calls": (len(durations.get("engine.state_at", [])), "count"),
        "engine.missing_changes_us.p50": (p50_us("engine.missing_changes"), "us"),
        "engine.missing_changes.changes_per_call": (ratio(counts.get("engine.missing_changes.changes", 0), len(durations.get("engine.missing_changes", []))), "count"),
        "durability.append_us.p50": (p50_us("durability.append"), "us"),
        "durability.appends": (len(durations.get("durability.append", [])), "count"),
        "durability.bytes_per_change": (bytes_per_change, "bytes"),
        "durability.load_s": (pct(durations.get("durability.load", []), 50) / 1e9, "s"),
        "watch.on_change_us.p50": (p50_us("watch.on_change"), "us"),
        "watch.events_per_change": (ratio(counts.get("watch.events", 0), len(durations.get("watch.on_change", []))), "count"),
        "sync.copies_per_put": (ratio(counts.get("sync.copies_sent", 0), puts), "count"),
        "sync.peer_bytes_per_put": (ratio(counts.get("sync.bytes_sent", 0), puts), "bytes"),
        "sync.dup_frac": (ratio(applied.get("duplicate", 0), sum(applied.values())), "fraction"),
        "sync.resp_per_req": (ratio(counts.get("sync.sync_resp_sent", 0), counts.get("sync.sync_req_sent", 0)), "count"),
        "bench.gen_late_p99_ms": (pct([s * 1000 for s in late_s], 99), "ms"),
        "bench.trace_overhead_frac": (ratio(base_rps - traced_rps, base_rps), "fraction"),
    })
    return m
