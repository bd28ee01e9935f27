"""Scenario runner: boots N in-process nodes on a simulated network, drives the
open-loop workload at one serving node, injects partition/latency events, and
reports metrics plus a convergence verdict after a quiescence window.

Everything runs on virtual time under one seed, so a scenario replays to
byte-identical metrics. The client sits with its node: requests are handed to
the serving node directly and cost a fixed service time plus any queueing
behind earlier requests, never a peer round-trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..kvstore import b64e
from ..node import Node, NodeConfig
from ..sync import sync_phases
from .events import Scheduler
from .metrics import MetricRecord, write_csv
from .network import LinkConfig, SimNetwork
from .workload import Request, WorkloadConfig, generate_requests

ACTIONS = ("partition", "heal", "set_latency")


@dataclass
class Scenario:
    nodes: int
    mode: str = "counter"
    schema: str = "bytes"
    topology: object = "mesh"  # "mesh" or explicit [a, b] edge list
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    events: list[dict] = field(default_factory=list)
    link: LinkConfig = field(default_factory=LinkConfig)
    serving_node: int = 1
    sync_interval_ms: int = 100
    service_ms: float = 0.05
    quiescence_s: float = 3.0

    def edges(self) -> list[tuple[int, int]]:
        ids = range(1, self.nodes + 1)
        if self.topology == "mesh":
            return [(a, b) for a in ids for b in ids if a < b]
        return [(int(a), int(b)) for a, b in self.topology]

    def validate(self) -> "Scenario":
        if self.nodes < 1:
            raise ValueError("a scenario needs at least one node")
        if self.mode not in ("counter", "hash") or self.schema not in ("bytes", "json"):
            raise ValueError(f"unknown mode/schema {self.mode}/{self.schema}")
        if not 1 <= self.serving_node <= self.nodes:
            raise ValueError("serving_node out of range")
        if self.sync_interval_ms < 10:
            raise ValueError("sync interval must be at least 10 ms")
        self.workload.validate()
        self.link.validate()
        for a, b in self.edges():
            if not (1 <= a <= self.nodes and 1 <= b <= self.nodes) or a == b:
                raise ValueError(f"edge ({a}, {b}) references a missing node")
        last_t = -1.0
        for event in self.events:
            if event.get("action") not in ACTIONS:
                raise ValueError(f"unknown event action {event.get('action')!r}")
            t = event.get("t_ms")
            if not isinstance(t, (int, float)) or t < last_t:
                raise ValueError("events must carry non-decreasing t_ms values")
            last_t = t
            args = event.get("args", {})
            referenced = [args[k] for k in ("node", "a", "b") if k in args]
            if not referenced and not args.get("all"):
                raise ValueError(f"event args {args!r} reference no node or link")
            for node_id in referenced:
                if not 1 <= node_id <= self.nodes:
                    raise ValueError(f"event references missing node {node_id}")
        return self


def scenario_from_dict(obj: dict) -> Scenario:
    known = {f for f in Scenario.__dataclass_fields__}
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    kwargs = dict(obj)
    if "workload" in kwargs:
        kwargs["workload"] = WorkloadConfig(**kwargs["workload"])
    if "link" in kwargs:
        kwargs["link"] = LinkConfig(**kwargs["link"])
    return Scenario(**kwargs).validate()


def load_scenario(path: str | Path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


@dataclass
class SimResult:
    records: list[MetricRecord]
    final_heads: dict[int, tuple[str, ...]]
    converged: bool
    converged_at_s: float | None
    network: SimNetwork
    nodes: dict[int, Node]
    scheduler: Scheduler

    def heads_equal(self) -> bool:
        return len(set(self.final_heads.values())) == 1


def _wire_request(req: Request, schema: str) -> dict:
    if req.op == "range":
        return {"id": req.request_id, "op": "range", "key": b64e(req.key)}
    payload = req.value
    if schema == "json":
        payload = json.dumps({"v": req.value.hex()}).encode()
    return {"id": req.request_id, "op": "put", "key": b64e(req.key), "value": b64e(payload)}


def run_scenario(scenario: Scenario, seed: int, out_path: str | Path | None = None) -> SimResult:
    scenario.validate()
    scheduler = Scheduler()
    network = SimNetwork(scheduler, scenario.edges(), scenario.link, seed)

    neighbours: dict[int, list[int]] = {i: [] for i in range(1, scenario.nodes + 1)}
    for a, b in scenario.edges():
        neighbours[a].append(b)
        neighbours[b].append(a)

    nodes: dict[int, Node] = {}
    state = {"converged_since": None}

    def check_convergence():
        if len({node.doc.heads for node in nodes.values()}) == 1:
            if state["converged_since"] is None:
                state["converged_since"] = scheduler.now
        else:
            state["converged_since"] = None

    for node_id in range(1, scenario.nodes + 1):
        node = Node(
            NodeConfig(
                node_id=node_id,
                mode=scenario.mode,
                schema=scenario.schema,
                peers={p: None for p in sorted(neighbours[node_id])},
                sync_interval_ms=scenario.sync_interval_ms,
            ),
            send=network.sender_for(node_id),
            clock=lambda: scheduler.now,
        )
        nodes[node_id] = node

        def peer_handler(msg, node=node):
            reply = node.handle_peer_message(msg)
            check_convergence()
            return reply

        network.connect(node_id, peer_handler)

    for node in nodes.values():
        node.register_member()

    requests = generate_requests(scenario.workload, seed)
    last_event_t = max((e["t_ms"] / 1000.0 for e in scenario.events), default=0.0)
    horizon = max(scenario.workload.duration_s, last_event_t) + scenario.quiescence_s

    # periodic sync: per (node, peer) repeating timers, on the same staggered
    # phases as a serving node's loop
    interval = scenario.sync_interval_ms / 1000.0

    def make_sync_tick(node, peer_id):
        def tick():
            node.sync_with(peer_id)
            if scheduler.now + interval <= horizon:
                scheduler.after(interval, tick)

        return tick

    for node_id, node in sorted(nodes.items()):
        for peer_id, phase in sync_phases(node.sync.peer_states, interval).items():
            scheduler.at(phase, make_sync_tick(node, peer_id))

    serving = nodes[scenario.serving_node]
    busy_until = {"t": 0.0}
    service_s = scenario.service_ms / 1000.0
    records: list[MetricRecord] = []

    def handle_request(req: Request):
        start = max(scheduler.now, busy_until["t"])
        complete = start + service_s
        busy_until["t"] = complete
        response = serving.dispatch(_wire_request(req, scenario.schema))
        status = "ok" if response.get("ok") else "error:" + response["error"]["code"]
        records.append(
            MetricRecord(
                request_id=req.request_id,
                op=req.op,
                issue_us=round(req.t_s * 1e6),
                complete_us=round(complete * 1e6),
                status=status,
                node=scenario.serving_node,
            )
        )
        check_convergence()

    for req in requests:
        scheduler.at(req.t_s, lambda req=req: handle_request(req))

    for event in scenario.events:
        action, args = event["action"], event.get("args", {})

        def fire(action=action, args=args):
            if action == "partition":
                network.set_partitioned(args, True)
            elif action == "heal":
                network.set_partitioned(args, False)
            else:
                network.set_latency(args)

        scheduler.at(event["t_ms"] / 1000.0, fire)

    scheduler.run()

    result = SimResult(
        records=records,
        final_heads={i: node.doc.heads for i, node in sorted(nodes.items())},
        converged=len({node.doc.heads for node in nodes.values()}) == 1,
        converged_at_s=state["converged_since"],
        network=network,
        nodes=nodes,
        scheduler=scheduler,
    )
    if out_path is not None:
        write_csv(out_path, records)
    return result
