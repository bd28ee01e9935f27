"""causal-kv command line: serve a node, run simulations, benchmark, report."""

from __future__ import annotations

import argparse
import sys

from .node import NodeConfig
from .sim.harness import load_scenario, run_scenario
from .sim.metrics import read_csv, render_summary, summarize
from .sim.workload import WorkloadConfig


def parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"address must be host:port, got {text!r}")
    return host, int(port)


def parse_peer(text: str) -> tuple[int, tuple[str, int]]:
    peer_id, _, addr = text.partition("=")
    if not peer_id.isdigit() or not addr:
        raise argparse.ArgumentTypeError(f"peer must be ID=host:port, got {text!r}")
    return int(peer_id), parse_address(addr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="causal-kv")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run one datastore node")
    serve.add_argument("--node-id", type=int, required=True)
    serve.add_argument("--mode", choices=["counter", "hash"], default="counter")
    serve.add_argument("--schema", choices=["bytes", "json"], default="bytes")
    serve.add_argument("--listen", type=parse_address, default=("127.0.0.1", 2379))
    serve.add_argument("--peer", type=parse_peer, action="append", default=[], metavar="ID=ADDR")
    serve.add_argument("--data-dir", default=None)
    serve.add_argument("--sync-interval-ms", type=int, default=100)
    serve.add_argument("--fsync", choices=["on", "off"], default="off")

    sim = sub.add_parser("sim", help="run a deterministic simulated scenario")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)

    bench = sub.add_parser("bench", help="open-loop load against a live node")
    bench.add_argument("--target", type=parse_address, required=True)
    bench.add_argument("--rate", type=float, default=1000.0)
    bench.add_argument("--duration-s", type=float, default=5.0)
    bench.add_argument("--keys", type=int, default=100)
    bench.add_argument("--key-size", type=int, default=18)
    bench.add_argument("--value-size", type=int, default=32)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)

    report = sub.add_parser("report", help="summarize a metrics CSV")
    report.add_argument("--in", dest="in_path", required=True)

    return parser


def cmd_serve(args) -> int:
    from .server import Server

    server = Server(
        NodeConfig(
            node_id=args.node_id,
            mode=args.mode,
            schema=args.schema,
            peers=dict(args.peer),
            data_dir=args.data_dir,
            fsync=args.fsync == "on",
            sync_interval_ms=args.sync_interval_ms,
            client_urls=[f"tcp://{args.listen[0]}:{args.listen[1]}"],
        ),
        *args.listen,
    )
    server.node.register_member()
    print(f"node {args.node_id} ({args.mode}/{args.schema}) listening on {args.listen[0]}:{args.listen[1]}")
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_sim(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_scenario(scenario, args.seed, out_path=args.out)
    summary = summarize(result.records)["overall"]
    print(f"requests={summary['requests']} success_fraction={summary['success_fraction']:.4f}")
    for node_id, heads in result.final_heads.items():
        print(f"node {node_id} heads: {' '.join(h[:12] for h in heads)}")
    verdict = "converged" if result.converged else "DIVERGED"
    when = f" at t={result.converged_at_s:.3f}s" if result.converged_at_s is not None else ""
    print(f"verdict: {verdict}{when}")
    print(f"metrics written to {args.out}")
    return 0 if result.converged else 1


def cmd_bench(args) -> int:
    from .bench import run_bench

    workload = WorkloadConfig(
        rate=args.rate,
        duration_s=args.duration_s,
        key_count=args.keys,
        key_size=args.key_size,
        value_size=args.value_size,
    )
    records = run_bench(args.target, workload, args.seed, out_path=args.out)
    print(render_summary(summarize(records)), end="")
    return 0


def cmd_report(args) -> int:
    records = read_csv(args.in_path)
    print(render_summary(summarize(records)), end="")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"serve": cmd_serve, "sim": cmd_sim, "bench": cmd_bench, "report": cmd_report}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
