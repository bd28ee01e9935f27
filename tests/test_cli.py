import json
import os
import socket
import subprocess
import sys
import time

import pytest

import causal_kv
from causal_kv.bench import run_bench
from causal_kv.cli import build_parser, main, parse_address, parse_peer
from causal_kv.sim.metrics import read_csv
from causal_kv.sim.workload import WorkloadConfig


def test_parse_address_and_peer():
    assert parse_address("127.0.0.1:2379") == ("127.0.0.1", 2379)
    assert parse_peer("2=10.0.0.5:7000") == (2, ("10.0.0.5", 7000))
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_address("nonsense")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_peer("nope")


def test_parser_accepts_the_documented_flags():
    parser = build_parser()
    args = parser.parse_args(
        [
            "serve",
            "--node-id", "1",
            "--mode", "hash",
            "--schema", "json",
            "--listen", "127.0.0.1:3000",
            "--peer", "2=127.0.0.1:3001",
            "--peer", "3=127.0.0.1:3002",
            "--data-dir", "/tmp/x",
            "--sync-interval-ms", "250",
            "--fsync", "on",
        ]
    )
    assert args.node_id == 1
    assert dict(args.peer) == {2: ("127.0.0.1", 3001), 3: ("127.0.0.1", 3002)}
    args = parser.parse_args(["sim", "--scenario", "s.json", "--seed", "9", "--out", "m.csv"])
    assert args.seed == 9
    args = parser.parse_args(
        ["bench", "--target", "127.0.0.1:2379", "--rate", "500", "--duration-s", "2",
         "--keys", "10", "--key-size", "18", "--value-size", "32", "--seed", "1", "--out", "b.csv"]
    )
    assert args.key_size == 18


def test_sim_command_end_to_end(tmp_path, capsys):
    scenario = {
        "nodes": 3,
        "mode": "counter",
        "workload": {"rate": 200, "duration_s": 1.0, "key_count": 10},
        "link": {"delay_ms": 5.0},
        "quiescence_s": 1.0,
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    out = tmp_path / "metrics.csv"
    code = main(["sim", "--scenario", str(scenario_path), "--seed", "5", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "verdict: converged" in printed
    assert "node 1 heads:" in printed
    assert len(read_csv(out)) == 200


def test_report_command(tmp_path, capsys):
    out = tmp_path / "m.csv"
    out.write_text(
        "request_id,op,issue_us,complete_us,status,node\n"
        "0,put,0,1000,ok,1\n"
        "1,range,1000,2500,ok,1\n"
    )
    assert main(["report", "--in", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("window_s,requests")
    assert "overall,2,2,1" in printed


def test_serve_and_bench_over_loopback(tmp_path):
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    # the server process imports causal_kv from where this process found it
    src = os.path.dirname(os.path.dirname(causal_kv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "causal_kv.cli",
            "serve", "--node-id", "1", "--listen", f"127.0.0.1:{port}",
            "--data-dir", str(tmp_path / "data"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
    )
    try:
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                probe = socket.create_connection(("127.0.0.1", port), timeout=0.2)
                probe.close()
                break
            except OSError:
                time.sleep(0.05)
        else:
            raise AssertionError("server never came up")

        records = run_bench(
            ("127.0.0.1", port),
            WorkloadConfig(rate=200, duration_s=1.0, key_count=10),
            seed=3,
            out_path=tmp_path / "bench.csv",
        )
        assert len(records) == 200
        ok = [r for r in records if r.ok]
        assert len(ok) / len(records) > 0.99
        assert (tmp_path / "bench.csv").exists()
    finally:
        proc.terminate()
        proc.wait(timeout=5)
