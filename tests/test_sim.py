import math
import random

import pytest

from causal_kv.sim import (
    DelayModel,
    LinkConfig,
    MetricRecord,
    Scheduler,
    SimNetwork,
    WorkloadConfig,
    generate_requests,
    percentile,
    read_csv,
    render_summary,
    run_scenario,
    scenario_from_dict,
    summarize,
    write_csv,
)


# -- scheduler -----------------------------------------------------------------


def test_scheduler_orders_by_time_then_fifo():
    sched = Scheduler()
    seen = []
    sched.at(2.0, lambda: seen.append("late"))
    sched.at(1.0, lambda: seen.append("a"))
    sched.at(1.0, lambda: seen.append("b"))
    sched.run()
    assert seen == ["a", "b", "late"]
    assert sched.now == 2.0


def test_scheduler_run_until_bound():
    sched = Scheduler()
    seen = []
    sched.at(1.0, lambda: seen.append(1))
    sched.at(5.0, lambda: seen.append(5))
    sched.run(until=2.0)
    assert seen == [1]
    assert sched.now == 2.0
    assert sched.pending() == 1


# -- link delay model ------------------------------------------------------------


def test_zero_jitter_gives_constant_delay():
    model = DelayModel(LinkConfig(delay_ms=10.0), random.Random(1))
    assert {model.sample_ms() for _ in range(100)} == {10.0}


def test_jitter_bounds_hold():
    model = DelayModel(LinkConfig(delay_ms=10.0, jitter=0.1, correlation=0.25), random.Random(2))
    samples = [model.sample_ms() for _ in range(10_000)]
    assert all(9.0 <= s <= 11.0 for s in samples)


def pearson(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    vy = math.sqrt(sum((y - my) ** 2 for y in ys))
    return cov / (vx * vy)


def test_lag1_autocorrelation_tracks_the_configured_correlation():
    model = DelayModel(LinkConfig(delay_ms=10.0, jitter=0.1, correlation=0.25), random.Random(3))
    samples = [model.sample_ms() for _ in range(10_000)]
    assert abs(pearson(samples[:-1], samples[1:]) - 0.25) < 0.05


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(delay_ms=-1).validate()
    with pytest.raises(ValueError):
        LinkConfig(jitter=1.5).validate()


# -- workload ----------------------------------------------------------------------


def test_request_count_matches_rate_times_duration():
    reqs = generate_requests(WorkloadConfig(rate=1000, duration_s=5), seed=1)
    assert abs(len(reqs) - 5000) <= 1
    assert reqs[0].t_s == 0.0
    assert abs(reqs[-1].t_s - (len(reqs) - 1) / 1000) < 1e-9


def test_fixed_seed_reproduces_the_exact_stream():
    a = generate_requests(WorkloadConfig(), seed=7)
    b = generate_requests(WorkloadConfig(), seed=7)
    assert [(r.op, r.key, r.value) for r in a] == [(r.op, r.key, r.value) for r in b]
    c = generate_requests(WorkloadConfig(), seed=8)
    assert [(r.op, r.key) for r in a] != [(r.op, r.key) for r in c]


def test_read_fraction_is_binomially_close_to_half():
    reqs = generate_requests(WorkloadConfig(rate=2000, duration_s=5), seed=11)
    reads = sum(1 for r in reqs if r.op == "range") / len(reqs)
    assert 0.48 <= reads <= 0.52


def test_key_and_value_sizes():
    reqs = generate_requests(WorkloadConfig(key_size=18, value_size=32), seed=2)
    assert all(len(r.key) == 18 for r in reqs)
    assert all(len(r.value) == 32 for r in reqs if r.op == "put")


# -- metrics and report ---------------------------------------------------------------


def test_percentile_convention_on_1_to_100():
    values = list(range(1, 101))
    assert 50 <= percentile(values, 50) <= 51
    assert 99 <= percentile(values, 99) <= 100
    assert percentile(values, 1) < 3


def test_metrics_csv_round_trip(tmp_path):
    records = [
        MetricRecord(0, "put", 0, 1500, "ok", 1),
        MetricRecord(1, "range", 1000, 1800, "error:malformed", 1),
    ]
    path = tmp_path / "m.csv"
    write_csv(path, records)
    assert path.read_text().splitlines()[0] == "request_id,op,issue_us,complete_us,status,node"
    assert read_csv(path) == records


def test_summarize_all_success_and_failures_split():
    records = [MetricRecord(i, "put", i * 1000, i * 1000 + (i % 100 + 1) * 1000, "ok", 1) for i in range(100)]
    summary = summarize(records)
    assert summary["overall"]["success_fraction"] == 1.0
    assert 50 <= summary["overall"]["p50_ms"] <= 51
    records.append(MetricRecord(100, "put", 0, 10, "error:x", 1))
    summary = summarize(records)
    assert summary["overall"]["successes"] == 100
    assert summary["overall"]["success_fraction"] < 1.0


def test_render_summary_is_csv_with_overall_row():
    records = [MetricRecord(0, "put", 0, 1000, "ok", 1)]
    text = render_summary(summarize(records))
    lines = text.strip().splitlines()
    assert lines[0].startswith("window_s,requests")
    assert lines[-1].startswith("overall,")


# -- network -------------------------------------------------------------------------


def echo_network(link=None):
    sched = Scheduler()
    net = SimNetwork(sched, [(1, 2)], link or LinkConfig(delay_ms=10.0), seed=1)
    inbox = {1: [], 2: []}
    net.connect(1, lambda msg: inbox[1].append((sched.now, msg)) or None)
    net.connect(2, lambda msg: inbox[2].append((sched.now, msg)) or None)
    return sched, net, inbox


def test_messages_arrive_after_the_link_delay():
    sched, net, inbox = echo_network()
    net.send(1, 2, {"type": "ping"})
    sched.run()
    assert len(inbox[2]) == 1
    assert inbox[2][0][0] == pytest.approx(0.010)


def test_fifo_per_link_even_with_jitter():
    sched, net, inbox = echo_network(LinkConfig(delay_ms=10.0, jitter=1.0, correlation=0.0))
    for i in range(50):
        net.send(1, 2, {"type": "ping", "n": i})
        sched.run(until=sched.now + 0.0001)
    sched.run()
    assert [m["n"] for _, m in inbox[2]] == list(range(50))
    times = [t for t, _ in inbox[2]]
    assert times == sorted(times)


def test_partitioned_link_delivers_nothing_either_way():
    sched, net, inbox = echo_network()
    net.set_partitioned({"a": 1, "b": 2}, True)
    net.send(1, 2, {"type": "ping"})
    net.send(2, 1, {"type": "pong"})
    sched.run()
    assert inbox[1] == [] and inbox[2] == []
    sent, delivered = net.counts()
    assert (sent, delivered) == (2, 0)


def test_in_flight_messages_drop_when_cut_mid_flight():
    sched, net, inbox = echo_network()
    net.send(1, 2, {"type": "ping"})
    sched.at(0.001, lambda: net.set_partitioned({"node": 2}, True))
    sched.run()
    assert inbox[2] == []


def test_heal_restores_delivery_and_log_tracks_ground_truth():
    sched, net, inbox = echo_network()
    net.set_partitioned({"node": 1}, True)
    net.send(1, 2, {"type": "change", "change": {"hash": "aa"}})
    net.set_partitioned({"node": 1}, False)
    net.send(1, 2, {"type": "change", "change": {"hash": "bb"}})
    sched.run()
    assert [m["change"]["hash"] for _, m in inbox[2]] == ["bb"]
    assert net.delivered_changes_to(2) == {"bb"}


def test_send_outside_topology_is_a_config_error():
    sched, net, _ = echo_network()
    with pytest.raises(KeyError):
        net.send(1, 3, {"type": "ping"})


# -- scenarios ------------------------------------------------------------------------


def small_scenario(**overrides):
    base = dict(
        nodes=3,
        workload=dict(rate=200, duration_s=1.0, key_count=10),
        link=dict(delay_ms=10.0, jitter=0.1, correlation=0.25),
        quiescence_s=1.0,
    )
    base.update(overrides)
    return scenario_from_dict(base)


def test_scenario_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        scenario_from_dict({"nodes": 0})
    with pytest.raises(ValueError):
        scenario_from_dict({"nodes": 2, "mode": "paxos"})
    with pytest.raises(ValueError):
        scenario_from_dict({"nodes": 2, "events": [{"t_ms": 0, "action": "explode", "args": {"node": 1}}]})
    with pytest.raises(ValueError):
        scenario_from_dict({"nodes": 2, "events": [{"t_ms": 0, "action": "partition", "args": {"node": 9}}]})
    with pytest.raises(ValueError):
        scenario_from_dict(
            {
                "nodes": 2,
                "events": [
                    {"t_ms": 100, "action": "partition", "args": {"node": 1}},
                    {"t_ms": 50, "action": "heal", "args": {"node": 1}},
                ],
            }
        )
    with pytest.raises(ValueError):
        scenario_from_dict({"nodes": 2, "topology": [[1, 5]]})
    with pytest.raises(ValueError):
        scenario_from_dict({"nodes": 2, "bogus": 1})


def test_single_node_run_all_success_at_target_rate():
    result = run_scenario(scenario_from_dict({"nodes": 1, "workload": {"rate": 500, "duration_s": 1.0}}), seed=1)
    assert len(result.records) == 500
    assert all(r.ok for r in result.records)
    assert result.converged  # trivially: one node
    achieved = summarize(result.records)["overall"]["achieved_rate"]
    assert abs(achieved - 500) / 500 < 0.05  # achieved rate tracks the target


def test_three_node_run_converges_and_replicates():
    result = run_scenario(small_scenario(), seed=3)
    assert all(r.ok for r in result.records)
    assert result.converged
    assert len(set(result.final_heads.values())) == 1
    puts = sum(1 for r in result.records if r.op == "put")
    assert len(result.nodes[2].doc.changes) >= puts  # every update reached node 2


def test_same_seed_gives_identical_metrics_files(tmp_path):
    scenario = small_scenario()
    run_scenario(scenario, seed=42, out_path=tmp_path / "a.csv")
    run_scenario(small_scenario(), seed=42, out_path=tmp_path / "b.csv")
    run_scenario(small_scenario(), seed=43, out_path=tmp_path / "c.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_same_seed_gives_identical_final_heads():
    heads_a = run_scenario(small_scenario(), seed=9).final_heads
    heads_b = run_scenario(small_scenario(), seed=9).final_heads
    assert heads_a == heads_b


def test_partition_heal_scenario_stays_available_and_reconverges():
    scenario = small_scenario(
        workload=dict(rate=200, duration_s=2.0, key_count=10),
        events=[
            {"t_ms": 500, "action": "partition", "args": {"node": 1}},
            {"t_ms": 2000, "action": "heal", "args": {"node": 1}},
        ],
        quiescence_s=2.0,
    )
    result = run_scenario(scenario, seed=5)
    during = [r for r in result.records if 0.5e6 <= r.issue_us < 2.0e6]
    assert during and all(r.ok for r in during)
    assert result.converged
    assert result.converged_at_s >= 2.0  # cannot converge before the heal
    assert result.converged_at_s <= 2.0 + 1.0


def test_convergence_matrix_mesh_and_chain():
    # writes stop at 0.5s; convergence must land within diameter sync ticks
    interval_s = 0.1
    for kind in ("mesh", "chain"):
        for n in (1, 3, 5, 7, 9):
            topology = "mesh" if kind == "mesh" else [[i, i + 1] for i in range(1, n)]
            if kind == "chain" and n == 1:
                topology = "mesh"
            diameter = 1 if kind == "mesh" else n - 1
            scenario = scenario_from_dict(
                {
                    "nodes": n,
                    "topology": topology,
                    "workload": {"rate": 100, "duration_s": 0.5, "key_count": 5},
                    "link": {"delay_ms": 5.0},
                    "sync_interval_ms": 100,
                    "quiescence_s": diameter * interval_s + 1.0,
                }
            )
            result = run_scenario(scenario, seed=n)
            assert result.converged, f"{kind} n={n} diverged"
            if n > 1:
                bound = 0.5 + diameter * interval_s + 0.005 + 0.3  # stagger slack
                assert result.converged_at_s <= bound, (
                    f"{kind} n={n}: converged at {result.converged_at_s:.3f}s > {bound:.3f}s"
                )


def test_chain_topology_converges_transitively():
    scenario = scenario_from_dict(
        {
            "nodes": 3,
            "topology": [[1, 2], [2, 3]],
            "workload": {"rate": 100, "duration_s": 1.0, "key_count": 5},
            "link": {"delay_ms": 5.0},
            "quiescence_s": 2.0,
        }
    )
    result = run_scenario(scenario, seed=2)
    assert result.converged
    assert len(set(result.final_heads.values())) == 1


def test_sync_round_count_matches_interval_arithmetic():
    scenario = scenario_from_dict(
        {
            "nodes": 2,
            "workload": {"rate": 10, "duration_s": 5.0, "key_count": 5},
            "sync_interval_ms": 100,
            "quiescence_s": 0.0,
        }
    )
    result = run_scenario(scenario, seed=1)
    reqs_1_to_2 = sum(1 for r in result.network.log if r.kind == "sync_req" and r.src == 1 and r.dst == 2)
    assert abs(reqs_1_to_2 - 50) <= 1


def test_anti_entropy_round_sends_at_most_four_messages():
    # broadcasts still in flight under load must not turn a round into a ping-pong
    scenario = scenario_from_dict(
        {
            "nodes": 5,
            "workload": {"rate": 1000, "duration_s": 0.5},
            "link": {"delay_ms": 10.0, "jitter": 0.1},
            "quiescence_s": 0.5,
        }
    )
    result = run_scenario(scenario, seed=3)
    assert result.converged
    reqs, _ = result.network.counts("sync_req")
    resps, _ = result.network.counts("sync_resp")
    assert resps <= 3 * reqs, (resps, reqs)


def test_zero_peer_node_sends_no_messages():
    result = run_scenario(
        scenario_from_dict({"nodes": 1, "workload": {"rate": 100, "duration_s": 1.0}}), seed=1
    )
    assert result.network.log == []


def test_reads_send_no_peer_messages():
    scenario = small_scenario(workload=dict(rate=100, duration_s=1.0, read_fraction=1.0, key_count=5))
    result = run_scenario(scenario, seed=4)
    assert all(r.op == "range" for r in result.records)
    # the only broadcast changes are the three member registrations (one per
    # node, fanned out to two mesh peers each); reads add nothing
    boot_commits = [c for c in result.nodes[1].doc.changes.values() if c.actor == 1]
    assert len(boot_commits) == 1
    sent, _ = result.network.counts("change")
    assert sent == 6


def test_json_schema_scenario_round_trips():
    scenario = small_scenario(schema="json", workload=dict(rate=100, duration_s=1.0, key_count=5))
    result = run_scenario(scenario, seed=6)
    assert all(r.ok for r in result.records)
    assert result.converged
