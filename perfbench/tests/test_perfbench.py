"""Tests of the benchmark's tracer, input generator and metric lists.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import orbitcoh.cli as cli  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_calls():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        inner_w()
        inner_w()
        now[0] += 4.0

    inner_w = t.wrap("inner", inner)
    t.wrap("outer", outer)()
    assert list(t.parent) == [-1, 0, 0]
    assert tracer.self_times(t.parent, t.start, t.end) == [5.0, 2.0, 2.0]
    summary = tracer.summarize(t.names, t.span_name, t.parent, t.start, t.end)
    assert summary == {"inner": {"calls": 2, "self_s": 4.0},
                       "outer": {"calls": 1, "self_s": 5.0}}


def test_span_closes_when_the_call_raises():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = t.wrap("boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert len(t.start) == 1 and t.end[0] >= t.start[0]
    assert t._open == [-1]


def test_counters_see_arguments_and_result():
    t = tracer.Tracer()
    t.wrap("f", lambda x: x * 2, lambda c, args, res: layers._add(c, "n", res))(5)
    assert t.counters == {"n": 10}


def _bindings():
    """Every callable each orbitcoh module or class binds, by identity."""
    import orbitcoh
    mods = [m for name, m in sys.modules.items()
            if name == "orbitcoh" or name.startswith("orbitcoh.")]
    out = {}
    for mod in mods:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("orbitcoh"):
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
    assert orbitcoh
    return out


def test_wrappers_installed_everywhere_and_restored(tmp_path):
    import orbitcoh.orbit as orbit
    import orbitcoh.ring as ring

    before = _bindings()
    t = tracer.Tracer()
    try:
        with t.installed(layers.tracer_targets()):
            assert ring.join_theta is not before[("orbitcoh.ring", "join_theta")]
            assert ring.join_theta is orbit.join_theta
            assert cli.dumps.__wrapped__ is before[("orbitcoh.jsonio", "dumps")]
            assert cli.verify_full.__wrapped__ is before[("orbitcoh.verify", "verify_full")]
            raise RuntimeError("leave the block early")
    except RuntimeError:
        pass
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_missing_target_is_skipped():
    t = tracer.Tracer()
    assert not t.patch("orbitcoh.orbit", "no_such_function", "x")
    assert not t.patch("orbitcoh.orbit", "Graph.no_such_method", "x")
    assert t._patches == []


def _cli_bytes(argv, out):
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def test_traced_outputs_identical_to_untraced(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[1, 3], [2, 3]]}))
    cases = [["ring", "--graph", str(graph), "--k", "2", "--m", "2"],
             ["verify", "--complete", "2", "--k", "2", "--m", "2"],
             ["betti", "--graph", str(graph), "--k", "3", "--m", "2"]]
    for n, argv in enumerate(cases):
        plain = _cli_bytes(argv, tmp_path / f"plain{n}.json")
        t = tracer.Tracer()
        with t.installed(layers.tracer_targets()):
            traced = _cli_bytes(argv, tmp_path / f"traced{n}.json")
        assert traced == plain
        assert len(t.start) > 0


def test_traced_child_writes_spans(tmp_path):
    spans = tmp_path / "s.spans"
    out = tmp_path / "out.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace", str(spans), "7",
         "ring", "--complete", "2", "--k", "2", "--m", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    head, names, parents, starts, ends = tracer.load_spans(spans)
    assert head["invocation"] == 7 and head["exit_code"] == 0
    assert len(names) == head["spans"] > 0
    summary = tracer.summarize(head["names"], names, parents, starts, ends)
    traced = layers.aggregate([(summary, head["counters"])])
    assert traced["calls"]["cli.self"] == 1
    assert traced["counters"]["out_bytes"] == len(out.read_bytes())
    # every span lies inside the one cli.main span
    total = sum(entry["self_s"] for entry in summary.values())
    root = [i for i, p in enumerate(parents) if p < 0]
    assert len(root) == 1
    assert abs(total - (ends[root[0]] - starts[root[0]])) < 1e-9


def test_seed_zero_is_identity_and_relabeling_keeps_structure():
    n, edges = workloads.path(4)
    assert workloads.relabel_graph(n, edges, 0, "k") == {
        "n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}
    moved = workloads.relabel_graph(n, edges, 5, "k")
    assert moved == workloads.relabel_graph(n, edges, 5, "k")
    degrees = sorted(sum(v in e for e in moved["edges"]) for v in range(1, 5))
    assert degrees == [1, 1, 2, 2]

    data = json.loads((workloads.DATA / "lkm-K3-k3-m2.json").read_text())
    same, g0 = workloads.rename_lattice(data, 0, "k")
    assert sorted(same["elements"]) == sorted(data["elements"])
    poset, g = workloads.rename_lattice(data, 3, "k")
    assert len(poset["covers"]) == len(data["covers"])
    assert sorted(poset["rank"]) == sorted(data["rank"])
    assert sum(g["ranks"]) == sum(g0["ranks"]) == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    per_layer.update(run.TRACE_EXTRA)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(spec["paths"]) == {"perfbench"}


def test_gate_fails_timeouts_exit_codes_and_wrong_facts(tmp_path):
    import gate

    expected = gate.load_expected()
    inv = workloads.Invocation("ring-K3-k2-m2", "ring", [], [])
    want = expected[inv.key]["facts"]
    out = tmp_path / "out.json"
    payload = {"poincare": want["poincare"], "basis": [{}] * want["basis_size"],
               "gradings": dict.fromkeys(range(want["gradings"])),
               "products": [[]] * want["nonzero_products"]}
    out.write_text(json.dumps(payload))
    stdout = f"wrote {out}\n"
    assert gate.check(inv, out, 1, 0, stdout, expected) == "ok"
    assert gate.check(inv, out, 0, 0, stdout, expected).startswith("sha256")
    assert gate.check(inv, out, 1, "timeout", stdout, expected) == "timeout"
    assert gate.check(inv, out, 1, 3, stdout, expected) == "exit code 3"
    assert gate.check(inv, out, 1, 0, "", expected).startswith("unexpected stdout")
    payload["poincare"] = payload["poincare"][:-1]
    out.write_text(json.dumps(payload))
    assert gate.check(inv, out, 1, 0, stdout, expected).startswith("poincare")


def test_times_are_scaled_by_the_reference_children_around_them():
    ref = run.Child(0, run.REF_S, run.REF_S, 10.0)
    slow_ref = run.Child(0, 2 * run.REF_S, 2 * run.REF_S, 10.0)
    child = run.Child(0, 3.0, 2.5, 50.0)
    assert run.scaled(child, ref, ref) == pytest.approx((3.0, 2.5))
    # a host running at half speed doubles both the child and the reference
    slow = run.Child(0, 6.0, 5.0, 50.0)
    assert run.scaled(slow, slow_ref, slow_ref) == pytest.approx((3.0, 2.5))
    assert run.scaled(child, ref, slow_ref) == pytest.approx((2.0, 2.5 / 1.5))


def test_reference_child_prints_its_checksum():
    proc = subprocess.run([sys.executable, str(run.REFERENCE)], capture_output=True,
                          text=True, env={"PYTHONHASHSEED": "0"}, check=True)
    import reference

    assert tuple(map(int, proc.stdout.split())) == reference.EXPECTED
