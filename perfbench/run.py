"""Benchmark of the orbitcoh command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
``src`` there, so nothing is built or installed.  Each invocation of the
CLI is a child process, one at a time; wall time, CPU time and peak RSS
come from that child's own rusage (``os.wait4``).  Every invocation
passes through the correctness gate (``gate.py``).

The host is a shared VM whose speed swings by a quarter within seconds
and drifts for minutes, so every timed child runs between two children
of ``reference.py``, a fixed computation that does not use the program.
The end-to-end times are scaled to a host on which that computation
takes ``REF_S`` seconds: a child's time times ``REF_S`` over the mean
time of the two reference children around it.  A slower program still
reads slower; a slower host mostly does not.

A run writes its inputs for the seed, times ``SETUP_RUNS`` set-up
children, then repeats the workload (all of its invocations in
sequence) until ``--seconds`` have passed.  With ``--trace 0`` it prints
the end-to-end metrics as medians over those repetitions.  With
``--trace 1`` it alternates untraced repetitions with traced ones, where
each invocation runs in-process under the span tracer, and prints the
per-layer metrics together with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name the workload and seed and give every metric with its unit.
A record of the run, seed included, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import layers
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9
REFERENCE = HERE / "reference.py"
# wall time of reference.py on the baseline host while it was quiet; the
# end-to-end times are scaled to a host of that speed
REF_S = 0.300
CHILD_TIMEOUT_S = 60.0
# no repetition starts after this many seconds, whatever --seconds says
DEADLINE_S = 120.0
CLI = "import sys; from orbitcoh.cli import main; sys.exit(main())"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_EXTRA = [("trace.overhead_s", "s"), ("trace.spans", "count"),
               ("gate.fail_frac", "ratio")]


@dataclass
class Child:
    code: object     # exit code, or "timeout"
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(cmd, env, out_path: Path, err_path: Path) -> Child:
    """Run one child to its end; its cost comes from its own rusage."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
            finally:
                os.close(fd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child("timeout" if not ready else proc.returncode, wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        self.ref_env = dict(self.env, PYTHONHASHSEED="0")
        self.expected = gate.load_expected()
        self.invocations = workloads.generate(workload, seed, work)
        self.records: list[dict] = []
        self.refs: list[float] = []
        self.digests: dict[str, str] = {}

    def _run(self, inv, cmd, out: Path, tag: str) -> Child:
        log = self.work / f"{inv.key}.{tag}"
        child = run_child(cmd, self.env, Path(f"{log}.stdout"), Path(f"{log}.stderr"))
        stdout = Path(f"{log}.stdout").read_text(errors="replace")
        verdict = gate.check(inv, out, self.seed, child.code, stdout, self.expected)
        if verdict == "ok" and tag == "traced" and gate.sha256(out) != self.digests.get(inv.key):
            verdict = "traced output differs from the untraced output"
        if verdict == "ok" and tag == "untraced":
            self.digests[inv.key] = gate.sha256(out)
        self.records.append({"invocation": inv.key, "mode": tag, "exit": child.code,
                             "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                             "rss_mb": child.rss_mb, "gate": verdict})
        return child

    def reference(self) -> Child:
        child = run_child([sys.executable, str(REFERENCE)], self.ref_env,
                          self.work / "reference.stdout", self.work / "reference.stderr")
        if child.code != 0:
            raise SystemExit(f"reference child failed with exit code {child.code}")
        self.refs.append(child.wall_s)
        return child

    def setup(self) -> list[dict]:
        """Set-up times of ``SETUP_RUNS`` children, raw and scaled."""
        specs = [spec for inv in self.invocations for spec in inv.inputs]
        cmd = [sys.executable, str(HERE / "child.py"), "setup", *specs]
        times = []
        # the first set-up child writes the bytecode cache, so it is not timed
        before = None
        for _ in range(SETUP_RUNS + 1):
            child = run_child(cmd, self.env, self.work / "setup.stdout",
                              self.work / "setup.stderr")
            if child.code != 0:
                raise SystemExit(f"set-up child failed with exit code {child.code}")
            after = self.reference()
            if before is not None:
                times.append({"setup_s": scaled(child, before, after)[0],
                              "raw_s": child.wall_s})
            before = after
        return times

    def untraced(self) -> dict:
        rep = dict.fromkeys(("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s"), 0.0)
        rep["peak_rss_mb"] = 0.0
        before = self.reference()
        for inv in self.invocations:
            out = self.work / f"{inv.key}.out.json"
            child = self._run(inv, [sys.executable, "-c", CLI, *inv.argv(out)],
                              out, "untraced")
            after = self.reference()
            wall, cpu = scaled(child, before, after)
            rep["wall_s"] += wall
            rep["cpu_s"] += cpu
            rep["raw_wall_s"] += child.wall_s
            rep["raw_cpu_s"] += child.cpu_s
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], child.rss_mb)
            before = after
        return rep

    def traced(self) -> tuple[float, dict]:
        wall = 0.0
        summaries = []
        spans = 0
        for n, inv in enumerate(self.invocations):
            out = self.work / f"{inv.key}.traced.json"
            spans_file = self.work / f"{inv.key}.spans"
            cmd = [sys.executable, str(HERE / "child.py"), "trace", str(spans_file),
                   str(n), *inv.argv(out)]
            child = self._run(inv, cmd, out, "traced")
            wall += child.wall_s
            if child.code == 0:
                head, *arrays = tracer.load_spans(spans_file)
                summaries.append((tracer.summarize(head["names"], *arrays),
                                  head["counters"]))
                spans += head["spans"]
                spans_file.unlink()
        metrics = layers.layer_metrics(layers.aggregate(summaries))
        metrics["trace.spans"] = spans
        return wall, metrics

    def failed(self) -> int:
        return sum(1 for r in self.records if r["gate"] != "ok")


def scaled(child: Child, before: Child, after: Child) -> tuple[float, float]:
    """Wall and CPU time of ``child`` at the reference speed of the host.

    The host's speed comes from the reference children run just before
    and just after it.
    """
    return (child.wall_s * 2 * REF_S / (before.wall_s + after.wall_s),
            child.cpu_s * 2 * REF_S / (before.cpu_s + after.cpu_s))


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(bench: Bench, seconds: float, trace: bool, started: float):
    setup = bench.setup()
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        untraced.append(bench.untraced())
        if trace:
            traced.append(bench.traced())
        now = time.perf_counter()
        if now - t0 >= seconds or now - started >= DEADLINE_S:
            return setup, untraced, traced


def report(bench: Bench, setup, untraced, traced) -> dict:
    walls = [it["wall_s"] for it in untraced]
    raw = {name: statistics.median(it[f"raw_{name}"] for it in untraced)
           for name in ("wall_s", "cpu_s")}
    tail = tail_percentile(walls)
    lines = [f"workload {bench.workload} seed {bench.seed}: "
             f"{len(untraced)} untraced and {len(traced)} traced repetitions of "
             f"{len(bench.invocations)} invocations",
             f"wall_s over {len(walls)} samples: median {statistics.median(walls):.4f} s, "
             + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                "no tail percentile (fewer than 11 samples)"),
             f"unscaled medians: wall_s {raw['wall_s']:.4f} s, cpu_s {raw['cpu_s']:.4f} s, "
             f"setup_s {statistics.median(s['raw_s'] for s in setup):.4f} s; "
             f"reference child median {statistics.median(bench.refs):.4f} s over "
             f"{len(bench.refs)} runs (REF_S {REF_S} s)"]
    if traced:
        metrics = {name: statistics.median_low(m[name] for _, m in traced)
                   for name in traced[0][1]}
        # each traced repetition ran right after an untraced one, so the
        # pairwise difference cancels most of the host's drift
        metrics["trace.overhead_s"] = statistics.median(
            w - plain["raw_wall_s"] for (w, _), plain in zip(traced, untraced))
        metrics["gate.fail_frac"] = bench.failed() / len(bench.records)
        units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
        units.update(TRACE_EXTRA)
    else:
        metrics = {name: statistics.median(it[name] for it in untraced)
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setup)
        units = END_TO_END
    for name, value in metrics.items():
        lines.append(f"{name} = {value} {units[name]}")
    lines.append(f"failed {bench.failed()} of {len(bench.records)} invocations")
    for r in bench.records:
        if r["gate"] != "ok":
            lines.append(f"FAIL {r['invocation']} ({r['mode']}): {r['gate']}")
    print("\n".join(lines))
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not Path("src/orbitcoh/cli.py").is_file():
        print("error: run from the root of an orbitcoh source checkout "
              "(src/orbitcoh/cli.py not found)", file=sys.stderr)
        return 2
    work = Path(".perfbench_work") / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        setup, untraced, traced = measure(bench, args.seconds, bool(args.trace), started)
        metrics = report(bench, setup, untraced, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = bench.failed()
    result = {"correct": failed == 0, "attempted": len(bench.records),
              "failed": failed, "metrics": metrics}
    record = Path(".perfbench_out") / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "ref_s": REF_S,
                                  "setup": setup, "reference_wall_s": bench.refs,
                                  "repetitions": untraced,
                                  "invocations": bench.records, "result": result},
                                 indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
