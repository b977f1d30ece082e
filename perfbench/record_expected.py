"""Write expected.json from the seed-0 outputs of the program in ``src``.

    python3 perfbench/record_expected.py

Run it from the root of a source checkout, only when a workload is added
or changed: the gate then holds later commits to these digests and facts.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import gate
import run
import workloads


def main() -> int:
    work = Path(".perfbench_work") / "record"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    expected = {}
    try:
        for name in workloads.WORKLOADS:
            for inv in workloads.generate(name, 0, work):
                out = work / f"{inv.key}.out.json"
                child = run.run_child([sys.executable, "-c", run.CLI, *inv.argv(out)],
                                      env, work / "stdout", work / "stderr")
                if child.code != 0:
                    print(f"{inv.key}: exit code {child.code}", file=sys.stderr)
                    return 1
                expected[inv.key] = {
                    "sha256_seed0": gate.sha256(out),
                    "facts": gate.facts(inv.command, json.loads(out.read_text())),
                }
                print(f"{inv.key}: {child.wall_s:.2f} s, {child.rss_mb:.0f} MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
