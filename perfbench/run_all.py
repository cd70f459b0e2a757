"""Run every workload and print each metric by name, with its unit.

    python3 perfbench/run_all.py --seed 1 --seconds 20

For each workload, one process at a time: an untraced run, which gives
the end-to-end metrics, then two traced runs with the same seed.  The
per-layer metrics of the first traced run are printed, and the counts of
the two are compared (the count-determinism check): a count that does
not repeat exactly is flagged, and later changes may not cite it.  The
metric names are checked against BENCHMARK.json.  Exits 1 when a run
fails, an answer check fails, a count is flagged or a name is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("divide_mix", "factor_cli", "coxeter_mix")
COUNT_SUFFIXES = (".calls", ".builds", ".constraints_in", ".rays_out",
                  ".intersections", "quadext.ops")


def is_count(name):
    return name.endswith(COUNT_SUFFIXES) or name.startswith("cli.exit.")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join("  # " + line for line in lines[:2]))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for workload in WORKLOADS:
        print(f"== {workload} (seed {args.seed})")
        results = [run(workload, args.seed, args.seconds, trace)
                   for trace in (0, 1, 1)]
        for res, kind in zip(results, ("end_to_end", "per_layer", None)):
            ok &= res["correct"]
            if kind is None:
                continue
            want = [m["name"] for m in spec[kind]]
            if sorted(want) != sorted(res["metrics"]):
                print(f"  metric names differ from BENCHMARK.json {kind}")
                ok = False
            for name in want:
                m = res["metrics"].get(name, {"value": float("nan"),
                                              "unit": "?"})
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
            print(f"  failed {res['failed']} of {res['attempted']}")
        first, second = (r["metrics"] for r in results[1:])
        flagged = [name for name in first if is_count(name)
                   and first[name]["value"] != second[name]["value"]]
        for name in flagged:
            print(f"  NOT REPEATABLE {name}: {first[name]['value']} vs "
                  f"{second[name]['value']}")
        print(f"  count determinism: "
              f"{'FLAGGED' if flagged else 'all counts repeat'}")
        ok &= not flagged
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
