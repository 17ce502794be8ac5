#!/usr/bin/env python3
"""Median, quartiles and spread of saved benchmark runs, per workload and metric.

    python3 perfbench/run.py --workload W --seed S --seconds 40 --trace 0 > runs/W-S.txt
    python3 perfbench/summarize.py runs/*.txt [--out summary.json]

Each input file is the stdout of one run. Spread is (q3 - q1) / median with
quartiles from statistics.quantiles(values, n=4). Compare two commits by
summarizing each side's runs separately.
"""
import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        lines = f.read().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return info, result


def summarize(paths):
    groups = {}
    for path in paths:
        info, result = load(path)
        key = f"{info['workload']} trace={info['trace']}"
        g = groups.setdefault(key, {"spec": info["spec"], "provenance": info["provenance"],
                                    "runs": [], "metrics": {}})
        g["runs"].append({"seed": info["seed"], "correct": result["correct"],
                          "attempted": result["attempted"], "failed": result["failed"],
                          "test_rho": info["checked"]["test_rho"]})
        for name, m in result["metrics"].items():
            g["metrics"].setdefault(name, {"unit": m["unit"], "values": []})
            g["metrics"][name]["values"].append(m["value"])
    for g in groups.values():
        for m in g["metrics"].values():
            v = m["values"]
            m["median"] = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                m["q1"], m["q3"] = q1, q3
                m["spread"] = (q3 - q1) / m["median"] if m["median"] else None
    return groups


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--out", help="also write the summary as JSON")
    args = parser.parse_args()
    groups = summarize(args.files)
    for key, g in groups.items():
        failed = sum(r["failed"] for r in g["runs"])
        attempted = sum(r["attempted"] for r in g["runs"])
        print(f"{key}: {len(g['runs'])} runs, {failed}/{attempted} ops failed")
        for name, m in g["metrics"].items():
            spread = m.get("spread")
            spread = f"{spread:7.4f}" if spread is not None else "    n/a"
            print(f"  {name:36s} {m['median']:14.6g} {m['unit']:10s} spread {spread}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(groups, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
