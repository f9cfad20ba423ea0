#!/usr/bin/env python3
"""A/B comparison of two commits on this host with identical benchmark code.

    python3 perfbench/ab.py [--base REV] [--change REV] [--workload NAME ...]
                            [--pairs N] [--trace 0|1]

Each commit is exported with `git archive` (local, no network) into
perfbench/out/ab/<side>, its perfbench/ and BENCHMARK.json are replaced by
the current ones, and it is built with its own CARGO_TARGET_DIR. The two
binaries then run in alternating order over N pairs (default 10), both
sides of a pair on the same seed and for BENCHMARK.json's run_seconds.
For every metric the report gives each
side's median and quartiles, the change's share of pairs won (ties count
for neither) and a verdict:

* gain        the change wins at least 9/10 of the pairs and the medians
              differ by more than the base's quartile spread;
* regressed   the change's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json;
* unresolved  the base's own spread is wider than the bound and not every
              change run beats every base run;
* same        none of the above.

Output digests are compared per seed: a speed-only change must leave them
identical. The summary is also written to perfbench/out/ab/summary.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Pair i runs both sides on seed SEED0 + i.
SEED0 = 1000


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True).stdout


def export(repo, rev, dest):
    """Writes the files of commit `rev` to `dest`, then the current benchmark."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=git("archive", rev, cwd=repo), check=True)
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "target", "Cargo.lock"))
    shutil.copy(os.path.join(repo, "BENCHMARK.json"), dest)


def build(tree):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    subprocess.run(["cargo", "build", "--release", "--quiet", "--offline",
                    "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml"),
                    "--bin", "perfbench"], cwd=tree, env=env, check=True)
    return os.path.join(tree, ".bench_build", "release", "perfbench")


def run(side, workload, seed, seconds, trace):
    env = dict(os.environ, BENCH_COMMIT=side["commit"])
    out = subprocess.run([side["bin"], "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=side["tree"], env=env, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    digest = next((l.split("fnv1a=")[1] for l in lines if l.startswith("digest ")), None)
    host = next((l[5:] for l in lines if l.startswith("host ")), None)
    ok = out.returncode == 0 and result.get("correct") is True
    if not ok:
        sys.stderr.write(out.stderr)
    return {"ok": ok, "digest": digest, "host": host,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def verdict(base, change, better, bound, wins, pairs):
    sign = 1 if better == "higher" else -1
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q = statistics.quantiles(base, n=4) if len(base) > 1 else [b_med] * 3
    spread = b_q[2] - b_q[0]
    if wins >= 0.9 * pairs and abs(c_med - b_med) > spread and sign * (c_med - b_med) > 0:
        return "gain"
    if bound is None or b_med == 0:
        return "same"
    if sign * (b_med - c_med) / abs(b_med) > bound:
        return "regressed"
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if spread / abs(b_med) > bound and not all_better:
        return "unresolved"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD^")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    repo = git("rev-parse", "--show-toplevel", cwd=HERE).decode().strip()
    spec = json.load(open(os.path.join(repo, "BENCHMARK.json")))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: m for m in section}
    if args.pairs < 10:
        print(f"warning: {args.pairs} pairs; a gain needs at least 10", file=sys.stderr)

    out_dir = os.path.join(HERE, "out", "ab")
    sides = {}
    for name, rev in (("base", args.base), ("change", args.change)):
        commit = git("rev-parse", "--verify", rev + "^{commit}", cwd=repo).decode().strip()
        tree = os.path.join(out_dir, name)
        print(f"{name}: {rev} = {commit}; building in {tree}", file=sys.stderr)
        export(repo, commit, tree)
        sides[name] = {"commit": commit, "tree": tree, "bin": build(tree)}

    summary = {"base": sides["base"]["commit"], "change": sides["change"]["commit"],
               "pairs": args.pairs, "seconds": seconds, "trace": args.trace,
               "workloads": {}}
    for w in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = SEED0 + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for name in order:
                r = run(sides[name], w, seed, seconds, args.trace)
                summary.setdefault("host", r["host"])
                runs[name].append(r)
                print(f"{w} pair {i} seed {seed} {name}: ok={r['ok']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items()),
                      file=sys.stderr)
        rows = {}
        for m, meta in metrics.items():
            b = [r["metrics"][m] for r in runs["base"] if m in r["metrics"]]
            c = [r["metrics"][m] for r in runs["change"] if m in r["metrics"]]
            if len(b) != args.pairs or len(c) != args.pairs:
                continue
            sign = 1 if meta["better"] == "higher" else -1
            wins = sum(1 for x, y in zip(c, b) if sign * (x - y) > 0)
            q = lambda v: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            rows[m] = {
                "unit": meta["unit"], "better": meta["better"], "bound": meta.get("bound"),
                "base_q": q(b), "change_q": q(c),
                "base_median": statistics.median(b), "change_median": statistics.median(c),
                "change_win_share": wins / args.pairs,
                "verdict": verdict(b, c, meta["better"], meta.get("bound"), wins, args.pairs),
            }
        digests_equal = [rb["digest"] == rc["digest"]
                         for rb, rc in zip(runs["base"], runs["change"])]
        failed = sum(not r["ok"] for side in runs.values() for r in side)
        summary["workloads"][w] = {"metrics": rows, "failed_runs": failed,
                                   "digests_identical": all(digests_equal)}

    print(f"host {summary.get('host')}")
    print(f"base {summary['base']}  change {summary['change']}  "
          f"{args.pairs} pairs x {seconds}s, trace={args.trace}")
    for w, res in summary["workloads"].items():
        print(f"\n{w}: failed runs {res['failed_runs']}, "
              f"output digests {'identical' if res['digests_identical'] else 'DIFFER'}")
        print(f"  {'metric':<36} {'base median [q1,q3]':>34} {'change median [q1,q3]':>34}"
              f" {'ratio':>7} {'wins':>5}  verdict")
        for m, r in res["metrics"].items():
            fmt = lambda med, qs: f"{med:.5g} [{qs[0]:.5g},{qs[2]:.5g}]"
            ratio = r["change_median"] / r["base_median"] if r["base_median"] else float("nan")
            print(f"  {m:<36} {fmt(r['base_median'], r['base_q']):>34} "
                  f"{fmt(r['change_median'], r['change_q']):>34} {ratio:>7.3f} "
                  f"{r['change_win_share']:>5.0%}  {r['verdict']}")
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    bad = any(r["failed_runs"] or any(m["verdict"] == "regressed" for m in r["metrics"].values())
              for r in summary["workloads"].values())
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
