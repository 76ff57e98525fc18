#!/usr/bin/env bash
# Perf ledger over perfbench, the benchmark BENCHMARK.json declares.
#
#   ./scripts/bench.sh --out BENCH_PR<n>.json
#       Runs every BENCHMARK.json workload for its `run_seconds`: three
#       `--trace 0` runs (per end-to-end metric: median, min and max; each
#       run's provenance line; failed and attempted units), then one
#       `--trace 1` run (the per-layer rows), and writes the ledger.
#   ./scripts/bench.sh --check
#       The gate. Prints each end-to-end metric's trajectory over every
#       perfbench ledger (BENCH_PR*.json) and fails if the newest ledger
#       is more than 5% worse than the metric's best recorded point, in
#       the direction BENCHMARK.json's `better` gives, or has a failed
#       unit. The criterion ledgers of PRs 3-12 are history; their
#       format differs, so the gate skips them.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# == 2 && "$1" == --out ]]; then
    out="$2"
elif [[ $# == 1 && "$1" == --check ]]; then
    out=""
else
    echo "usage: $0 --out BENCH_PR<n>.json | --check" >&2
    exit 2
fi

if [[ -z "$out" ]]; then
    exec python3 - <<'PY'
import glob, json, re, sys

TOLERANCE = 0.05
bench = json.load(open("BENCHMARK.json"))
ledgers = []
for path in glob.glob("BENCH_PR*.json"):
    doc = json.load(open(path))
    if doc.get("format") == "perfbench":
        ledgers.append((int(re.search(r"PR(\d+)", path)[1]), path, doc))
ledgers.sort()
if not ledgers:
    sys.exit("bench gate: no perfbench ledger (write one with --out)")
_, newest_path, newest = ledgers[-1]
print(f"bench gate: {newest_path} against the best of {len(ledgers)} perfbench ledger(s), "
      f"tolerance {TOLERANCE:.0%}")
failures = []
for workload, row in newest["workloads"].items():
    for runs, failed in (("--trace 0", row["failed"]), ("--trace 1", row["layers"]["failed"])):
        if failed:
            failures.append(f"{workload}: {failed} failed unit(s) in the {runs} runs")
    for metric in bench["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        points = [(pr, doc["workloads"][workload]["end_to_end"][name]["median"])
                  for pr, _, doc in ledgers
                  if name in doc["workloads"].get(workload, {}).get("end_to_end", {})]
        best_pr, best = (max if higher else min)(points, key=lambda p: p[1])
        now = points[-1][1]
        worse = (best - now) / best if higher else (now - best) / best
        verdict = "FAIL" if worse > TOLERANCE else "ok"
        if verdict == "FAIL":
            failures.append(f"{workload} {name}: {now:.6g} is {worse:.1%} worse than "
                            f"PR{best_pr}'s {best:.6g}")
        trail = ", ".join(f"PR{pr} {v:.6g}" for pr, v in points)
        print(f"  {verdict:<4} {workload:<8} {name:<15} ({metric['better']}) {trail} | "
              f"best {best:.6g} (PR{best_pr}), newest {now:.6g} ({0.0 - worse:+.1%})")
for f in failures:
    print(f"FAIL: {f}", file=sys.stderr)
sys.exit(1 if failures else 0)
PY
fi

# perfbench is its own workspace; offline, cargo rewrites its stale lock
# file, so put it back afterwards (as ci.sh does).
raw="$(mktemp -d)"
cp perfbench/Cargo.lock "$raw/Cargo.lock"
trap 'cp "$raw/Cargo.lock" perfbench/Cargo.lock; rm -rf "$raw"' EXIT
read -r seconds workloads < <(python3 -c 'import json; b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')
for w in $workloads; do
    for t in 0 0 0 1; do
        echo "==> perfbench --workload $w --seed 1 --seconds $seconds --trace $t" >&2
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$w" --seed 1 --seconds "$seconds" --trace "$t" \
            | tail -2 >> "$raw/$w.$t"
    done
done

python3 - "$raw" "$out" $workloads <<'PY'
import json, statistics, sys

raw, out, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]

def runs(path):
    """(provenance, result) per run: perfbench's last two stdout lines."""
    lines = [json.loads(l) for l in open(path)]
    return [(lines[i]["provenance"], lines[i + 1]) for i in range(0, len(lines), 2)]

ledger = {
    "_comment": "perfbench medians (--trace 0, three runs) and layer rows (--trace 1); "
    "written by scripts/bench.sh --out, gated by scripts/bench.sh --check.",
    "format": "perfbench",
    "workloads": {},
}
for w in workloads:
    plain, [(traced_prov, traced)] = runs(f"{raw}/{w}.0"), runs(f"{raw}/{w}.1")
    e2e = {}
    for name, m in plain[0][1]["metrics"].items():
        values = [result["metrics"][name]["value"] for _, result in plain]
        e2e[name] = {"median": statistics.median(values), "min": min(values),
                     "max": max(values), "unit": m["unit"]}
    ledger["workloads"][w] = {
        "end_to_end": e2e,
        "failed": sum(r["failed"] for _, r in plain),
        "attempted": sum(r["attempted"] for _, r in plain),
        "provenance": [p for p, _ in plain],
        "layers": {"failed": traced["failed"], "attempted": traced["attempted"],
                   "metrics": traced["metrics"], "provenance": traced_prov},
    }
with open(out, "w") as f:
    json.dump(ledger, f, indent=2)
    f.write("\n")
print(f"wrote {out} ({', '.join(workloads)})")
PY
