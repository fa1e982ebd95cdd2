#!/bin/bash
# repeat.sh N [seconds]: run every workload N times (seed k on round k),
# rounds alternating the workload order, and print for each (metric,
# workload) min / median / max and the spread the driver computes: the
# distance between the first and third quartile as a share of the median,
# beside the metric's bound from BENCHMARK.json. N >= 2.
#
# Run from the repo root. Results of each run are kept in
# benchmark/out/repeat/<workload>-<seed>.json.
set -u
n=${1:?usage: benchmark/repeat.sh N [seconds]}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
out=benchmark/out/repeat
mkdir -p "$out"
mapfile -t command < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for ((k = 1; k <= n; k++)); do
    order=("${workloads[@]}")
    if ((k % 2 == 0)); then
        order=()
        for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
    fi
    for w in "${order[@]}"; do
        echo "round $k: $w" >&2
        if ! "${command[@]}" --workload "$w" --seed "$k" --seconds "$seconds" --trace 0 \
            | tail -n 1 >"$out/$w-$k.json"; then
            echo "round $k: $w failed" >&2
            exit 1
        fi
    done
done

python3 - "$out" "$n" <<'EOF'
import json, statistics, sys
out, n = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
print(f"{'workload':<14}{'metric':<14}{'min':>12}{'median':>12}{'max':>12}{'spread':>9}{'bound':>7}  unit")
worst = 0.0
for w in (w["name"] for w in spec["workloads"]):
    runs = [json.load(open(f"{out}/{w}-{k}.json")) for k in range(1, n + 1)]
    bad = [k + 1 for k, r in enumerate(runs) if not r["correct"] or r["failed"]]
    if bad:
        sys.exit(f"{w}: incorrect runs {bad}")
    for m in spec["end_to_end"]:
        xs = [r["metrics"][m["name"]]["value"] for r in runs]
        q = statistics.quantiles(xs, n=4)
        spread = (q[2] - q[0]) / statistics.median(xs)
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{w:<14}{m['name']:<14}{min(xs):>12.4f}{statistics.median(xs):>12.4f}{max(xs):>12.4f}"
              f"{spread:>9.4f}{m['bound']:>7.2f}  {m['unit']}")
print(f"largest spread/bound (setup_s aside): {worst:.2f} (the driver accepts up to 1, aim below 0.33)")
EOF
