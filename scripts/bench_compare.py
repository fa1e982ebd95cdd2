#!/usr/bin/env python3
"""Compare a fresh BENCH_fig4.json against the committed baseline.

Usage: bench_compare.py BASELINE CURRENT

Three gates per (app, variant, n) series point present in both files,
and a fourth within the current file:

* **checksum** — must match bit-exactly. The guest programs are
  deterministic IEEE-754, so checksums are machine-independent; any
  drift means an execution-semantics change, not noise.
* **vm_instructions** — must match bit-exactly. The instruction count is
  a deterministic function of the guest program and the emitted op
  stream; drift means the compiler changed what it emits (or the VM
  changed how it counts), which is a semantics-facing change that must
  be a deliberate baseline update, never an accident.
* **simulated time** — `sim_s`, `kernel_s`, `memcpy_s` and `launches` of
  every `cuda`/`ompi` row must equal the baseline exactly (the JSON
  numbers, digit for digit). The simulated clock is a deterministic
  function of the kernels and the timing model, and `sim_s` (kernel +
  memcpy) is the quantity the paper's Fig. 4 plots: an interpreter or
  runtime change that moves it is a change to the reproduced result and
  needs a deliberate baseline refresh. This is the cross-commit twin of
  the repo benchmark's in-run pinned-facts check.
* **cuda = ompi** — within CURRENT, the `cuda` and `ompi` rows of each
  (app, n) must carry the same checksum. Both variants compute the same
  output from the same inputs, and every block of every launch is
  simulated, so a difference is a miscompiled or half-computed output.
  Feed it `fig4 --quick` rows: at n >= 512 gramschmidt's OMPi checksum
  still varies, because float atomics from different blocks meet in host
  order.

No wall-clock gate: a `wall_s` from a fig4 smoke run on an unknown
machine says little, and the repo benchmark (`BENCHMARK.json`, 20 %
`cpu_s` bound per workload, `host_vm` included) is where host speed is
held.

Exit status 0 = pass, 1 = regression, 2 = usage/shape error.
"""

import json
import sys

SIM_FIELDS = ("sim_s", "kernel_s", "memcpy_s", "launches")


def key(row):
    return (row["app"], row["variant"], row["n"])


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = {key(r): r for r in json.load(f)["series"]}
    with open(argv[2]) as f:
        cur = json.load(f)
    if cur.get("schema") != "ompi-nano/fig4/v1":
        print(f"unexpected schema: {cur.get('schema')}", file=sys.stderr)
        return 2

    failures = []
    compared = 0
    for row in cur["series"]:
        b = base.get(key(row))
        if b is None:
            continue
        compared += 1
        tag = "{}/{}/n={}".format(*key(row))
        if row["checksum"] != b["checksum"]:
            failures.append(
                f"{tag}: checksum {row['checksum']} != baseline {b['checksum']}"
            )
        if "vm_instructions" in row and "vm_instructions" in b:
            if row["vm_instructions"] != b["vm_instructions"]:
                failures.append(
                    f"{tag}: vm_instructions {row['vm_instructions']} != baseline "
                    f"{b['vm_instructions']} "
                    f"(drift {row['vm_instructions'] - b['vm_instructions']:+d}; "
                    "instruction counts are bit-deterministic — an intentional "
                    "compiler change needs a baseline refresh)"
                )
        if row["variant"] in ("cuda", "ompi"):
            for field in SIM_FIELDS:
                if row[field] != b[field]:
                    failures.append(
                        f"{tag}: {field} {row[field]!r} != baseline {b[field]!r} "
                        "(the simulated clock is deterministic — a timing-model or "
                        "kernel change needs a baseline refresh)"
                    )
    by_point = {}
    for row in cur["series"]:
        if row["variant"] in ("cuda", "ompi"):
            by_point.setdefault((row["app"], row["n"]), {})[row["variant"]] = row["checksum"]
    for (app, n), sums in sorted(by_point.items()):
        if len(sums) == 2 and sums["cuda"] != sums["ompi"]:
            failures.append(
                f"{app}/n={n}: cuda checksum {sums['cuda']} != ompi checksum {sums['ompi']} "
                "(both variants compute the same output)"
            )
    if compared == 0:
        print("no comparable series points between baseline and current", file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"OK: {compared} series points match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
