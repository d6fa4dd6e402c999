#!/bin/sh
# Runs one suite of benches and merges their google-benchmark JSON outputs
# into a single report. The suites and their members are declared once, in
# bench/CMakeLists.txt (XOK_BENCH_SUITES); each `bench_<suite>` target
# calls this script with the suite name, the report path and the members.
#
# The trace suite additionally arms the kernel event ring in every bench
# boot (--xok_trace) and writes one TRACE_<bench>.json event summary next
# to the merged report.
#
# Usage: run_benches.sh suite output.json bench...
#   BENCH_BIN_DIR: directory holding the bench binaries (default: cwd).
# Exits nonzero if any bench does (a broken in-bench contract).
set -eu

if [ "$#" -lt 3 ]; then
  echo "usage: run_benches.sh suite output.json bench..." >&2
  exit 2
fi
suite="$1"
out="$2"
shift 2
benches="$*"
with_trace=0
if [ "$suite" = "trace" ]; then
  with_trace=1
fi

out_dir="$(dirname "$out")"
bin_dir="${BENCH_BIN_DIR:-.}"
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

for bench in $benches; do
  if [ ! -x "$bin_dir/$bench" ]; then
    echo "run_benches: missing $bin_dir/$bench (build the bench targets first)" >&2
    exit 1
  fi
  echo "== $bench =="
  # The paper-style table goes to the console; the machine-readable run
  # goes to JSON. min_time keeps the wall-clock portion short — the
  # simulated-cycle numbers inside are deterministic anyway.
  trace_flag=""
  if [ "$with_trace" = "1" ]; then
    trace_flag="--xok_trace=$out_dir/TRACE_$bench.json"
  fi
  "$bin_dir/$bench" \
    $trace_flag \
    --benchmark_out="$tmp_dir/$bench.json" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.05
done

python3 - "$out" "$tmp_dir" $benches <<'EOF'
import json
import sys

out_path, tmp_dir, names = sys.argv[1], sys.argv[2], sys.argv[3:]
merged = {"context": None, "benchmarks": []}
for name in names:
    with open(f"{tmp_dir}/{name}.json") as f:
        report = json.load(f)
    if merged["context"] is None:
        merged["context"] = report.get("context", {})
    for entry in report.get("benchmarks", []):
        entry["source_binary"] = name
        merged["benchmarks"].append(entry)
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
print(f"wrote {out_path}: {len(merged['benchmarks'])} benchmarks from {len(names)} binaries")
EOF
