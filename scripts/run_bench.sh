#!/usr/bin/env bash
# Runs the paper-reproduction benchmarks and emits one BENCH_<name>.json
# per program, so successive PRs can track the performance trajectory.
#
# Usage:
#   scripts/run_bench.sh [-b BUILD_DIR] [-o OUT_DIR] [-a] [bench ...]
#
#   -b BUILD_DIR   cmake build directory holding bench/ binaries (default: build)
#   -o OUT_DIR     where BENCH_*.json land (default: bench_results)
#   -a             also run the ablation benchmarks
#   bench ...      explicit subset (names like fig6_scaling table2_commits)
#
# Honors DECIBEL_SCALE / DECIBEL_BRANCHES (see bench/bench_common.h).
# micro_primitives (Google Benchmark) emits its native JSON when present.

set -u

BUILD_DIR=build
OUT_DIR=bench_results
RUN_ABLATIONS=0

while getopts "b:o:ah" opt; do
  case "$opt" in
    b) BUILD_DIR=$OPTARG ;;
    o) OUT_DIR=$OPTARG ;;
    a) RUN_ABLATIONS=1 ;;
    h) sed -n '2,15p' "$0"; exit 0 ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))

FIGURE_TABLE_BENCHES=(
  fig6_scaling fig7_q1 fig8_q2 fig9_q3 fig10_q4 fig11_tablewise
  table2_commits table3_merge table5_load table6_git table7_git_updates
  load_paths scan_pushdown concurrent_txn wal_overhead merge_diff
)
ABLATION_BENCHES=(ablation_orientation)

EXPLICIT=0
if [ "$#" -gt 0 ]; then
  BENCHES=("$@")
  EXPLICIT=1
else
  BENCHES=("${FIGURE_TABLE_BENCHES[@]}")
  if [ "$RUN_ABLATIONS" -eq 1 ]; then
    BENCHES+=("${ABLATION_BENCHES[@]}")
  fi
fi

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found; build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"
SCALE=${DECIBEL_SCALE:-1}
STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)
FAILURES=0

# Escapes stdin into a JSON string array, one element per line. Control
# characters other than tab/newline (e.g. \r progress counters) are dropped
# — RFC 8259 forbids them unescaped inside strings.
json_lines() {
  tr -d '\000-\010\013-\037' |
  sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e 's/\t/\\t/g' \
      -e 's/^/    "/' -e 's/$/",/' | sed -e '$ s/,$//'
}

for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  out_json="$OUT_DIR/BENCH_${bench}.json"
  if [ ! -x "$bin" ]; then
    if [ "$EXPLICIT" -eq 1 ]; then
      echo "error: no such bench binary: $bin" >&2
      FAILURES=$((FAILURES + 1))
    else
      echo "-- skip $bench (binary not built)"
    fi
    continue
  fi
  echo "-- running $bench"
  raw=$(mktemp)
  start_ns=$(date +%s%N)
  "$bin" > "$raw" 2>&1
  code=$?
  end_ns=$(date +%s%N)
  wall=$(awk -v a="$start_ns" -v b="$end_ns" 'BEGIN { printf "%.3f", (b - a) / 1e9 }')
  status=ok
  if [ "$code" -ne 0 ]; then
    status=failed
    FAILURES=$((FAILURES + 1))
    echo "   FAILED (exit $code), output kept in $out_json" >&2
  fi
  {
    printf '{\n'
    printf '  "bench": "%s",\n' "$bench"
    printf '  "status": "%s",\n' "$status"
    printf '  "exit_code": %d,\n' "$code"
    printf '  "wall_seconds": %s,\n' "$wall"
    printf '  "scale": %s,\n' "$SCALE"
    printf '  "timestamp": "%s",\n' "$STAMP"
    printf '  "output": [\n'
    json_lines < "$raw"
    printf '\n  ]\n}\n'
  } > "$out_json"
  rm -f "$raw"
done

# Google Benchmark speaks JSON natively; use it directly when built. Only
# part of the default sweep — an explicit subset runs exactly what it names.
micro="$BUILD_DIR/bench/micro_primitives"
if [ "$EXPLICIT" -eq 1 ]; then
  :
elif [ -x "$micro" ]; then
  echo "-- running micro_primitives"
  if ! "$micro" --benchmark_format=json \
      --benchmark_out="$OUT_DIR/BENCH_micro_primitives.json" \
      --benchmark_out_format=json > /dev/null 2>&1; then
    FAILURES=$((FAILURES + 1))
    echo "   FAILED micro_primitives" >&2
  fi
else
  echo "-- skip micro_primitives (Google Benchmark not available at build time)"
fi

echo
echo "Results in $OUT_DIR/ ($(ls "$OUT_DIR"/BENCH_*.json 2>/dev/null | wc -l) files, $FAILURES failures)"
exit "$([ "$FAILURES" -eq 0 ] && echo 0 || echo 1)"
