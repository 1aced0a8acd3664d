#!/usr/bin/env bash
# scripts/bench.sh [-short] — run the round-loop micro-benchmarks
# (internal/bench) and write BENCH_roundloop.json with ns/round,
# allocs/round, and token-moves/s per benchmark.
#
# Exits non-zero if the steady-state engine paths (RouteOnly, SoupOnly)
# allocate more than MAX_STEADY_ALLOCS per round at the n=4096 reference
# size: those paths are required to stay (near-)allocation-free, and this
# is the committed threshold CI enforces. FullRound includes
# protocol-level payload allocation and is recorded but not gated.
#
# The budget is not literally zero, and is defined at the reference size
# only: with tens of thousands of inboxes, buckets, and per-shard
# exchange buffers, random per-round size maxima still force occasional
# slice growth (a record-maximum process whose rate scales with the
# number of buffers and decays like 1/round). The budget is three orders
# of magnitude below the per-slot allocation regime it guards against
# (pre-optimisation: ~8 allocs per slot per round, ~32k/round at n=4096).
#
# A second gate prices the observability stack against FullRound.
# FullRoundTelemetry (full tracing + phase profiler) may allocate at most
# TELEMETRY_MAX_ALLOC_DELTA more per round at every size — telemetry must
# stay steady-state allocation-free, and alloc counts are exact so this
# holds anywhere. Its time tax is gated at the n=TELEMETRY_NS_GATE_SIZE
# reference size only (at most TELEMETRY_MAX_NS_PCT percent slower):
# ns/round on shared boxes is indicative, not exact (see notes in the
# committed JSON), and at small sizes run-to-run noise exceeds the real
# tax, which is ~0.
#
# RetrieveHot/n=<n>/cache=off|on rows record the hot-key cache's effect
# on a Zipf-skewed retrieval workload (rounds/retrieval, retrievals/round
# extra metrics); the cache=off row is the committed baseline the cache=on
# row is judged against. Neither is alloc-gated: the retrieval path
# allocates per-search protocol state by design.
#
# RoutedRound/n=<n>/mode=routed|oracle rows price overlay forwarding
# against the id-addressed oracle on the same neighbor fan-out workload;
# the n=4096 routed row joins the alloc gate because hop-by-hop
# forwarding must stay steady-state allocation-free like the rest of the
# engine paths.
#
# A third leg is the multi-core matrix: BenchmarkRoundMatrix (the
# canonical FullRound body) runs under -cpu $CPUS (default 1,2,4) at
# n=65536 and n=2^20, emitting RoundMatrix/n=<n>/procs=<p> rows. On a
# single-vCPU host the procs>1 rows measure scheduling overhead, not
# speedup — the committed JSON notes say which kind of host produced them.
#
# A fourth leg is the soup's own scaling row: BenchmarkSoupOnly at
# n in {4096, 65536} under -cpu 1,2, three passes each, emitted as
# SoupOnly/n=<n>/procs=<p> rows holding the minimum over the passes.
# Two gates read it, both ratios within this one run (never absolute ns)
# and both fixed in the script: on a host with at least 2 CPUs
# SoupOnly/n=65536 at procs=2 must take at most 0.8x its procs=1 ns/round
# (the replay lanes share no written cache line, so a second worker must
# pay; -short has no such row, so only the alloc gate runs there), and at
# every size procs=2 may allocate at most 2 more per round than procs=1
# (the lanes are prebuilt; a second one costs a goroutine start).
#
# Env overrides: BENCHTIME (default 20x), MATRIX_BENCHTIME (default 5x;
# the 2^20 rows cost minutes of warmup per cpu value), CPUS (default
# 1,2,4), MAX_STEADY_ALLOCS (default 256), OUT (default
# BENCH_roundloop.json), GATED_BENCHES (awk regex of benchmark names the
# alloc gate applies to; default RouteOnly, SoupOnly and
# OverlayRepair at the n=4096 reference size, RouteOnly at n=65536 —
# the row whose 637-alloc regression motivated the inbox arena — and
# SoupOnly at n=262144, where per-round trajectory scratch once cost
# ~1200 allocs/round before the lazy store reused its expansion buffers),
# TELEMETRY_MAX_NS_PCT (default 5), TELEMETRY_MAX_ALLOC_DELTA (default 0),
# TELEMETRY_NS_GATE_SIZE (default 65536, the acceptance size; the -short
# run has no such row so only the alloc delta is gated there).
set -euo pipefail
cd "$(dirname "$0")/.."

SHORT=""
if [[ "${1:-}" == "-short" ]]; then
  SHORT="-short"
fi
BENCHTIME="${BENCHTIME:-20x}"
MATRIX_BENCHTIME="${MATRIX_BENCHTIME:-5x}"
CPUS="${CPUS:-1,2,4}"
MAX_STEADY_ALLOCS="${MAX_STEADY_ALLOCS:-256}"
GATED_BENCHES="${GATED_BENCHES:-^(RouteOnly|SoupOnly|OverlayRepair)\\/n=4096\$|^RoutedRound\\/n=4096\\/mode=routed\$|^RouteOnly\\/n=65536\$|^SoupOnly\\/n=262144\$}"
TELEMETRY_MAX_NS_PCT="${TELEMETRY_MAX_NS_PCT:-5}"
TELEMETRY_MAX_ALLOC_DELTA="${TELEMETRY_MAX_ALLOC_DELTA:-0}"
TELEMETRY_NS_GATE_SIZE="${TELEMETRY_NS_GATE_SIZE:-65536}"
OUT="${OUT:-BENCH_roundloop.json}"
RAW="$(mktemp)"
PREV="$(mktemp)"
trap 'rm -f "$RAW" "$PREV"' EXIT
# The committed file may carry hand-curated baseline_* trajectory blocks
# and "notes"; preserve them across regeneration (jq is present on CI
# runners and dev boxes; without it the raw regenerated file stands alone).
HAVE_PREV=""
if [[ -f "$OUT" ]]; then
  cp "$OUT" "$PREV"
  HAVE_PREV=1
fi

go test $SHORT -run '^$' -bench 'BenchmarkRouteOnly|BenchmarkRoutedRound|BenchmarkSoupOnly|BenchmarkOverlayRepair|BenchmarkFullRound|BenchmarkRetrieveHot' \
  -benchmem -benchtime "$BENCHTIME" -timeout 90m ./internal/bench | tee "$RAW"

go test $SHORT -run '^$' -bench 'BenchmarkRoundMatrix' \
  -benchmem -benchtime "$MATRIX_BENCHTIME" -cpu "$CPUS" -timeout 90m ./internal/bench | tee -a "$RAW"

echo "# leg: soup-scaling" >> "$RAW"
go test $SHORT -run '^$' -bench 'BenchmarkSoupOnly$/n=(4096|65536)$' \
  -benchmem -benchtime "$BENCHTIME" -cpu 1,2 -count 3 -timeout 90m ./internal/bench | tee -a "$RAW"

awk -v go_version="$(go version | awk '{print $3}')" \
    -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v gomaxprocs="$(nproc 2>/dev/null || echo 0)" \
    -v max_allocs="$MAX_STEADY_ALLOCS" \
    -v gated="$GATED_BENCHES" \
    -v tel_ns_pct="$TELEMETRY_MAX_NS_PCT" \
    -v tel_alloc_delta="$TELEMETRY_MAX_ALLOC_DELTA" \
    -v tel_ns_size="$TELEMETRY_NS_GATE_SIZE" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^# leg: soup-scaling/ { scaling = 1 }
/^Benchmark(RouteOnly|RoutedRound|SoupOnly|OverlayRepair|FullRound|FullRoundTelemetry|RoundMatrix|RetrieveHot)\// {
  name = $1
  sub(/^Benchmark/, "", name)
  # The testing package suffixes -$GOMAXPROCS when -cpu != 1. Matrix rows
  # keep the proc count as a /procs= component; the single-core trajectory
  # rows stay name-compatible with the committed baselines.
  procs = 1
  if (match(name, /-[0-9]+$/)) { procs = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
  extra = ""
  if (name ~ /^RoundMatrix\// || scaling) {
    name = name "/procs=" procs
    extra = sprintf(", \"procs\": %s", procs)
  }
  ns = allocs = bytes = moves = "null"
  repairs = ""
  for (i = 2; i < NF; i++) {
    if ($(i+1) == "ns/op") ns = $i
    if ($(i+1) == "allocs/op") allocs = $i
    if ($(i+1) == "B/op") bytes = $i
    if ($(i+1) == "token-moves/s") moves = $i
    if ($(i+1) == "repairs/round") repairs = repairs sprintf(", \"repairs_per_round\": %s", $i)
    if ($(i+1) == "rounds/retrieval") repairs = repairs sprintf(", \"rounds_per_retrieval\": %s", $i)
    if ($(i+1) == "retrievals/round") repairs = repairs sprintf(", \"retrievals_per_round\": %s", $i)
  }
  # The scaling leg repeats each row three times: keep the fastest.
  if (name in row_of) {
    if (ns + 0 >= ns_by[name] + 0) next
    idx = row_of[name]
  } else {
    idx = row_of[name] = ++n
  }
  rows[idx] = sprintf("    {\"name\": \"%s\", \"ns_per_round\": %s, \"allocs_per_round\": %s, \"bytes_per_round\": %s, \"token_moves_per_s\": %s%s%s}", name, ns, allocs, bytes, moves, repairs, extra)
  ns_by[name] = ns; allocs_by[name] = allocs
  if (name ~ gated && allocs != "null" && allocs + 0 > max_allocs + 0) {
    printf "FAIL: %s allocates %s/round, budget is %s\n", name, allocs, max_allocs > "/dev/stderr"
    bad = 1
  }
}
END {
  if (n == 0) { print "FAIL: no benchmark results parsed" > "/dev/stderr"; exit 1 }
  # Telemetry tax gate: FullRoundTelemetry vs FullRound at the same size.
  for (tn in ns_by) {
    if (tn !~ /^FullRoundTelemetry\//) continue
    base = tn; sub(/Telemetry/, "", base)
    if (!(base in ns_by)) continue
    if (tn ~ ("/n=" tel_ns_size "$") && ns_by[tn] != "null" && ns_by[base] != "null") {
      pct = 100 * (ns_by[tn] - ns_by[base]) / ns_by[base]
      if (pct > tel_ns_pct + 0) {
        printf "FAIL: %s is %.1f%% slower than %s, budget is %s%%\n", tn, pct, base, tel_ns_pct > "/dev/stderr"
        bad = 1
      }
    }
    if (allocs_by[tn] != "null" && allocs_by[base] != "null" && allocs_by[tn] - allocs_by[base] > tel_alloc_delta + 0) {
      printf "FAIL: %s allocates %s/round vs %s for %s, budget is +%s\n", tn, allocs_by[tn], allocs_by[base], base, tel_alloc_delta > "/dev/stderr"
      bad = 1
    }
  }
  # Soup scaling gates: procs=2 against procs=1 of the same run.
  for (sn in ns_by) {
    if (sn !~ /^SoupOnly\/n=[0-9]+\/procs=2$/) continue
    one = sn; sub(/procs=2$/, "procs=1", one)
    if (!(one in ns_by)) continue
    if (sn ~ /\/n=65536\// && gomaxprocs + 0 >= 2 && ns_by[sn] + 0 > 0.8 * ns_by[one]) {
      printf "FAIL: %s takes %.2fx the ns/round of %s, budget is 0.8x\n", sn, ns_by[sn] / ns_by[one], one > "/dev/stderr"
      bad = 1
    }
    if (allocs_by[sn] - allocs_by[one] > 2) {
      printf "FAIL: %s allocates %s/round vs %s for %s, budget is +2\n", sn, allocs_by[sn], allocs_by[one], one > "/dev/stderr"
      bad = 1
    }
  }
  printf "{\n  \"generated\": \"%s\",\n  \"commit\": \"%s\",\n  \"go\": \"%s\",\n  \"cpu\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"max_steady_allocs\": %s,\n  \"benchmarks\": [\n", date, commit, go_version, cpu, gomaxprocs, max_allocs
  for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
  printf "  ]\n}\n"
  exit bad
}' "$RAW" > "$OUT" || GATE=$?
GATE="${GATE:-0}"

if [[ -n "$HAVE_PREV" ]] && command -v jq >/dev/null 2>&1; then
  if jq -s '.[1] + (.[0] | with_entries(select(.key | test("^baseline_|^notes$"))))' \
      "$PREV" "$OUT" > "$OUT.tmp" 2>/dev/null; then
    mv "$OUT.tmp" "$OUT"
  else
    rm -f "$OUT.tmp"
  fi
fi

echo "wrote $OUT"
cat "$OUT"
exit "$GATE"
