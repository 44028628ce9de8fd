#!/usr/bin/env bash
# Fleet placement benchmark runner.
#
#   ./scripts/bench_fleet.sh          # run at a fixed -benchtime, append the
#                                     # stamped result block to BENCH_fleet.json
#   ./scripts/bench_fleet.sh -check   # same, plus a diff against the newest
#                                     # committed fleet block: allocs/op is a
#                                     # gate, mean ns/op only a warning
#
# The fixed iteration count (-benchtime 20000x) makes runs benchstat-
# comparable across commits and keeps the p99-ns/op metric stable: the
# cache-speedup acceptance number is BenchmarkFleetPlace's p99 against
# BenchmarkFleetPlaceCold's in one block. BENCH_fleet.json is an
# append-only log — each block is one commit's numbers under a `# ...`
# stamp line — so the history of the placement path rides with the repo.
# allocs/op does not depend on the host, so -check ratchets it: the run
# fails (and appends nothing) when any benchmark's fewest allocs/op
# across -count runs exceeds the most the baseline block recorded for the
# same benchmark name (the -N GOMAXPROCS suffix included: allocation
# counts can differ by a few between GOMAXPROCS values, which is why the
# microbench lane is pinned to -cpu 1,2 — the names the committed blocks
# record — on every host). A -check whose run matches no baseline name
# fails too: a gate that compares nothing must not pass. ns/op stays
# warn-only: timings on shared CI runners are advisory, and regressions
# are for a human to read in the uploaded artifact.
#
# The scale-stress benchmarks (BenchmarkFleetStress*) run in their own
# single-iteration lane: each iteration is a full churn run over a large
# fleet, so the 20000x microbench lane would take days on them. The
# default point is 100 machines / 10k arrivals; STRESS_FULL=1 adds the
# headline 1000-machine / 1M-arrival BenchmarkFleetStressFull (minutes).
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_fleet.json
benchtime=${BENCHTIME:-20000x}
count=${COUNT:-3}
stress_bench='BenchmarkFleetStress$'
if [ "${STRESS_FULL:-0}" = "1" ]; then
  stress_bench='BenchmarkFleetStress(Full)?$'
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test ./internal/fleet/ -run '^$' -bench 'BenchmarkFleet(Place|Rebalance)' -benchmem \
  -cpu 1,2 -benchtime "$benchtime" -count "$count" | tee "$tmp"

go test ./internal/fleet/ -run '^$' -bench "$stress_bench" -benchmem \
  -benchtime 1x -count 1 -timeout 60m | tee -a "$tmp"

if [ "${1:-}" = "-check" ] && git show "HEAD:$out" >/dev/null 2>&1; then
  if ! git show "HEAD:$out" | awk -v cur="$tmp" '
    function mean(sum, n) { return n ? sum / n : 0 }
    function allocs(    i) { for (i = 1; i < NF; i++) if ($(i + 1) == "allocs/op") return $i + 0; return -1 }
    # BENCH_fleet.json is append-only; each "# ..." stamp starts a block.
    # Only the newest committed FLEET-lane block is the comparison
    # baseline: serve-stress stamps and report lines must not reset it,
    # or a serve run appended after the last fleet run would erase the
    # baseline entirely.
    /^# / && !/serve-stress/ { delete bsum; delete bn; delete bmax }
    /^Benchmark/ {
      bsum[$1] += $3; bn[$1]++
      a = allocs(); if (a >= 0 && (!($1 in bmax) || a > bmax[$1])) bmax[$1] = a
    }
    END {
      while ((getline line < cur) > 0) {
        n = split(line, f, /[ \t]+/)
        if (f[1] !~ /^Benchmark/) continue
        csum[f[1]] += f[3]; cn[f[1]]++
        for (i = 1; i < n; i++) if (f[i + 1] == "allocs/op" && (!(f[1] in cmin) || f[i] + 0 < cmin[f[1]])) cmin[f[1]] = f[i] + 0
      }
      bad = 0; matched = 0
      for (b in csum) {
        if (!(b in bsum)) continue
        matched++
        base = mean(bsum[b], bn[b]); now = mean(csum[b], cn[b])
        printf "bench-diff: %-28s baseline %12.0f ns/op  now %12.0f ns/op  (%+.1f%%)\n",
          b, base, now, base ? (now - base) * 100 / base : 0
        if (base && now > base * 1.2)
          printf "bench-diff: WARNING: %s regressed more than 20%% vs committed baseline\n", b
        if ((b in cmin) && (b in bmax) && cmin[b] > bmax[b]) {
          printf "bench-diff: FAIL: %s allocates %d allocs/op, committed baseline %d\n", b, cmin[b], bmax[b]
          bad = 1
        }
      }
      if (!matched) {
        print "bench-diff: FAIL: no benchmark name matches the committed baseline block"
        bad = 1
      }
      exit bad
    }'; then
    echo "bench-diff: allocs/op gate failed against the committed baseline; nothing appended" >&2
    exit 1
  fi
fi

# Keyed stamp: every block records the exact commit and toolchain that
# produced it, parseable without positional guessing. The "# " prefix is
# load-bearing — the -check parsers key block boundaries on it.
{
  echo "# commit=$(git rev-parse --short HEAD 2>/dev/null || echo worktree) go=$(go version | awk '{print $3}') lane=fleet benchtime=$benchtime count=$count"
  cat "$tmp"
} >> "$out"
echo "appended to $out"
