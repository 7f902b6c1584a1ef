#!/bin/sh
# Records the compile benchmark into BENCH_compile.json: per
# configuration, the compile wall time with the analysis cache enabled
# ("cached") and with force-invalidation ("forced"), plus the cache hit
# rate.
#
# Run from the repo root:
#
#   scripts/bench_compile.sh [count]
#
# Every configuration must show a hit rate > 0 — the pipeline reuses
# CFG info and MemorySSA across passes whenever the previous pass
# declared them preserved.
set -eu
count="${1:-3}"
out="BENCH_compile.json"
raw="${TMPDIR:-/tmp}/bench_compile.txt"

go test -run '^$' -bench 'Compile_AnalysisCache' -benchtime=1x \
	-count="$count" . | tee "$raw"

gomaxprocs="$(go run ./scripts/gomaxprocs 2>/dev/null || nproc)"

awk -v gomaxprocs="$gomaxprocs" '
/^BenchmarkCompile_AnalysisCache\// {
	split($1, parts, "/")
	cfg = parts[2]
	mode = parts[3]; sub(/-[0-9]+$/, "", mode)
	key = cfg SUBSEP mode
	ns[key] += $3; n[key]++
	if (!(cfg in seen)) { order[++ncfg] = cfg; seen[cfg] = 1 }
	for (i = 5; i < NF; i += 2) {
		if ($(i+1) == "analysis-hit-%") hit[key] = $i
		if ($(i+1) == "analysis-hits") hits[key] = $i
		if ($(i+1) == "analysis-misses") miss[key] = $i
	}
}
END {
	printf "{\n  \"gomaxprocs\": %d,\n", gomaxprocs
	printf "  \"configs\": {\n"
	for (j = 1; j <= ncfg; j++) {
		cfg = order[j]
		ck = cfg SUBSEP "cached"; fk = cfg SUBSEP "forced"
		cms = ns[ck] / n[ck] / 1e6; fms = ns[fk] / n[fk] / 1e6
		printf "    \"%s\": {\n", cfg
		printf "      \"cached_ms\": %.2f,\n", cms
		printf "      \"forced_ms\": %.2f,\n", fms
		printf "      \"speedup\": %.2f,\n", fms / cms
		printf "      \"analysis_hits\": %d,\n", hits[ck]
		printf "      \"analysis_misses\": %d,\n", miss[ck]
		printf "      \"analysis_hit_pct\": %.2f\n", hit[ck]
		printf "    }%s\n", (j < ncfg) ? "," : ""
	}
	printf "  }\n}\n"
}' "$raw" > "$out"
echo "wrote $out"
