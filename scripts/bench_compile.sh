#!/bin/sh
# Records the compile benchmark into BENCH_compile.json: per
# configuration, the median compile wall time with the analysis cache
# ("cached") and with it force-invalidated ("forced"), plus its hit
# rate. speedup is forced / cached. The median, not the mean, because
# one garbage collection during a single-compile sample can double it.
#
# Run from the repo root:
#
#   scripts/bench_compile.sh [count]
#
# count (default 10) is the number of single-compile samples per
# configuration and mode. Every configuration must show an analysis
# hit rate > 0 — the pipeline reuses CFG info and MemorySSA across
# passes whenever the previous pass declared them preserved.
set -eu
count="${1:-10}"
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
	ns[key, ++n[key]] = $3
	if (!(cfg in seen)) { order[++ncfg] = cfg; seen[cfg] = 1 }
	for (i = 5; i < NF; i += 2) {
		if ($(i+1) == "analysis-hit-%") hit[key] = $i
		if ($(i+1) == "analysis-hits") hits[key] = $i
		if ($(i+1) == "analysis-misses") miss[key] = $i
	}
}
function median(key,   i, j, t, a, k) {
	k = n[key]
	for (i = 1; i <= k; i++) a[i] = ns[key, i]
	for (i = 2; i <= k; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
	return (k % 2) ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
}
END {
	printf "{\n  \"gomaxprocs\": %d,\n", gomaxprocs
	printf "  \"samples\": %d,\n", n[order[1] SUBSEP "cached"]
	printf "  \"configs\": {\n"
	for (j = 1; j <= ncfg; j++) {
		cfg = order[j]
		ck = cfg SUBSEP "cached"; fk = cfg SUBSEP "forced"
		cms = median(ck) / 1e6; fms = median(fk) / 1e6
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
