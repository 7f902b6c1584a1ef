#!/bin/sh
# Records the interpreter benchmark into BENCH_interp.json: per app
# configuration, the median ns/op, Minstr/s, B/op and allocs/op of
# BenchmarkInterp_Apps (every run decodes the bodies it calls) and of
# BenchmarkInterp_AppsShared (the runs share one code cache, as a
# campaign's tests do, so only the first run decodes), plus each leg's
# geometric mean of Minstr/s over the configurations, nproc and
# GOMAXPROCS. One op runs a configuration's baseline-compiled program.
#
# Run from the repo root:
#
#   scripts/bench_interp.sh [count]
#
# count (default 5) is the number of benchmark runs; raw output goes
# to $TMPDIR.
set -eu
count="${1:-5}"
out="BENCH_interp.json"
raw="${TMPDIR:-/tmp}/bench_interp.txt"

go test -run '^$' -bench 'Interp_Apps' -benchmem -count="$count" ./internal/irinterp | tee "$raw"

gomaxprocs="$(go run ./scripts/gomaxprocs 2>/dev/null || nproc)"

awk -v nproc="$(nproc)" -v gomaxprocs="$gomaxprocs" '
/^BenchmarkInterp_Apps/ {
	split($1, parts, "/")
	leg = (parts[1] == "BenchmarkInterp_AppsShared") ? "apps_shared" : "apps"
	cfg = parts[2]; sub(/-[0-9]+$/, "", cfg)
	key = leg SUBSEP cfg
	k = ++n[key]
	if (!((leg, cfg) in seen)) { cfgs[leg, ++ncfg[leg]] = cfg; seen[leg, cfg] = 1 }
	for (i = 3; i < NF; i += 2) {
		if ($(i+1) == "ns/op") ns[key, k] = $i
		if ($(i+1) == "Minstr/s") mips[key, k] = $i
		if ($(i+1) == "B/op") bytes[key, k] = $i
		if ($(i+1) == "allocs/op") allocs[key, k] = $i
	}
}
function median(arr, key,   i, j, t, a, k) {
	k = n[key]
	for (i = 1; i <= k; i++) a[i] = arr[key, i]
	for (i = 2; i <= k; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
	return (k % 2) ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
}
function leg_json(leg, last,   j, cfg, key, logsum) {
	printf "  \"%s\": {\n", leg
	logsum = 0
	for (j = 1; j <= ncfg[leg]; j++) logsum += log(median(mips, leg SUBSEP cfgs[leg, j]))
	printf "    \"geomean_minstr_per_s\": %.2f,\n", exp(logsum / ncfg[leg])
	printf "    \"configs\": {\n"
	for (j = 1; j <= ncfg[leg]; j++) {
		cfg = cfgs[leg, j]; key = leg SUBSEP cfg
		printf "      \"%s\": {\"ns_per_op\": %d, \"minstr_per_s\": %.2f, \"bytes_per_op\": %d, \"allocs_per_op\": %d}%s\n",
			cfg, median(ns, key), median(mips, key), median(bytes, key), median(allocs, key),
			(j < ncfg[leg]) ? "," : ""
	}
	printf "    }\n  }%s\n", last ? "" : ","
}
END {
	printf "{\n  \"nproc\": %d,\n  \"gomaxprocs\": %d,\n", nproc, gomaxprocs
	printf "  \"samples\": %d,\n", n["apps" SUBSEP cfgs["apps", 1]]
	leg_json("apps", 0)
	leg_json("apps_shared", 1)
	printf "}\n"
}' "$raw" > "$out"
echo "wrote $out"
