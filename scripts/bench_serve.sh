#!/bin/sh
# Records the oraql-serve /v1/compile throughput/latency baseline into
# BENCH_serve.json: requests per second and p50/p99 latency at 1, 4,
# and 16 concurrent clients, cold cache (every request compiles a
# distinct program) vs warm cache (every request hits the
# cross-request result cache). It also records disk_tier: per-key
# median and p90 microseconds of a hit of the whole-response disk tier
# against serving the same request from its translation-unit artifact,
# over serve-mix's 64 hot keys (5 passes). Run from the repo root:
#
#   scripts/bench_serve.sh [count]
set -eu
count="${1:-3}"
out="BENCH_serve.json"

go test -run '^$' -bench Serve_Compile -benchtime=1x \
	-count="$count" . | tee /tmp/bench_serve.txt
go test -run '^$' -bench Serve_DiskTier -benchtime=5x \
	./internal/service | tee -a /tmp/bench_serve.txt

awk -v ncpu="$(nproc 2>/dev/null || echo 1)" '
/^BenchmarkServe_Compile\// {
	split($1, parts, "/")
	sub(/-[0-9]+$/, "", parts[2]) # strip the GOMAXPROCS suffix
	name = parts[2]
	n[name]++
	for (i = 3; i < NF; i += 2) {
		if ($(i+1) == "p50-ms") p50[name] += $i
		if ($(i+1) == "p99-ms") p99[name] += $i
		if ($(i+1) == "req/s")  rps[name] += $i
	}
	order[name] = 1
}
/^BenchmarkServe_DiskTier/ {
	for (i = 3; i < NF; i += 2) {
		if ($(i+1) ~ /-us$/) disk[$(i+1)] = $i
	}
}
END {
	printf "{\n"
	printf "  \"endpoint\": \"/v1/compile\",\n"
	printf "  \"requests_per_client\": 8,\n"
	printf "  \"cpus\": %d,\n", ncpu
	m = split("c1_cold c1_warm c4_cold c4_warm c16_cold c16_warm", keys, " ")
	sep = ""
	for (k = 1; k <= m; k++) {
		name = keys[k]
		if (!(name in order)) continue
		printf "%s  \"%s\": {\n", sep, name
		printf "    \"req_per_s\": %.1f,\n", rps[name] / n[name]
		printf "    \"p50_ms\": %.3f,\n", p50[name] / n[name]
		printf "    \"p99_ms\": %.3f\n", p99[name] / n[name]
		printf "  }"
		sep = ",\n"
	}
	printf "%s  \"disk_tier\": {\n", sep
	printf "    \"keys\": 64,\n"
	printf "    \"response_hit_median_us\": %d,\n", disk["tier-median-us"]
	printf "    \"response_hit_p90_us\": %d,\n", disk["tier-p90-us"]
	printf "    \"tu_restore_median_us\": %d,\n", disk["tu-median-us"]
	printf "    \"tu_restore_p90_us\": %d\n", disk["tu-p90-us"]
	printf "  }"
	printf "\n}\n"
}' /tmp/bench_serve.txt > "$out"
echo "wrote $out"
