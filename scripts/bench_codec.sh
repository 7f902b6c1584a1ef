#!/bin/sh
# Records the IR text codec benchmark into BENCH_codec.json: the
# median ns/op, B/op and allocs/op of BenchmarkIRCodec's print and
# parse legs (internal/irtext). One op prints, or parses and verifies,
# the baseline and fully optimistic builds of every benchmark
# configuration — the text a TU artifact stores and a warm load reads.
#
# Run from the repo root:
#
#   scripts/bench_codec.sh [count]
#
# count (default 5) is the number of benchmark runs; raw output goes
# to $TMPDIR.
set -eu
count="${1:-5}"
out="BENCH_codec.json"
raw="${TMPDIR:-/tmp}/bench_codec.txt"

go test -run '^$' -bench 'IRCodec' -benchmem -count="$count" ./internal/irtext | tee "$raw"

gomaxprocs="$(go run ./scripts/gomaxprocs 2>/dev/null || nproc)"

awk -v gomaxprocs="$gomaxprocs" '
/^BenchmarkIRCodec\// {
	split($1, parts, "/")
	leg = parts[2]; sub(/-[0-9]+$/, "", leg)
	k = ++n[leg]
	if (!(leg in seen)) { order[++nlegs] = leg; seen[leg] = 1 }
	for (i = 3; i < NF; i += 2) {
		if ($(i+1) == "ns/op") ns[leg, k] = $i
		if ($(i+1) == "MB/s") mbs[leg, k] = $i
		if ($(i+1) == "B/op") bytes[leg, k] = $i
		if ($(i+1) == "allocs/op") allocs[leg, k] = $i
	}
}
function median(arr, leg,   i, j, t, a, k) {
	k = n[leg]
	for (i = 1; i <= k; i++) a[i] = arr[leg, i]
	for (i = 2; i <= k; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
	return (k % 2) ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
}
END {
	printf "{\n  \"gomaxprocs\": %d,\n", gomaxprocs
	printf "  \"samples\": %d,\n", n[order[1]]
	for (j = 1; j <= nlegs; j++) {
		leg = order[j]
		printf "  \"%s\": {\n", leg
		printf "    \"ns_per_op\": %d,\n", median(ns, leg)
		printf "    \"mb_per_s\": %.2f,\n", median(mbs, leg)
		printf "    \"bytes_per_op\": %d,\n", median(bytes, leg)
		printf "    \"allocs_per_op\": %d\n", median(allocs, leg)
		printf "  }%s\n", (j < nlegs) ? "," : ""
	}
	printf "}\n"
}' "$raw" > "$out"
echo "wrote $out"
