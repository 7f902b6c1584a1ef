#!/bin/sh
# bench_cluster.sh — records the fleet benchmark into
# BENCH_cluster.json: 1-, 2-, and 4-process oraql-serve fleets, each
# sharing one -cache-dir, swept cold through one instance and warm
# through ANOTHER (one POST /v1/compile/batch over all 16 benchmark
# configurations). The warm sweep must be served without a single new
# compilation anywhere in the fleet (>= 90% dedup is the floor, 100%
# the expectation), with byte-identical exe hashes, and
# oraql_compiles_total summed over the fleet must equal the config
# count. The shared directory is the only link between the instances.
#
# Run from the repo root:
#
#   scripts/bench_cluster.sh [base-port]
set -eu
baseport="${1:-18460}"
out="BENCH_cluster.json"
tmp="${TMPDIR:-/tmp}/oraql-cluster-bench"
rm -rf "$tmp"
mkdir -p "$tmp"

fail() {
	echo "bench_cluster: FAIL: $*" >&2
	for f in "$tmp"/serve-*.log; do
		[ -f "$f" ] && { echo "--- $f:" >&2; tail -5 "$f" >&2; }
	done
	exit 1
}

go build -o "$tmp/oraql" ./cmd/oraql
go build -o "$tmp/oraql-serve" ./cmd/oraql-serve

pids=""
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
}
trap cleanup EXIT INT TERM

# start_fleet <n> <firstport> <cachedir> — n instances sharing one
# cache directory. Sets $pids and $urls.
start_fleet() {
	n="$1"; first="$2"; shared="$3"
	urls=""
	i=0
	while [ "$i" -lt "$n" ]; do
		urls="$urls http://127.0.0.1:$((first + i))"
		"$tmp/oraql-serve" -addr "127.0.0.1:$((first + i))" -cache-dir "$shared" -quiet \
			> "$tmp/serve-$((first + i)).log" 2>&1 &
		pids="$pids $!"
		i=$((i + 1))
	done
	for u in $urls; do
		j=0
		until curl -fs "$u/healthz" > /dev/null 2>&1; do
			j=$((j + 1))
			[ "$j" -gt 50 ] && fail "instance $u did not come up"
			sleep 0.2
		done
	done
}

# compiles_sum <url...> — oraql_compiles_total summed over the fleet.
compiles_sum() {
	total=0
	for u in "$@"; do
		v=$(curl -fs "$u/metrics" | awk '$1 == "oraql_compiles_total" { print $2 }')
		[ -n "$v" ] || fail "oraql_compiles_total missing on $u"
		total=$((total + v))
	done
	echo "$total"
}

json_num() { sed -n "s/^  \"$2\": \([0-9.]*\),*\$/\1/p" "$1" | head -1; }

: > "$tmp/fleets.json"
port="$baseport"
for n in 1 2 4; do
	start_fleet "$n" "$port" "$tmp/shared-$n"
	first_url="http://127.0.0.1:$port"
	warm_url="http://127.0.0.1:$((port + (n > 1 ? 1 : 0)))"

	"$tmp/oraql" sweep -json -server "$first_url" > "$tmp/cold-$n.json"
	"$tmp/oraql" sweep -json -server "$warm_url" > "$tmp/warm-$n.json"

	grep '"exe_hash"' "$tmp/cold-$n.json" > "$tmp/cold-$n.hashes"
	grep '"exe_hash"' "$tmp/warm-$n.json" > "$tmp/warm-$n.hashes"
	cmp -s "$tmp/cold-$n.hashes" "$tmp/warm-$n.hashes" ||
		fail "fleet n=$n: warm sweep exe hashes differ from cold"

	nconf=$(grep -c '"exe_hash"' "$tmp/cold-$n.json")
	compiles=$(compiles_sum $urls)
	[ "$compiles" -eq "$nconf" ] ||
		fail "fleet n=$n: $compiles compilations fleet-wide for $nconf configs (want exactly $nconf)"
	# Warm dedup: of the warm sweep's items, the share served without
	# a fresh compilation. compiles == nconf means all 16 were, but the
	# recorded floor is 90%.
	warm_compiles=$((compiles - nconf))
	dedup=$(awk "BEGIN { printf \"%.1f\", 100 * ($nconf - $warm_compiles) / $nconf }")
	awk "BEGIN { exit !($dedup >= 90) }" ||
		fail "fleet n=$n: warm dedup $dedup% < 90%"

	cold_ms=$(json_num "$tmp/cold-$n.json" total_ms)
	warm_ms=$(json_num "$tmp/warm-$n.json" total_ms)
	printf '    {"instances": %s, "configs": %s, "cold_ms": %s, "warm_ms": %s, "fleet_compiles": %s, "warm_dedup_pct": %s},\n' \
		"$n" "$nconf" "$cold_ms" "$warm_ms" "$compiles" "$dedup" >> "$tmp/fleets.json"
	echo "bench_cluster: fleet n=$n cold=${cold_ms}ms warm=${warm_ms}ms compiles=$compiles dedup=${dedup}%"

	cleanup
	pids=""
	port=$((port + n))
done
fleet_json=$(sed '$ s/},$/}/' "$tmp/fleets.json")

cat > "$out" <<EOF
{
  "configs": $nconf,
  "fleets": [
$fleet_json
  ]
}
EOF
echo "wrote $out"
