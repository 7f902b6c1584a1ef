#!/bin/sh
# bench_warehouse.sh — records the forensics-warehouse benchmarks into
# BENCH_warehouse.json:
#
#   - ingest throughput: a synthetic 500-campaign fuzz corpus is filed
#     through `oraql warehouse ingest`; re-ingesting the whole corpus
#     must add zero records (content addressing);
#   - racing writers: two concurrent processes ingest the same 500
#     findings into a fresh shared directory — the corpus must end up
#     with exactly one record per unique finding, and the two
#     processes' counts of new records must sum to 500;
#   - query latency: recurrence queries over the 500-record corpus,
#     answered byte-identically across repeated runs;
#   - scripted forensics: the forensics-query.oraql campaign (two real
#     probe campaigns + warehouse_query) must return byte-identical
#     output for worker counts 1 and 8 in fresh stores.
#
# Run from the repo root:
#
#   scripts/bench_warehouse.sh
set -eu
out="BENCH_warehouse.json"
tmp="${TMPDIR:-/tmp}/oraql-warehouse-bench"
rm -rf "$tmp"
mkdir -p "$tmp"

fail() { echo "bench_warehouse: FAIL: $*" >&2; exit 1; }
now_ms() { date +%s%3N; }

go build -o "$tmp/oraql" ./cmd/oraql

# --- Synthetic 500-campaign corpus. ----------------------------------
# Each file is a bare difftest report with a unique seed — one unique
# finding per file, exactly how -corpus-dir archives divergences.
reports="$tmp/reports"
mkdir -p "$reports"
n=500
i=1
while [ "$i" -le "$n" ]; do
	cat > "$reports/report-$i.json" <<EOF
{"seed": $i, "variant": "clean", "file": "p$i.mc", "source": "int main() { return $i; }", "ref": "ok", "got": "bad"}
EOF
	i=$((i + 1))
done

# --- Leg 1: ingest throughput + idempotent re-ingest. ----------------
cache="$tmp/corpus"
t0=$(now_ms)
"$tmp/oraql" warehouse ingest -cache-dir "$cache" -grammar default "$reports"/report-*.json > "$tmp/ingest.out"
t1=$(now_ms)
ingest_ms=$((t1 - t0))
[ "$ingest_ms" -gt 0 ] || ingest_ms=1
grep -q "ingested $n reports: $n new records, $n total in corpus" "$tmp/ingest.out" ||
	fail "first ingest did not file $n records: $(cat "$tmp/ingest.out")"
"$tmp/oraql" warehouse ingest -cache-dir "$cache" -grammar default "$reports"/report-*.json > "$tmp/reingest.out"
grep -q "ingested $n reports: 0 new records, $n total in corpus" "$tmp/reingest.out" ||
	fail "re-ingest added records: $(cat "$tmp/reingest.out")"
ingest_per_sec=$(awk "BEGIN { printf \"%.0f\", $n * 1000 / $ingest_ms }")

# --- Leg 2: two racing processes, one shared directory. --------------
race="$tmp/race"
"$tmp/oraql" warehouse ingest -cache-dir "$race" -grammar default "$reports"/report-*.json > "$tmp/race-a.out" &
pid_a=$!
"$tmp/oraql" warehouse ingest -cache-dir "$race" -grammar default "$reports"/report-*.json > "$tmp/race-b.out" &
pid_b=$!
wait "$pid_a" || fail "racing ingest process A failed"
wait "$pid_b" || fail "racing ingest process B failed"
race_records=$("$tmp/oraql" warehouse stats -cache-dir "$race" -json | sed -n 's/^  "records": \([0-9]*\),*$/\1/p')
[ "$race_records" = "$n" ] ||
	fail "racing writers left $race_records records, want exactly $n (one per unique finding)"
new_records() { sed -n 's/^ingested [0-9]* reports: \([0-9]*\) new records,.*/\1/p' "$1"; }
race_a=$(new_records "$tmp/race-a.out")
race_b=$(new_records "$tmp/race-b.out")
[ $((${race_a:-0} + ${race_b:-0})) -eq "$n" ] ||
	fail "racing processes reported $race_a + $race_b new records, want $n in all (exactly one added per finding)"

# --- Leg 3: query latency + byte-identical answers. ------------------
t0=$(now_ms)
"$tmp/oraql" warehouse query -cache-dir "$cache" -by grammar > "$tmp/q1.json"
"$tmp/oraql" warehouse query -cache-dir "$cache" -by shape -kind fuzz >> "$tmp/q1.json"
"$tmp/oraql" warehouse stats -cache-dir "$cache" -json >> "$tmp/q1.json"
t1=$(now_ms)
query_ms=$((t1 - t0))
"$tmp/oraql" warehouse query -cache-dir "$cache" -by grammar > "$tmp/q2.json"
"$tmp/oraql" warehouse query -cache-dir "$cache" -by shape -kind fuzz >> "$tmp/q2.json"
"$tmp/oraql" warehouse stats -cache-dir "$cache" -json >> "$tmp/q2.json"
cmp -s "$tmp/q1.json" "$tmp/q2.json" || fail "repeated warehouse queries differ"

# --- Leg 4: scripted forensics, byte-identical across worker counts. -
script="examples/campaigns/forensics-query.oraql"
"$tmp/oraql" run "$script" -cache-dir "$tmp/wh-j1" -j 1 -json > "$tmp/forensics-j1.out" 2> /dev/null
"$tmp/oraql" run "$script" -cache-dir "$tmp/wh-j8" -j 8 -json > "$tmp/forensics-j8.out" 2> /dev/null
cmp -s "$tmp/forensics-j1.out" "$tmp/forensics-j8.out" ||
	fail "forensics campaign output differs between -j 1 and -j 8"
# And across processes: a second run over the already-built store must
# answer identically (ingest is idempotent, queries are pure).
"$tmp/oraql" run "$script" -cache-dir "$tmp/wh-j1" -j 8 -json > "$tmp/forensics-rerun.out" 2> /dev/null
cmp -s "$tmp/forensics-j1.out" "$tmp/forensics-rerun.out" ||
	fail "forensics campaign output differs on a warm re-run"

cat > "$out" <<EOF
{
  "corpus_records": $n,
  "ingest": {
    "ms": $ingest_ms,
    "records_per_sec": $ingest_per_sec,
    "reingest_added": 0
  },
  "race": {
    "processes": 2,
    "records": $race_records,
    "exactly_one_per_finding": true
  },
  "query": {
    "ms": $query_ms,
    "byte_identical": true
  },
  "scripted_forensics": {
    "campaigns": 2,
    "worker_counts": [1, 8],
    "byte_identical": true
  }
}
EOF
echo "wrote $out"
