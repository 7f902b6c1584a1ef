#!/bin/sh
# bench_diskcache.sh — records the persistent compile-cache benchmarks
# into BENCH_diskcache.json:
#
#   - the cold/warm cross-process matrix: `oraql sweep` compiles all 16
#     benchmark configurations into a fresh -cache-dir, 5 times, each
#     into a directory of its own; then 9 more processes sweep the
#     first directory warm. Exe hashes must be byte-identical, every
#     warm sweep must hit disk for every configuration, and the median
#     warm sweep must be at least 5x faster than the median cold one
#     (a single warm sweep takes tens of milliseconds, so one pair of
#     timings can miss the floor on noise alone);
#   - the unchanged reprobe: a second process probes the same program
#     against the first probe's -cache-dir, every file of the store
#     outside tmp/ must keep its name and its sha256sum, and the second
#     probe must convict the same queries as the first;
#   - the edited-program reprobe: a probe campaign persists its state,
#     the program is edited (a helper appended after main), and the
#     seeded reprobe must use strictly fewer compiles than probing the
#     edit from scratch while convicting the same guilty queries (the
#     scratch probes run at -j 1, where their compile count is exact);
#   - the shifted-stream reprobe: the same with XSBench's pick_mat,
#     whose first pessimistic answer shifts the position of its second
#     conviction. The seeded reprobe must take at most 8 compiles,
#     strictly fewer than from scratch, with the same convictions.
#
# Run from the repo root:
#
#   scripts/bench_diskcache.sh
set -eu
out="BENCH_diskcache.json"
tmp="${TMPDIR:-/tmp}/oraql-diskcache-bench"
rm -rf "$tmp"
mkdir -p "$tmp"

fail() { echo "bench_diskcache: FAIL: $*" >&2; exit 1; }

go build -o "$tmp/oraql" ./cmd/oraql

# --- Leg 1: cold vs warm sweeps, separate processes. ------------------
ncold=5
nwarm=9
json_num() { sed -n "s/^  \"$2\": \([0-9.]*\),*\$/\1/p" "$1" | head -1; }
median() { sort -n | awk '{ a[NR] = $1 } END { print (NR % 2) ? a[(NR+1)/2] : (a[NR/2] + a[NR/2+1]) / 2 }'; }

: > "$tmp/cold.ms"
i=1
while [ "$i" -le "$ncold" ]; do
	"$tmp/oraql" sweep -json -cache-dir "$tmp/cache$i" > "$tmp/cold$i.json"
	json_num "$tmp/cold$i.json" total_ms >> "$tmp/cold.ms"
	grep '"exe_hash"' "$tmp/cold$i.json" > "$tmp/cold$i.hashes"
	cmp -s "$tmp/cold1.hashes" "$tmp/cold$i.hashes" ||
		fail "cold sweep $i exe hashes differ from cold sweep 1"
	i=$((i + 1))
done
nconf=$(grep -c '"exe_hash"' "$tmp/cold1.json")

: > "$tmp/warm.ms"
j=1
while [ "$j" -le "$nwarm" ]; do
	"$tmp/oraql" sweep -json -cache-dir "$tmp/cache1" > "$tmp/warm$j.json"
	json_num "$tmp/warm$j.json" total_ms >> "$tmp/warm.ms"
	grep '"exe_hash"' "$tmp/warm$j.json" > "$tmp/warm$j.hashes"
	cmp -s "$tmp/cold1.hashes" "$tmp/warm$j.hashes" ||
		fail "warm sweep $j exe hashes differ from cold"
	warm_hits=$(sed -n 's/.*"Hits": \([0-9]*\),*/\1/p' "$tmp/warm$j.json" | head -1)
	[ "$warm_hits" -ge "$nconf" ] || fail "warm sweep $j hit disk only $warm_hits times"
	j=$((j + 1))
done

cold_ms=$(median < "$tmp/cold.ms")
warm_ms=$(median < "$tmp/warm.ms")
speedup=$(awk "BEGIN { printf \"%.1f\", $cold_ms / $warm_ms }")
awk "BEGIN { exit !($cold_ms / $warm_ms >= 5) }" ||
	fail "median warm sweep only ${speedup}x faster than median cold (want >= 5x)"

# --- Leg 2: incremental reprobe of an edited program. ----------------
# Both versions keep the SAME file name (probed from sibling dirs):
# !dbg locations embed it, so a renamed file would change every
# function's content hash and disable verdict reuse — just like a real
# edit keeps the file name.
mkdir -p "$tmp/v1" "$tmp/v2"
cat > "$tmp/v1/hello.mc" <<'EOF'

int main() {
	double a[64];
	for (int i = 0; i < 64; i++) {
		a[i] = (double)i * 2.0;
	}
	for (int i = 0; i < 63; i++) {
		a[i+1] = a[i] * 0.5 + a[i+1];
	}
	double s = 0.0;
	for (int i = 0; i < 64; i++) {
		s = s + a[i];
	}
	print("sum=", s, "\n");
	return 0;
}
EOF
# The edit appends a helper AFTER main, so main's body (and content
# hash) is unchanged and its persisted per-query verdicts still apply.
cp "$tmp/v1/hello.mc" "$tmp/v2/hello.mc"
cat >> "$tmp/v2/hello.mc" <<'EOF'
double scale(double x) {
	return x * 3.0;
}
EOF

pcache="$tmp/probe-cache"
(cd "$tmp/v1" && "$tmp/oraql" probe -file hello.mc -cache-dir "$pcache" -json) \
	> "$tmp/probe_first.json" 2> /dev/null

# An unchanged reprobe writes nothing: every file outside tmp/ keeps
# its name and its bytes.
store_sums() { (cd "$pcache" && find . -path ./tmp -prune -o -type f -print | sort | xargs sha256sum); }
store_sums > "$tmp/store_before.sums"
(cd "$tmp/v1" && "$tmp/oraql" probe -file hello.mc -cache-dir "$pcache" -json) \
	> "$tmp/probe_again.json" 2> /dev/null
store_sums > "$tmp/store_after.sums"
store_files=$(wc -l < "$tmp/store_before.sums")
# A file counts once whether it was added, removed or rewritten.
changed_files=$(awk '{ sum[$2] = sum[$2] "|" $1 } END {
	n = 0
	for (f in sum) if (split(sum[f], s, "|") != 3 || s[2] != s[3]) n++
	print n
}' "$tmp/store_before.sums" "$tmp/store_after.sums")
[ "$changed_files" -eq 0 ] ||
	fail "unchanged reprobe changed $changed_files of the store's $store_files files"

# Conviction sets compare the guilty queries' stable descriptors (pass,
# function, both location dumps) — indices may differ.
verdicts() { grep -E '"(pass|func|a|b)":' "$1" | sort; }
verdicts "$tmp/probe_first.json" > "$tmp/first.verdicts"
verdicts "$tmp/probe_again.json" > "$tmp/again.verdicts"
cmp -s "$tmp/first.verdicts" "$tmp/again.verdicts" ||
	fail "unchanged reprobe convicted different queries than the first probe"

# The scratch probes run at -j 1: speculative compiles at a higher -j
# make their compile counts depend on scheduling, and the gates compare
# against them.
(cd "$tmp/v2" && "$tmp/oraql" probe -file hello.mc -j 1 -json) \
	> "$tmp/probe_scratch.json" 2> /dev/null
(cd "$tmp/v2" && "$tmp/oraql" probe -file hello.mc -cache-dir "$pcache" -json) \
	> "$tmp/probe_seeded.json" 2> /dev/null

probe_num() { sed -n "s/^  \"$2\": \([0-9]*\),*\$/\1/p" "$1" | head -1; }
scratch_compiles=$(probe_num "$tmp/probe_scratch.json" compiles)
seeded_compiles=$(probe_num "$tmp/probe_seeded.json" compiles)
seeded_disk=$(probe_num "$tmp/probe_seeded.json" tests_disk)
[ -z "$seeded_disk" ] && seeded_disk=0
[ "$seeded_compiles" -lt "$scratch_compiles" ] ||
	fail "seeded reprobe took $seeded_compiles compiles, scratch $scratch_compiles (want strictly fewer)"

# Same conviction set as scratch.
verdicts "$tmp/probe_scratch.json" > "$tmp/scratch.verdicts"
verdicts "$tmp/probe_seeded.json" > "$tmp/seeded.verdicts"
cmp -s "$tmp/scratch.verdicts" "$tmp/seeded.verdicts" ||
	fail "seeded reprobe convicted different queries than scratch"

# --- Leg 3: reprobe of an edit whose query stream shifts. ------------
# pick_mat convicts two queries, and the first pessimistic answer moves
# the second one position away from where the fully optimistic compile
# asked it. The persisted convictions must move with the stream.
mkdir -p "$tmp/s1" "$tmp/s2"
cp internal/driver/testdata/pick_mat.mc "$tmp/s1/pick_mat.mc"
cp internal/driver/testdata/pick_mat.mc "$tmp/s2/pick_mat.mc"
cat >> "$tmp/s2/pick_mat.mc" <<'EOF'
int reprobe_edit(int x) {
	return x * 3 + 7;
}
EOF

scache="$tmp/shifted-cache"
(cd "$tmp/s1" && "$tmp/oraql" probe -file pick_mat.mc -cache-dir "$scache" -json) \
	> "$tmp/shifted_first.json" 2> /dev/null
(cd "$tmp/s2" && "$tmp/oraql" probe -file pick_mat.mc -j 1 -json) \
	> "$tmp/shifted_scratch.json" 2> /dev/null
(cd "$tmp/s2" && "$tmp/oraql" probe -file pick_mat.mc -cache-dir "$scache" -json) \
	> "$tmp/shifted_seeded.json" 2> /dev/null

shifted_scratch=$(probe_num "$tmp/shifted_scratch.json" compiles)
shifted_seeded=$(probe_num "$tmp/shifted_seeded.json" compiles)
shifted_tests=$(( $(probe_num "$tmp/shifted_seeded.json" tests_run) + \
	$(probe_num "$tmp/shifted_seeded.json" tests_cached) ))
[ "$shifted_seeded" -le 8 ] ||
	fail "shifted-stream reprobe took $shifted_seeded compiles (want <= 8)"
[ "$shifted_seeded" -lt "$shifted_scratch" ] ||
	fail "shifted-stream reprobe took $shifted_seeded compiles, scratch $shifted_scratch (want strictly fewer)"
verdicts "$tmp/shifted_scratch.json" > "$tmp/shifted_scratch.verdicts"
verdicts "$tmp/shifted_seeded.json" > "$tmp/shifted_seeded.verdicts"
cmp -s "$tmp/shifted_scratch.verdicts" "$tmp/shifted_seeded.verdicts" ||
	fail "shifted-stream reprobe convicted different queries than scratch"

cat > "$out" <<EOF
{
  "configs": $nconf,
  "sweep": {
    "cold_sweeps": $ncold,
    "warm_sweeps": $nwarm,
    "statistic": "median",
    "cold_ms": $cold_ms,
    "warm_ms": $warm_ms,
    "speedup": $speedup,
    "warm_disk_hits": $warm_hits,
    "exe_hashes_identical": true
  },
  "reprobe_unchanged": {
    "store_files": $store_files,
    "changed_files": $changed_files
  },
  "reprobe": {
    "scratch_compiles": $scratch_compiles,
    "seeded_compiles": $seeded_compiles,
    "seeded_tests_from_disk": $seeded_disk,
    "verdicts_identical": true
  },
  "reprobe_shifted": {
    "scratch_compiles": $shifted_scratch,
    "seeded_compiles": $shifted_seeded,
    "seeded_tests": $shifted_tests,
    "verdicts_identical": true
  }
}
EOF
echo "wrote $out"
