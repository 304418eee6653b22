#!/usr/bin/env bash
# Compares the working tree's benchmark with a base revision's on one
# workload, in alternating pairs: the only comparison of host-speed numbers
# that survives a host whose speed drifts by 10-20 % over minutes.
#
#   bash scripts/bench-pairs.sh BASE WORKLOAD PAIRS [SEED...]
#   make bench-pairs BASE=HEAD~1 W=ar_large N=10 [SEEDS="1 2"]
#
# BASE is exported with git archive into a temporary directory (nothing is
# registered in the repository, so an interrupted run leaves nothing behind)
# and bench/ is built there and in the working tree. Every run is the
# benchmark's own (its default length, untraced). Each pair runs the base
# binary (A) and the working tree's (B) with the same arguments, A first in
# odd pairs and B first in even ones, so neither side always runs on the
# heels of an idle stretch or of the other's warm caches; each pair prints
# both runs' ops_per_s, cpu_s_per_kop and allocs_per_op and the B/A ratio of
# ops_per_s, and a pair whose result or schedule hashes or whose failed-op
# counts differ is flagged. How many pairs B won on ops_per_s and each
# side's median and q1..q3 of every end-to-end metric close the report,
# followed by one line saying whether the gain rule of the choosing-metrics
# guide (section 8) held for ops_per_s: B won at least nine tenths of the
# pairs (ties count for neither), and B's median exceeds A's by more than
# A's own quartile spread (q3 - q1). With several seeds (default: seed 1)
# the pairs, the summary and the verdict are run and printed for each seed
# in turn, from the same two builds: a host-time claim must hold on each.
set -euo pipefail
base=${1:?usage: bench-pairs.sh BASE WORKLOAD PAIRS [SEED...]}
workload=${2:?workload}
pairs=${3:?number of pairs}
shift 3
seeds=("${@:-1}")

root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive --format=tar "$base" | tar -x -C "$tmp/base"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$tmp/base/bench" && go build -o "$tmp/bench.A" .)
(cd "$root/bench" && go build -o "$tmp/bench.B" .)

metrics="ops_per_s cpu_s_per_kop allocs_per_op alloc_kb_per_op peak_rss_mb setup_s sim_ops_per_sim_s"
# value FILE METRIC prints a metric from a run's report ("  name  value unit kind").
value() { awk -v m="$2" '$1 == m { print $2; exit }' "$1"; }
hashes() { awk '$1 == "result_hash" { print $2, $4; exit }' "$1"; }
# failed FILE prints a run's failed-operation count (its first line ends
# "attempted N  failed M").
failed() { awk '$1 == "workload" { for (i = 1; i < NF; i++) if ($i == "failed") { print $(i + 1); exit } }' "$1"; }

# quartiles prints the first quartile, median and third quartile of the
# numbers on stdin, interpolated between closest ranks as bench/ does.
quartiles() {
	sort -g | awk '
		function q(p,  pos, lo) { pos = p * (NR - 1); lo = int(pos); return v[lo + 1] + (pos - lo) * (v[(lo + 1 < NR ? lo + 2 : NR)] - v[lo + 1]) }
		{ v[NR] = $1 }
		END { print q(0.25), q(0.5), q(0.75) }'
}

# compare SEED runs the pairs on one seed and prints their summary and the
# verdict.
compare() {
	local seed=$1
	echo "A = $base ($(git -C "$root" rev-parse --short "$base")), B = working tree; $workload, seed $seed"
	for i in $(seq 1 "$pairs"); do
		order="A B"
		if [ $((i % 2)) -eq 0 ]; then
			order="B A"
		fi
		for side in $order; do
			"$tmp/bench.$side" --workload "$workload" --seed "$seed" --trace 0 > "$tmp/$side.$seed.$i"
		done
		flag=""
		if [ "$(hashes "$tmp/A.$seed.$i")" != "$(hashes "$tmp/B.$seed.$i")" ]; then
			flag="  HASHES DIFFER: A $(hashes "$tmp/A.$seed.$i"), B $(hashes "$tmp/B.$seed.$i")"
		fi
		if [ "$(failed "$tmp/A.$seed.$i")" != "$(failed "$tmp/B.$seed.$i")" ]; then
			flag="$flag  FAILED DIFFER: A $(failed "$tmp/A.$seed.$i"), B $(failed "$tmp/B.$seed.$i")"
		fi
		awk -v i="$i" -v flag="$flag" \
			-v a1="$(value "$tmp/A.$seed.$i" ops_per_s)" -v a2="$(value "$tmp/A.$seed.$i" cpu_s_per_kop)" -v a3="$(value "$tmp/A.$seed.$i" allocs_per_op)" \
			-v b1="$(value "$tmp/B.$seed.$i" ops_per_s)" -v b2="$(value "$tmp/B.$seed.$i" cpu_s_per_kop)" -v b3="$(value "$tmp/B.$seed.$i" allocs_per_op)" \
			'BEGIN { printf "pair %2d  ops_per_s %9.2f -> %9.2f (%.3fx)  cpu_s_per_kop %.4f -> %.4f  allocs_per_op %.4f -> %.4f%s\n", i, a1, b1, b1 / a1, a2, b2, a3, b3, flag }'
	done

	won=$(for i in $(seq 1 "$pairs"); do
		awk -v a="$(value "$tmp/A.$seed.$i" ops_per_s)" -v b="$(value "$tmp/B.$seed.$i" ops_per_s)" 'BEGIN { print (b > a) }'
	done | awk '{ n += $1 } END { print n }')
	echo "B has the higher ops_per_s in $won of $pairs pairs; median (q1..q3) per side:"
	rule=""
	for m in $metrics; do
		read -r aq1 amed aq3 <<< "$(for i in $(seq 1 "$pairs"); do value "$tmp/A.$seed.$i" "$m"; done | quartiles)"
		read -r bq1 bmed bq3 <<< "$(for i in $(seq 1 "$pairs"); do value "$tmp/B.$seed.$i" "$m"; done | quartiles)"
		awk -v m="$m" -v a="$amed" -v a1="$aq1" -v a3="$aq3" -v b="$bmed" -v b1="$bq1" -v b3="$bq3" \
			'BEGIN { printf "  %-18s A %12.6g (%.6g..%.6g)  B %12.6g (%.6g..%.6g)  B/A %.4f\n", m, a, a1, a3, b, b1, b3, (a != 0) ? b / a : 0 }'
		if [ "$m" = ops_per_s ]; then
			rule=$(awk -v won="$won" -v n="$pairs" -v a="$amed" -v a1="$aq1" -v a3="$aq3" -v b="$bmed" 'BEGIN {
				gap = b - a; spread = a3 - a1
				held = (n >= 10 && 10 * won >= 9 * n && gap > spread)
				printf "%s: B won %d of %d pairs (needs >= 9/10 of at least 10), median gap %.6g vs A q1..q3 spread %.6g",
					held ? "HELD" : "NOT HELD", won, n, gap, spread }')
		fi
	done
	echo "choosing-metrics section 8 rule on ops_per_s, seed $seed, $rule"
}

for seed in "${seeds[@]}"; do
	compare "$seed"
done
