#!/usr/bin/env bash
# whatruns.sh: the "what runs" audit. It builds every binary with
# coverage counters over all hydra packages, drives each one the way a
# user would, and reports the statements no run executed: code that
# links (so the linker audit in reach_test.go keeps it) but never runs.
#
# Usage, from anywhere inside the repository:
#
#	scripts/whatruns.sh [workdir]
#
# workdir (default: a fresh temporary directory, removed at exit) holds
# the binaries, the run outputs and the coverage counters. The runs take
# a few minutes on two cores. Output: `go tool covdata percent` per
# package, then every file with never-executed statements, as
# "count file" lines each followed by the line ranges, then the
# never-executed count per package and their total.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [[ $# -ge 1 ]]; then
	work=$1
	mkdir -p "$work"
else
	work=$(mktemp -d)
	trap 'rm -rf "$work"' EXIT
fi
work=$(cd "$work" && pwd)
bin=$work/bin
run=$work/run
export GOCOVERDIR=$work/cov
rm -rf "$GOCOVERDIR" "$run"
mkdir -p "$bin" "$run" "$GOCOVERDIR"

# A relative -coverpkg pattern writes no counters; name the module.
cover=(-cover -coverpkg=hydra/...)
echo "building into $bin" >&2
(cd "$root" && go build "${cover[@]}" -o "$bin/" ./cmd/... ./examples/...)
(cd "$root/perfbench" && go build "${cover[@]}" -o "$bin/perfbench" .)

step() {
	echo "+ $*" >&2
	"$@" >/dev/null
}

cd "$run"
step "$bin/hydra-bench" -quick -trace x7=x7.json,x11=x11.json,x12=x12.json
for t in x7 x11 x12; do
	step "$bin/hydra-trace" "$t.json"
done
for server in simple sendfile offloaded; do
	for client in idle user offloaded; do
		step "$bin/tivopc" -seconds 3 -server "$server" -client "$client"
	done
done
step "$bin/tivopc" -seconds 3 -crash-nic 1
step "$bin/tivopc" -seconds 3 -background
step "$bin/tivopc" -seconds 3 -trace tivopc.json
for ex in quickstart packetfilter storageindex layoutopt; do
	step "$bin/$ex"
done
step "$bin/layout-solve" -objective offload
step "$bin/layout-solve" -objective bus
step "$bin/docslint" -root "$root"
step "$bin/odflint" -traceguard "$root"
for w in dataplane syscall-storm tivopc; do
	step "$bin/perfbench" -workload "$w" -seed 1 -rep 1
done

go tool covdata percent -i="$GOCOVERDIR"
go tool covdata textfmt -i="$GOCOVERDIR" -o "$work/cover.txt"

# cover.txt lines: "file:l0.c0,l1.c1 stmts count". A block can appear
# once per binary, so it ran if any copy's count is non-zero.
echo
echo "never-executed statements by file:"
never() {
	awk 'NR > 1 {
		if (!($1 in stmts)) { stmts[$1] = $2; order[++n] = $1 }
		if ($3 > 0) ran[$1] = 1
	}
	END {
		for (i = 1; i <= n; i++) {
			b = order[i]
			if (b in ran) continue
			split(b, parts, ":")
			file = parts[1]
			split(parts[2], span, "[.,]")
			cnt[file] += stmts[b]
			lines[file] = lines[file] " " span[1] "-" span[3]
		}
		for (f in cnt) printf "%d %s\n %s\n", cnt[f], f, lines[f]
	}' "$work/cover.txt" | paste - - | sort -k1,1nr -k2,2
}
never | tr '\t' '\n'

# The same counts summed per package (the file's directory), then the
# total over every package.
echo
echo "never-executed statements by package:"
never | awk '{ pkg = $2; sub(/\/[^\/]*$/, "", pkg); cnt[pkg] += $1 }
	END { for (p in cnt) printf "%d %s\n", cnt[p], p }' |
	sort -k1,1nr -k2,2 | tee "$work/packages.txt"
awk '{ total += $1 } END { printf "%d total\n", total }' "$work/packages.txt"
