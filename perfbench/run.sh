#!/usr/bin/env bash
# Builds ppm-node and the perfbench command from this checkout's sources
# and runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-jobs --seed 1 --seconds 20 --trace 0
#
# Everything it writes — the Go build cache, the binaries, the temporary
# rendezvous directories of the node fleets, and traces — stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" || ! -d "$root/cmd/ppm-node" ]]; then
	echo "perfbench/run.sh: run from the root of a ppm checkout (go.mod, cmd/ppm-node and perfbench/ are missing here)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off TMPDIR="$out/tmp"

go build -o "$out/bin/ppm-node" ./cmd/ppm-node
(cd perfbench && go build -o "$out/bin/perfbench" .)

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)
src=$(find cmd internal perfbench -name '*.go' -type f | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)

"$out/bin/perfbench" -node-bin "$out/bin/ppm-node" -out "$out" -commit "git:$commit,src:$src" "$@"
