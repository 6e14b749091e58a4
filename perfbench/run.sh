#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload mem-byz --seed 1 --seconds 20 --trace 0
# Every file the build and the run write (Go build cache, binary, store
# directories, span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .

# An exported tree without git history is identified by a digest of its
# Go sources.
if commit="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	:
else
	commit="tree-sha256:$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

cd "$root"
exec "$out/perfbench" -commit "$commit" -out "$out" "$@"
