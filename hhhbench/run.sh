#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it with the given flags, e.g.
#
#   bash hhhbench/run.sh --workload replay-windowed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files stay under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

# Source revision for the host fingerprint: the git commit when the
# checkout is a repository, otherwise a digest of the Go sources.
rev=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null || true)
if [ -z "$rev" ]; then
	rev=src-$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)
fi

(cd "$root/hhhbench" && go build -o "$out/hhhbench" .) >&2
HHHBENCH_REV=$rev HHHBENCH_DIR=$out exec "$out/hhhbench" "$@"
