#!/usr/bin/env bash
# Builds the e2ebench command from this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload oltp --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, and the per-run result and span files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/go-cache" "$build/go-path" "$build/go-tmp" "$build/config"

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(
	cd "$here"
	GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/go-tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$build/e2ebench" .
) >&2

exec "$build/e2ebench" --out "$build/e2ebench-results" --commit "$commit" "$@"
