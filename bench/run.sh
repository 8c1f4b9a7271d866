#!/bin/bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run leave behind goes under .bench_build
# at the root of the checkout: the Go build cache, the binary, the trained
# classifier and the benchmark's temporary files (history stores, span
# files).
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$dir")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOPROXY=off
go build -C "$dir" -o "$build/framebench" .
# The classifier is an artifact of the build, as on a pole, which is handed
# a trained model: it is trained again whenever the binary has changed.
id="$(go tool buildid "$build/framebench")"
if [ ! -f "$build/hawc.model" ] || [ "$(cat "$build/hawc.model.buildid" 2>/dev/null)" != "$id" ]; then
	"$build/framebench" -train-model "$build/hawc.model"
	echo "$id" >"$build/hawc.model.buildid"
fi
TMPDIR="$build/tmp" exec "$build/framebench" -model "$build/hawc.model" "$@"
