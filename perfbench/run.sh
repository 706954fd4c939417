#!/usr/bin/env bash
# Builds cmd/sapserved and the benchmark program from source inside the
# checkout, then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/sapserved ]]; then
  echo "run.sh: $root holds no sapalloc sources (go.mod, cmd/sapserved)" >&2
  exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
# The go command otherwise forks a detached telemetry process (its own
# session) that can outlive this script; the mode file turns it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bin/sapserved" ./cmd/sapserved
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
