#!/usr/bin/env bash
# Checks that two source trees of tilesim produce byte-identical results:
# builds cmd/tilesim from each, runs FFT at 64 tiles on all four
# topologies (fault-free, at BER 1e-5 with a 4x noisier VL plane, and
# with router stalls plus a VL-plane outage), on the 1024-tile torus
# (fault-free and at BER 1e-5) and the 1024-tile slim network, then
# every application at 16 tiles, and compares the metrics JSON with cmp
# and stdout with diff. The per-application runs cover the
# workload generator's paths FFT alone does not: long compute gaps
# (Water-nsq, LU), no gaps at all (MP3D, Unstructured) and each address
# pattern. Last, it builds cmd/figures from each tree and compares
# `figures -quick -csv` and `figures -quick -ablation -csv`: tilesim
# has no wiring flag, so only these runs reach 2-byte Stride, perfect
# compression, L+PW with Reply Partitioning and VL+B+PW. That makes 30
# comparisons.
#
#   bash .github/scripts/byte-identity.sh BASE_SRC HEAD_SRC [WORKDIR]
#
# When the two trees declare different cmp.SimVersion values, results
# may legitimately differ: the script prints a notice and exits 0.
# Otherwise it exits 1 if any configuration differs.
set -euo pipefail

base_src=$(cd "$1" && pwd)
head_src=$(cd "$2" && pwd)
work=${3:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

simversion() { grep -o 'SimVersion = "[^"]*"' "$1/internal/cmp/canonical.go" | cut -d'"' -f2; }
if [ "$(simversion "$base_src")" != "$(simversion "$head_src")" ]; then
  echo "::notice title=byte-identity::SimVersion differs ($(simversion "$base_src") -> $(simversion "$head_src")); results may change, comparison skipped"
  exit 0
fi

for side in base head; do
  src=${side}_src
  mkdir -p "$work/$side"
  (cd "${!src}" && go build -o "$work/$side/tilesim" ./cmd/tilesim &&
    go build -o "$work/$side/figures" ./cmd/figures)
done

fft=(-app FFT -het -scheme dbrc)
ber=(-fault-ber 1e-5 -fault-vl-ber-scale 4)
stall=(-fault-stall-prob 0.01 -fault-outage-plane VL -fault-outage-start 2000 -fault-outage-cycles 3000)

failed=0
# compare NAME ARGS...: runs both binaries in their own directories with
# identical file names (stdout prints the metrics path) and compares.
compare() {
  local name=$1
  shift
  for side in base head; do
    (cd "$work/$side" && ./tilesim "$@" -metrics-out "$name.json" > "$name.txt" 2> "$name.err")
  done
  if cmp -s "$work/base/$name.json" "$work/head/$name.json" &&
    diff -q "$work/base/$name.txt" "$work/head/$name.txt" > /dev/null; then
    echo "identical: $name"
  else
    echo "::error title=byte-identity::$name differs from the base commit"
    diff "$work/base/$name.txt" "$work/head/$name.txt" | head -20 || true
    failed=1
  fi
}

# figures NAME ARGS...: runs both figure harnesses and diffs their CSV.
figures() {
  local name=$1
  shift
  for side in base head; do
    (cd "$work/$side" && ./figures "$@" > "$name.csv" 2> "$name.err")
  done
  if diff -q "$work/base/$name.csv" "$work/head/$name.csv" > /dev/null; then
    echo "identical: $name"
  else
    echo "::error title=byte-identity::$name differs from the base commit"
    diff "$work/base/$name.csv" "$work/head/$name.csv" | head -20 || true
    failed=1
  fi
}

for topo in mesh cmesh torus slim; do
  t64=(-refs 500 -warmup 250 -topo "$topo" -tiles 64)
  compare "$topo-faultfree" "${fft[@]}" "${t64[@]}"
  compare "$topo-ber" "${fft[@]}" "${t64[@]}" "${ber[@]}"
  compare "$topo-stall-outage" "${fft[@]}" "${t64[@]}" "${stall[@]}"
done
t1024=(-refs 40 -warmup 10 -tiles 1024)
compare torus1024 "${fft[@]}" "${t1024[@]}" -topo torus
compare torus1024-ber "${fft[@]}" "${t1024[@]}" -topo torus "${ber[@]}"
# The widest port table: 62 output ports per router.
compare slim1024 "${fft[@]}" "${t1024[@]}" -topo slim

apps=(Barnes-Hut EM3D FFT LU-cont LU-noncont MP3D Ocean-cont Ocean-noncont
  Radix Raytrace Unstructured Water-nsq Water-spa)
for app in "${apps[@]}"; do
  compare "app-$app" -app "$app" -het -scheme dbrc -refs 2000 -warmup 500
done

figures figures-quick -quick -csv
figures figures-ablation -quick -ablation -csv

exit "$failed"
