#!/usr/bin/env sh
# Builds internal/sim for the four architectures whose compilers fuse
# x*y+z (arm64, ppc64le, s390x, riscv64) and fails on any fused
# multiply-add in its code, naming the function. A fused product rounds
# once instead of twice and moves every golden there; an explicit
# float64(x*y) keeps a product unfused. s390x's disassembler names its
# fused ops MADBR/MSDBR/MAEBR/MSEBR.
#
#   scripts/unfused-sim.sh
#
# scripts/ci.sh and the workflow's lint job both run it. Takes about 30 s
# with a cold build cache, under 1 s warm.
set -eu
cd "$(dirname "$0")/.."

d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
: >"$d/fused"
for arch in arm64 ppc64le s390x riscv64; do
	GOARCH=$arch go build -o "$d/sim.a" ./internal/sim
	go tool objdump -s 'sim\.' "$d/sim.a" >"$d/sim.s"
	awk -v arch="$arch" '
		/^TEXT / { fn = $2 }
		/[ \t](FN?M(ADD|SUB)[A-Z]*|M[AS][DE]BR)[ \t]/ { print arch ": " fn ":" $0 }' "$d/sim.s" >>"$d/fused"
done
if [ -s "$d/fused" ]; then
	echo "ci: fused multiply-adds in internal/sim; write the product as float64(x*y):" >&2
	cat "$d/fused" >&2
	exit 1
fi
