#!/usr/bin/env sh
# Builds every determinism-critical package (the scope that
# internal/analysis.DefaultConfig lists: the root package, internal/...,
# cmd/dirigent-sim and cmd/dirigent-bench) for the four architectures whose
# compilers fuse x*y+z (arm64, ppc64le, s390x, riscv64) and fails on any
# fused multiply-add in their code, naming the function. A fused product
# rounds once instead of twice and moves every golden there; an explicit
# float64(x*y) keeps a product unfused. s390x's disassembler names its
# fused ops MADBR/MSDBR/MAEBR/MSEBR.
#
#   scripts/unfused-sim.sh
#
# scripts/ci.sh and the workflow's lint job both run it. Takes a few
# minutes with a cold build cache, under half a minute warm.
set -eu
cd "$(dirname "$0")/.."

d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
: >"$d/fused"
pkgs=$(go list -f '{{.ImportPath}}:{{.Name}}' . ./internal/... ./cmd/dirigent-sim ./cmd/dirigent-bench)
for arch in arm64 ppc64le s390x riscv64; do
	for p in $pkgs; do
		# A library builds to its own archive; a main package links, so
		# only its main.* functions are its own.
		sym=.
		[ "${p#*:}" = main ] && sym='^main\.'
		GOARCH=$arch go build -o "$d/p.a" "${p%:*}"
		go tool objdump -s "$sym" "$d/p.a" >"$d/p.s"
		awk -v arch="$arch" '
			/^TEXT / { fn = $2 }
			/[ \t](FN?M(ADD|SUB)[A-Z]*|M[AS][DE]BR)[ \t]/ { print arch ": " fn ":" $0 }' "$d/p.s" >>"$d/fused"
	done
done
if [ -s "$d/fused" ]; then
	echo "ci: $(wc -l <"$d/fused") fused multiply-adds; write the product as float64(x*y):" >&2
	cat "$d/fused" >&2
	exit 1
fi
