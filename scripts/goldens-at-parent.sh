#!/usr/bin/env sh
# Regenerates the golden files under internal/*/testdata/golden from the
# last commit that had two step engines, and checks that this checkout's
# copies are byte-identical to them.
#
#   scripts/goldens-at-parent.sh [commit]   # default 8f3e75a
#
# The commit is exported with git archive into a temporary directory,
# scripts/goldens-at-parent.patch adds one generator test per package, and
# each generator computes every golden value twice — once on the
# per-quantum reference engine, once with batched stepping — fails unless
# the two are byte-identical, and writes the value. The regenerated files
# are then compared with the committed ones; the scenario goldens, which
# package benchreg generates at that commit, are compared with
# internal/scenario's. Takes about 15 s.
set -eu
cd "$(dirname "$0")/.."

rev="${1:-8f3e75a}"
pkgs="machine cache core experiment benchreg"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

root=$(pwd)
git archive "$rev" | tar -x -C "$work"
(cd "$work" && git apply "$root/scripts/goldens-at-parent.patch")
for p in $pkgs; do
	rm -rf "$work/internal/$p/testdata/golden"
done
(cd "$work" && go test -count=1 -run TestWriteParentGoldens $(for p in $pkgs; do printf './internal/%s ' "$p"; done))
for p in $pkgs; do
	case $p in
	benchreg) dest=scenario ;;
	*) dest=$p ;;
	esac
	diff -r "$work/internal/$p/testdata/golden" "internal/$dest/testdata/golden"
done
echo "goldens: every file matches its regeneration at $rev"
