#!/usr/bin/env sh
# Tier-1 verification: everything a change must pass before merging.
#
#   scripts/ci.sh             # gofmt + vet + dirigent-lint
#                             # + no fused multiply-add in internal/sim when
#                             #   cross-built for arm64, ppc64le, s390x, riscv64
#                             #   (scripts/unfused-sim.sh)
#                             # + build + tests
#                             #   (every test, the goldens, the QoS probe
#                             #   suite, the dirigent-bench -all report
#                             #   golden, the check of EXPERIMENTS.md's and
#                             #   README's quotes against it, and the
#                             #   analyzer, scenario-gate and
#                             #   load-determinism tests included)
#                             # + race detector
#                             # + the goldens as a GOAMD64=v3 (FMA-capable) build
#                             # + perfbench vet + tests (its own module, which
#                             #   root go build ./... never compiles)
#                             # + the load-generator smoke (seeded 5 s open-loop
#                             #   churn: zero drops, zero leaks)
#   scripts/ci.sh -bench      # additionally run perfbench's output checks on
#                             # the sessions and serve-tenants workloads (short
#                             # runs that must report "correct":true)
#   scripts/ci.sh -scenarios  # additionally run the declarative scenario suite
#                             # (dirigent-ci against scenarios/*.json)
#
# -bench and -scenarios combine. Each leg reports its elapsed seconds so
# slow legs are visible in CI logs. Every Go check is a Go test, and the
# test legs run the whole suite in one configuration. The race leg covers
# internal packages only: the root package and cmd/ are thin facades over
# them and are already exercised race-free by the plain test leg. That
# keeps out cmd/dirigent-bench's report golden, which runs every figure
# (about 35 s plain); the generators it drives run under -race in
# internal/experiment's own tests. The lint
# leg (cmd/dirigent-lint) subsumes the old package-comment grep and adds
# the staticcheck-style checks the CI image cannot install.
set -eu
cd "$(dirname "$0")/.."

bench=false
scenarios=false
for arg in "$@"; do
	case "$arg" in
	-bench) bench=true ;;
	-scenarios) scenarios=true ;;
	*)
		echo "ci: unknown argument: $arg (want -bench and/or -scenarios)" >&2
		exit 2
		;;
	esac
done

# leg <label> <cmd...>: run one check, echoing its label and elapsed seconds.
leg() {
	_label="$1"
	shift
	echo "== $_label"
	_t0=$(date +%s)
	"$@"
	echo "-- $_label: $(($(date +%s) - _t0))s"
}

gofmt_clean() {
	_fmt=$(gofmt -l .)
	if [ -n "$_fmt" ]; then
		echo "ci: files need gofmt:" >&2
		echo "$_fmt" >&2
		exit 1
	fi
}

# The golden-pinned packages built for x86-64-v3, which has FMA: such a
# build must fuse no floating-point expression, or every golden moves.
run_goamd64_v3() {
	GOAMD64=v3 go test ./internal/sim ./internal/mem ./internal/cache ./internal/machine \
		./internal/core ./internal/experiment ./internal/benchreg ./internal/load
}
run_perfbench() { (cd perfbench && go vet ./... && go test ./...); }
# Seeded 5 s churn replayed in-process at 4x: -fail-on-drops plus the
# built-in leak check gate the structural replay invariants. Latencies are
# reported, never gated.
run_load() {
	go run ./cmd/dirigent-load -spec loadspecs/smoke.json -seed 42 \
		-inproc -speed 4 -fail-on-drops -quiet >/dev/null
}

# perfbench_correct <workload> <seconds>: a short perfbench run whose output
# checks must pass. sessions checks that pass 0 reproduces scenario.RunSuite
# exactly; serve-tenants that served /results are byte-equal to direct
# experiment runs. The last output line is the JSON result. serve-control
# is left out: its run-validity rule (generator p99 lateness) depends on
# host timing.
perfbench_correct() {
	_out=$(bash perfbench/run.sh --workload "$1" --seed 1 --seconds "$2" --trace 0)
	case "$(printf '%s\n' "$_out" | tail -n 1)" in
	*'"correct":true'*) ;;
	*)
		printf '%s\n' "$_out" >&2
		echo "ci: perfbench $1: output checks failed" >&2
		exit 1
		;;
	esac
}

leg "gofmt -l" gofmt_clean
leg "go vet ./..." go vet ./...
leg "dirigent-lint" go run ./cmd/dirigent-lint
leg "unfused internal/sim (arm64, ppc64le, s390x, riscv64)" scripts/unfused-sim.sh
leg "go build ./..." go build ./...
leg "go test ./..." go test ./...
leg "go test -race ./internal/..." go test -race ./internal/...
leg "GOAMD64=v3 go test (goldens)" run_goamd64_v3
leg "perfbench: go vet ./... && go test ./..." run_perfbench
leg "dirigent-load (load-generator smoke)" run_load

if $bench; then
	leg "perfbench sessions (output checks)" perfbench_correct sessions 2
	leg "perfbench serve-tenants (output checks)" perfbench_correct serve-tenants 5
fi

if $scenarios; then
	leg "dirigent-ci (scenario suite)" go run ./cmd/dirigent-ci
fi

echo "ci: all checks passed"
