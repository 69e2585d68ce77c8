#!/usr/bin/env sh
# Tier-1 verification: everything a change must pass before merging.
#
#   scripts/ci.sh             # full: gofmt + vet + dirigent-lint + build + tests
#                             #   (every golden, the QoS probe suite's included)
#                             # + race detector
#                             # + the goldens as a GOAMD64=v3 (FMA-capable) build
#                             # + perfbench vet + tests (its own module, which
#                             #   root go build ./... never compiles)
#                             # + the shrunk fault-injection (resilience) smoke
#                             # + the policy-sweep smoke (every QoS policy end to end)
#                             # + the dirigent-serve API smoke (-selfcheck)
#                             # + the load-generator smoke (seeded 5 s open-loop
#                             #   churn: trace determinism, zero drops, zero leaks)
#   scripts/ci.sh -short      # same legs, but skip the long end-to-end tests
#   scripts/ci.sh -bench      # additionally run perfbench's output checks on
#                             # the sessions and serve-tenants workloads (short
#                             # runs that must report "correct":true)
#   scripts/ci.sh -scenarios  # additionally run the declarative scenario suite
#                             # (dirigent-ci -scenarios against scenarios/*.json)
#
# -short, -bench and -scenarios combine. Each leg reports its elapsed
# seconds so slow legs are visible in CI logs. The race leg covers internal
# packages only: the root package and cmd/ are thin facades over them and
# are already exercised race-free by the plain test leg. The lint leg
# (cmd/dirigent-lint) subsumes the old package-comment grep and adds the
# staticcheck-style checks the CI image cannot install; its -selftest leg
# proves every analyzer still fires on the seeded fixture violations before
# a clean repo run is trusted.
set -eu
cd "$(dirname "$0")/.."

short=""
bench=false
scenarios=false
for arg in "$@"; do
	case "$arg" in
	-short) short="-short" ;;
	-bench) bench=true ;;
	-scenarios) scenarios=true ;;
	*)
		echo "ci: unknown argument: $arg (want -short, -bench and/or -scenarios)" >&2
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

run_tests() { go test $short ./...; }
run_race() { go test -race $short ./internal/...; }
# The golden-pinned packages built for x86-64-v3, which has FMA: such a
# build must fuse no floating-point expression, or every golden moves. No
# -short, which would skip the experiment and benchreg goldens.
run_goamd64_v3() {
	GOAMD64=v3 go test ./internal/sim ./internal/mem ./internal/cache ./internal/machine \
		./internal/core ./internal/experiment ./internal/benchreg ./internal/load
}
run_perfbench() { (cd perfbench && go vet ./... && go test ./...); }
run_resilience() { go run ./cmd/dirigent-bench -resilience -short >/dev/null; }
run_policies() { go run ./cmd/dirigent-bench -policies -short >/dev/null; }
run_serve() { go run ./cmd/dirigent-serve -selfcheck >/dev/null; }
# Seeded 5 s churn replayed in-process at 4x: -check-determinism gates the
# byte-identical synthesis, -fail-on-drops plus the built-in leak check gate
# the structural replay invariants. Latencies are reported, never gated.
run_load() {
	go run ./cmd/dirigent-load -spec loadspecs/smoke.json -seed 42 \
		-check-determinism -inproc -speed 4 -fail-on-drops -quiet >/dev/null
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
leg "dirigent-lint -selftest" go run ./cmd/dirigent-lint -selftest
leg "dirigent-lint" go run ./cmd/dirigent-lint
leg "go build ./..." go build ./...
leg "go test ./... $short" run_tests
leg "go test -race ./internal/... $short" run_race
leg "GOAMD64=v3 go test (goldens)" run_goamd64_v3
leg "perfbench: go vet ./... && go test ./..." run_perfbench
leg "dirigent-bench -resilience -short (fault-injection smoke)" run_resilience
leg "dirigent-bench -policies -short (policy-sweep smoke)" run_policies
leg "dirigent-serve -selfcheck (server API smoke)" run_serve
leg "dirigent-load (load-generator smoke)" run_load

if $bench; then
	leg "perfbench sessions (output checks)" perfbench_correct sessions 2
	leg "perfbench serve-tenants (output checks)" perfbench_correct serve-tenants 5
fi

if $scenarios; then
	leg "dirigent-ci -scenarios" go run ./cmd/dirigent-ci -scenarios
fi

echo "ci: all checks passed"
