// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time against the program built from the same checkout,
// checks the program's outputs, and prints every metric by name and unit;
// the last line of its output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
// Run it from the root of a checkout, through the launcher that builds it:
//
//	bash perfbench/run.sh --workload sessions --seed 1 --seconds 20 --trace 0
//
// Workloads: sessions, serve-tenants, serve-control. With --trace 0 the
// result line carries the end-to-end metrics; with --trace 1 it carries
// the per-layer metrics of a traced run. README.md defines every metric.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// outDir holds what a run writes (span traces), inside the checkout.
const outDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// phaseSeconds is the length of one measured phase. A traced run measures
// two phases (untraced, then traced) and then runs the layer probes, so
// each phase gets half the time and the run stays within the time a run
// may take.
func (o options) phaseSeconds() float64 {
	if o.trace {
		return o.seconds / 2
	}
	return o.seconds
}

// path resolves a repository file; the benchmark runs from the root.
func (o options) path(rel string) string { return filepath.FromSlash(rel) }

// outPath names a file the run writes.
func (o options) outPath(name string) string { return filepath.Join(outDir, name) }

// workloads maps each workload to its run function and whether its work
// runs on the main goroutine (drift is then sampled inline, on that
// thread).
var workloads = map[string]struct {
	run    func(options, *refSampler, *report) error
	inline bool
}{
	"sessions":      {runSessions, true},
	"serve-tenants": {runServeTenants, false},
	"serve-control": {runServeControl, false},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace, seconds int
	fs.StringVar(&o.workload, "workload", "", "sessions, serve-tenants or serve-control")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 for a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload sessions|serve-tenants|serve-control, --seconds >= 1, --trace 0|1")
		return 2
	}
	o.seconds, o.trace = float64(seconds), trace == 1
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	var ref *refSampler
	if wl.inline {
		runtime.LockOSThread()
		ref = newInlineRef()
	} else {
		ref = startRefSampler()
	}
	rep := newReport(o.workload)
	err := wl.run(o, ref, rep)
	ref.Stop()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !o.trace {
		rep.info("bench.ref_ns", "ns", ref.medianNs(), fmt.Sprintf("median reference sample; corrected figures assume %v", refNominal))
		rep.info("bench.steal_share", "share", ref.runStealShare(), "busy CPU time the hypervisor stole during the run")
		meds := ref.cpuMedianNs()
		cpus := make([]int, 0, len(meds))
		for cpu := range meds {
			cpus = append(cpus, cpu)
		}
		sort.Ints(cpus)
		for _, cpu := range cpus {
			rep.info(fmt.Sprintf("bench.ref_ns.cpu%d", cpu), "ns", meds[cpu], "median reference sample pinned to this CPU")
		}
	}
	// A metric that is not a finite number (a median over mostly failed
	// operations) fails the run; JSON cannot carry it, so it is left out.
	for _, ms := range []map[string]metric{rep.e2e, rep.layer} {
		for _, name := range sortedKeys(ms) {
			if v := ms[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
				rep.fail("metric %s is %v", name, v)
				delete(ms, name)
			}
		}
	}
	if len(rep.missing) > 0 {
		// A percentile without enough samples beyond it is not a figure:
		// print what was measured, and no result line.
		rep.writeTable(stderr)
		return 1
	}
	rep.write(stdout, o.trace)
	return 0
}
