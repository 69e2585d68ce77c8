// Command dirigent-load is the trace-driven open-loop load generator for
// dirigent-serve. It synthesizes tenant-churn arrival traces from a
// declarative load spec (seeded, byte-for-byte reproducible), records and
// replays them as JSONL, and drives the server's JSON API with
// create/retarget/evict churn, reporting per-tenant QoS-success and
// API-latency distributions.
//
// Usage:
//
//	dirigent-load -spec loadspecs/smoke.json -seed 42 -trace-out t.jsonl   # synthesize only
//	dirigent-load -spec loadspecs/smoke.json -inproc -speed 4              # synthesize + replay in-process
//	dirigent-load -spec loadspecs/smoke.json -trace-in t.jsonl -target http://host:8080
//
// Synthesis is deterministic: the same spec and seed produce the identical
// trace, which internal/load's TestSynthesizeDeterministic checks for every
// shipped spec. Replay is wall-clock and therefore reported, never gated —
// except its structural invariants: the process exits 1 if any tenant
// leaks past the post-replay drain, and (under -fail-on-drops) if the
// open-loop driver had to drop events.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"dirigent/internal/load"
	"dirigent/internal/server"
)

func main() {
	var (
		specPath   = flag.String("spec", "", "load spec JSON (required)")
		seed       = flag.Uint64("seed", 0, "synthesis seed (0 = the spec's seed)")
		duration   = flag.Float64("duration", 0, "override spec duration_s for synthesis")
		traceOut   = flag.String("trace-out", "", "write the synthesized trace JSONL here")
		traceIn    = flag.String("trace-in", "", "replay this recorded trace instead of synthesizing")
		target     = flag.String("target", "", "dirigent-serve base URL to replay against")
		inproc     = flag.Bool("inproc", false, "replay against an in-process server")
		maxTenants = flag.Int("max-tenants", 0, "in-process server tenant cap (0 = default)")
		speed      = flag.Float64("speed", 1, "time compression: trace second t fires at wall t/speed")
		maxInFlt   = flag.Int("max-inflight", 0, "max concurrent API ops (0 = DIRIGENT_MAX_PARALLEL machinery)")
		lateMS     = flag.Float64("late-budget-ms", 0, "drop ops this late in ms (0 = 2000, negative disables)")
		report     = flag.String("report", "text", "report format: text, json, markdown")
		failDrops  = flag.Bool("fail-on-drops", false, "exit 1 if the replay dropped events")
		quiet      = flag.Bool("quiet", false, "suppress progress lines")
	)
	flag.Parse()
	if err := run(*specPath, *seed, *duration, *traceOut, *traceIn, *target,
		*inproc, *maxTenants, *speed, *maxInFlt, *lateMS, *report,
		*failDrops, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "dirigent-load:", err)
		os.Exit(1)
	}
}

func run(specPath string, seed uint64, duration float64, traceOut, traceIn, target string,
	inproc bool, maxTenants int, speed float64, maxInFlight int, lateMS float64,
	report string, failDrops, quiet bool) error {
	switch report {
	case "text", "json", "markdown":
	default:
		return fmt.Errorf("unknown -report %q (valid: text, json, markdown)", report)
	}
	if specPath == "" {
		return errors.New("-spec is required")
	}
	if target != "" && inproc {
		return errors.New("-target and -inproc are mutually exclusive")
	}
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	spec, err := load.LoadSpec(specPath)
	if err != nil {
		return err
	}
	if duration > 0 {
		spec.DurationS = duration
	}

	// Obtain the trace: replay input, or fresh synthesis.
	var tr *load.Trace
	if traceIn != "" {
		f, err := os.Open(traceIn)
		if err != nil {
			return err
		}
		tr, err = load.ReadTrace(f)
		_ = f.Close()
		if err != nil {
			return err
		}
		logf("read trace %s: %d events (spec %s, seed %d)", traceIn, len(tr.Events), tr.Spec, tr.Seed)
	} else {
		tr, err = load.Synthesize(spec, seed)
		if err != nil {
			return err
		}
		creates, retargets, evicts := tr.Counts()
		logf("synthesized %d events (%d creates, %d retargets, %d evicts, %d suppressed)",
			len(tr.Events), creates, retargets, evicts, tr.Suppressed)
	}

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		werr := tr.Write(f)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
		logf("wrote trace to %s", traceOut)
	}

	if target == "" && !inproc {
		return nil // synthesis-only invocation
	}

	base := target
	if inproc {
		var shutdown func() error
		base, shutdown, err = load.StartLocal(server.Config{MaxTenants: maxTenants})
		if err != nil {
			return err
		}
		defer func() {
			if err := shutdown(); err != nil {
				fmt.Fprintln(os.Stderr, "dirigent-load: shutdown:", err)
			}
		}()
		logf("in-process server at %s", base)
	}

	rep, err := load.Replay(tr, spec, load.Options{
		BaseURL:     base,
		Speed:       speed,
		MaxInFlight: maxInFlight,
		LateBudget:  load.LateBudget(lateMS),
		Logf:        logf,
	})
	if err != nil {
		return err
	}

	switch report {
	case "json":
		s, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Print(s)
	case "markdown":
		fmt.Print(rep.Markdown())
	default:
		fmt.Print(rep.Text())
	}

	if rep.Leaked > 0 {
		return fmt.Errorf("%d tenants leaked past the drain: %v", rep.Leaked, rep.LeakedIDs)
	}
	if failDrops && rep.DroppedTotal > 0 {
		return fmt.Errorf("replay dropped %d events (-fail-on-drops)", rep.DroppedTotal)
	}
	return nil
}
