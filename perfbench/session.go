package main

import (
	"encoding/json"
	"fmt"
	"time"

	"dirigent/internal/experiment"
	"dirigent/internal/machine"
	"dirigent/internal/sim"
)

// sessionOut is one session driven through StartSession → RunExecutions →
// Collect.
type sessionOut struct {
	rr *experiment.RunResult
	// js is the RunResult's JSON encoding, for byte comparisons.
	js    []byte
	class string
	simS  float64
	// wall is the host time of StartSession, RunExecutions and Collect;
	// scale is the drift correction around it and corr the corrected wall
	// in ns (per round where rounds were corrected one by one).
	wall  time.Duration
	scale float64
	corr  float64
	// rounds are the host times of each RunExecutions(k) call in ms, raw
	// and corrected; filled only when driven round by round.
	rounds, roundsC []float64
	// startD, runD and collectD split wall into its three calls.
	startD, runD, collectD time.Duration
	invocations            int
	quanta                 float64
	// tasks is the mix's FG streams plus BG workers.
	tasks int
}

// sessionHooks carries the optional observation of a session.
type sessionHooks struct {
	tr       *tracer
	parent   int
	req      string
	ref      *refSampler
	byRounds bool
}

// driveSession runs one session to its goal. With byRounds it calls
// RunExecutions(k) for k = 1…goal, timing each call: stepping stops at the
// same states either way, so the result is identical to one
// RunExecutions(goal) call.
func driveSession(r *experiment.Runner, mix experiment.Mix, p experiment.RunParams, h sessionHooks) (*sessionOut, error) {
	tr := h.tr
	whole := tr.begin("experiment.Session", h.req, h.parent)
	defer tr.end(whole)
	t0 := time.Now()
	id := tr.begin("experiment.StartSession", h.req, whole)
	s, err := r.StartSession(mix, p)
	tr.end(id)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s: start: %w", mix.Name, err)
	}
	limit := sim.Time(r.TimeLimit)
	out := &sessionOut{class: r.MachineClass, tasks: len(mix.FG) + len(mix.BG)}
	var runD time.Duration
	corrRun := 0.0
	if h.byRounds {
		// Rounds are timed one by one; with an inline reference, a short
		// sample between rounds corrects each round for the host's state
		// at that moment (it switches within a session: the same round of
		// the same scenario took 4.5 ms or 8 ms in one run).
		prev := h.ref.between()
		for k := 1; k <= s.Goal(); k++ {
			id := tr.begin("experiment.RunExecutions", h.req, whole)
			tally.setParent(id)
			rt0 := time.Now()
			err := s.RunExecutions(k, limit)
			d := time.Since(rt0)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: run: %w", mix.Name, err)
			}
			next := h.ref.between()
			f := betweenScale(prev, next)
			prev = next
			runD += d
			corrRun += float64(d) * f
			out.rounds = append(out.rounds, float64(d)/1e6)
			out.roundsC = append(out.roundsC, float64(d)/1e6*f)
		}
	} else {
		id := tr.begin("experiment.RunExecutions", h.req, whole)
		tally.setParent(id)
		rt0 := time.Now()
		err := s.RunExecutions(s.Goal(), limit)
		runD = time.Since(rt0)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", mix.Name, err)
		}
	}
	t2 := time.Now()
	id = tr.begin("experiment.Collect", h.req, whole)
	rr, err := s.Collect()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: collect: %w", mix.Name, err)
	}
	t3 := time.Now()
	out.rr = rr
	out.startD, out.runD, out.collectD = t1.Sub(t0), runD, t3.Sub(t2)
	out.wall = out.startD + out.runD + out.collectD
	out.simS = rr.Elapsed.Seconds()
	if rt := s.Runtime(); rt != nil {
		out.invocations = rt.Invocations()
	}
	out.quanta = quantaOf(r.MachineClass, rr.Elapsed)
	if h.ref != nil {
		h.ref.sample()
		out.scale = h.ref.scale(t0, t3)
		out.corr = float64(out.wall) * out.scale
		if len(out.roundsC) > 0 && h.ref.inline {
			// The short samples do not see stolen time; take the
			// session's steal share from the samples around it.
			kept := 1 - h.ref.stealShare(t0, t3)
			for i := range out.roundsC {
				out.roundsC[i] *= kept
			}
			out.corr = float64(out.startD+out.collectD)*out.scale + corrRun*kept
		}
	}
	if out.js, err = json.Marshal(rr); err != nil {
		return nil, fmt.Errorf("%s: encode result: %w", mix.Name, err)
	}
	return out, nil
}

// quantaOf converts a simulated duration into machine quanta of class.
func quantaOf(class string, d time.Duration) float64 {
	cfg, err := machine.ClassConfig(class)
	if err != nil || cfg.Quantum <= 0 {
		return 0
	}
	return float64(d / cfg.Quantum)
}

// qosTally pools post-warmup FG executions against their deadlines.
type qosTally struct {
	met, total int
	bgSum      float64
	bgN        int
}

// add counts rr's executions; base is the same mix's Baseline BG
// instruction rate (0 skips the throughput ratio).
func (q *qosTally) add(rr *experiment.RunResult, base float64) {
	for _, s := range rr.Streams {
		for _, d := range s.Durations {
			if d <= s.Deadline {
				q.met++
			}
			q.total++
		}
	}
	if base > 0 {
		q.bgSum += rr.BGInstrRate / base
		q.bgN++
	}
}

func (q *qosTally) success() float64 {
	if q.total == 0 {
		return 0
	}
	return float64(q.met) / float64(q.total)
}

func (q *qosTally) bgThroughput() float64 {
	if q.bgN == 0 {
		return 0
	}
	return q.bgSum / float64(q.bgN)
}
