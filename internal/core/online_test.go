package core

import (
	"testing"
	"time"

	"dirigent/internal/sim"
)

func TestProfileOnlineValidation(t *testing.T) {
	if _, err := ProfileOnline(nil, 0, OnlineProfileOptions{}); err == nil {
		t.Error("nil colocation should error")
	}
	colo := buildColo(t, []string{"fluidanimate"}, "rs", false, 31)
	if _, err := ProfileOnline(colo, -1, OnlineProfileOptions{}); err == nil {
		t.Error("negative stream should error")
	}
	if _, err := ProfileOnline(colo, 1, OnlineProfileOptions{}); err == nil {
		t.Error("out-of-range stream should error")
	}
	if _, err := ProfileOnline(colo, 0, OnlineProfileOptions{SamplePeriod: time.Nanosecond}); err == nil {
		t.Error("sample period below quantum should error")
	}
}

func TestProfileOnlineMatchesOffline(t *testing.T) {
	// Online profiling (BG paused) must produce essentially the offline
	// profile: same benchmark, same segment granularity, near-identical
	// total duration — the isolation is equivalent.
	offline := profileFor(t, "fluidanimate")
	colo := buildColo(t, []string{"fluidanimate"}, "rs", false, 31)
	// Let contention run a while first, as a real system would.
	for colo.Machine().Now() < sim.Time(2*time.Second) {
		colo.Advance(sim.Time(2 * time.Second))
	}
	online, err := ProfileOnline(colo, 0, OnlineProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if online.Benchmark != "fluidanimate" {
		t.Errorf("Benchmark = %s", online.Benchmark)
	}
	offDur := offline.TotalDuration().Seconds()
	onDur := online.TotalDuration().Seconds()
	if onDur < offDur*0.93 || onDur > offDur*1.07 {
		t.Errorf("online duration %.3fs vs offline %.3fs — isolation not equivalent", onDur, offDur)
	}
	offProg := offline.TotalProgress()
	onProg := online.TotalProgress()
	if onProg < offProg*0.99 || onProg > offProg*1.01 {
		t.Errorf("online progress %g vs offline %g", onProg, offProg)
	}
	// All BG tasks resumed afterwards.
	for _, w := range colo.BG() {
		if p, _ := colo.Machine().Paused(w.Task); p {
			t.Error("BG task left paused after online profiling")
		}
	}
}

func TestProfileOnlineDrivesPredictor(t *testing.T) {
	// An online profile must be usable by a runtime end-to-end.
	colo := buildColo(t, []string{"fluidanimate"}, "namd", false, 33)
	for colo.Machine().Now() < sim.Time(time.Second) {
		colo.Advance(sim.Time(time.Second))
	}
	profile, err := ProfileOnline(colo, 0, OnlineProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(colo, []*Profile{profile}, RuntimeConfig{
		Targets: []time.Duration{700 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := colo.FG()[0].Completed()
	if err := rt.RunExecutions(start+10, sim.Time(5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if rt.Invocations() == 0 {
		t.Error("runtime never sampled")
	}
}

func TestProfileOnlineRestoresPreexistingPauses(t *testing.T) {
	colo := buildColo(t, []string{"fluidanimate"}, "rs", false, 35)
	// Pause one BG task before profiling; it must remain paused after.
	pre := colo.BG()[2].Task
	if err := colo.Machine().Pause(pre); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileOnline(colo, 0, OnlineProfileOptions{}); err != nil {
		t.Fatal(err)
	}
	if p, _ := colo.Machine().Paused(pre); !p {
		t.Error("pre-existing pause should be preserved")
	}
	for _, w := range colo.BG() {
		if w.Task == pre {
			continue
		}
		if p, _ := colo.Machine().Paused(w.Task); p {
			t.Error("profiler-paused task should be resumed")
		}
	}
}
