package server

import (
	"sync"
	"sync/atomic"

	"dirigent/internal/telemetry"
)

// broadcaster fans one tenant's telemetry stream out to live subscribers.
// It implements telemetry.Recorder and is teed into the tenant's session
// bus, so subscribers see exactly the events a JSONL trace would.
//
// Record is called from the tenant's worker goroutine — the simulation hot
// path — so delivery is strictly non-blocking: each subscriber has a
// bounded channel, and an event that does not fit is dropped and counted
// (per subscriber and in total) instead of stalling the run. Recording is
// observational; dropping affects only what a subscriber sees, never the
// simulation.
type broadcaster struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool

	nAll     atomic.Int32
	nQuantum atomic.Int32
	dropped  atomic.Int64
}

// subscriber is one live telemetry consumer.
type subscriber struct {
	ch chan telemetry.Event
	// quantum opts into KindQuantumStep events (one per 250 µs of simulated
	// time; excluded by default, exactly like JSONL traces).
	quantum bool
	dropped atomic.Int64
}

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: map[*subscriber]struct{}{}}
}

// Enabled gates event construction on the hot path: with no subscribers the
// tenant's bus skips broadcast work entirely.
func (b *broadcaster) Enabled(k telemetry.Kind) bool {
	if k == telemetry.KindQuantumStep {
		return b.nQuantum.Load() > 0
	}
	return b.nAll.Load() > 0
}

// Record delivers ev to every subscriber whose buffer has room.
func (b *broadcaster) Record(ev telemetry.Event) {
	if b.nAll.Load() == 0 {
		return
	}
	b.mu.Lock()
	for s := range b.subs {
		if ev.Kind == telemetry.KindQuantumStep && !s.quantum {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// subscribe registers a new consumer with a subscriberBuffer-event buffer.
// On a broadcaster that has already been closed (the tenant's run ended)
// the subscriber's channel is returned pre-closed, so a late consumer sees
// a clean empty stream.
func (b *broadcaster) subscribe(quantum bool) *subscriber {
	s := &subscriber{ch: make(chan telemetry.Event, subscriberBuffer), quantum: quantum}
	b.mu.Lock()
	if b.closed {
		close(s.ch)
		b.mu.Unlock()
		return s
	}
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	b.nAll.Add(1)
	if quantum {
		b.nQuantum.Add(1)
	}
	return s
}

// unsubscribe removes a consumer and closes its channel. Idempotent, and
// safe against a concurrent closeAll.
func (b *broadcaster) unsubscribe(s *subscriber) {
	b.mu.Lock()
	if _, ok := b.subs[s]; !ok {
		b.mu.Unlock()
		return
	}
	delete(b.subs, s)
	close(s.ch)
	b.mu.Unlock()
	b.nAll.Add(-1)
	if s.quantum {
		b.nQuantum.Add(-1)
	}
}

// closeAll ends every subscriber's stream (the run completed or the tenant
// is being removed). Consumers drain their remaining buffered events and
// see the channel close. Idempotent.
func (b *broadcaster) closeAll() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	for s := range b.subs {
		delete(b.subs, s)
		close(s.ch)
		b.nAll.Add(-1)
		if s.quantum {
			b.nQuantum.Add(-1)
		}
	}
	b.mu.Unlock()
}

// Subscribers returns the current live-consumer count.
func (b *broadcaster) Subscribers() int { return int(b.nAll.Load()) }

// Dropped returns the total events dropped across all subscribers.
func (b *broadcaster) Dropped() int64 { return b.dropped.Load() }
