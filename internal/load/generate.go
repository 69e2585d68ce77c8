package load

import (
	"fmt"
	"math"
	"sort"

	"dirigent/internal/sim"
)

// Synthesize generates a churn trace from the spec under the given seed
// (0 uses the spec's own seed). The same spec and seed always produce the
// identical trace — every draw comes from split sim.Rand streams in a
// fixed order, timestamps are integer microseconds, and the max_live
// admission sweep is a pure function of the drawn schedule.
//
// Per arrival the generator draws, in order: the arrival time (thinned
// non-homogeneous Poisson), the template (weighted), the lifetime
// (exponential, clamped to lifetime.min_s and to the trace horizon), and —
// for runtime-configuration templates — the retarget schedule (exponential
// inter-arrivals; per retarget a stream index and a target factor in
// [0.8, 1.2) of the template's base target).
func Synthesize(s Spec, seed uint64) (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = s.Seed
	}
	root := sim.NewRand(seed)
	// Independent streams per draw kind: adding retargets to a spec must
	// not shift its arrival schedule.
	arrivalRng := root.Split()
	pickRng := root.Split()
	lifeRng := root.Split()
	retargetRng := root.Split()

	durUS := int64(s.DurationS * 1e6)
	peak := s.Arrival.peak()
	totalWeight := 0.0
	for _, t := range s.Tenants {
		totalWeight += t.weight()
	}

	type pending struct {
		events  []Event // create, retargets…, evict (tenant-local order)
		atUS    int64
		evictUS int64
	}
	var arrivals []pending
	n := 0
	for t := expDraw(arrivalRng, peak); t < s.DurationS; t += expDraw(arrivalRng, peak) {
		// Lewis–Shedler thinning: accept a peak-rate candidate with
		// probability rate(t)/peak.
		if arrivalRng.Float64() >= s.Arrival.rateAt(t)/peak {
			continue
		}
		tmpl := pickTemplate(s.Tenants, totalWeight, pickRng)
		atUS := int64(t * 1e6)
		life := expDraw(lifeRng, 1/s.Lifetime.MeanS)
		if life < s.Lifetime.MinS {
			life = s.Lifetime.MinS
		}
		evictUS := atUS + int64(life*1e6)
		if evictUS > durUS {
			evictUS = durUS
		}
		name := fmt.Sprintf("%s-%d", tmpl.Name, n)
		n++
		p := pending{atUS: atUS, evictUS: evictUS}
		p.events = append(p.events, Event{
			AtUS: atUS, Op: OpCreate, Tenant: name, Template: tmpl.Name,
		})
		if s.RetargetRatePerS > 0 && tmpl.useRuntime() {
			for rt := t + expDraw(retargetRng, s.RetargetRatePerS); ; rt += expDraw(retargetRng, s.RetargetRatePerS) {
				rtUS := int64(rt * 1e6)
				if rtUS >= evictUS {
					break
				}
				stream := retargetRng.Intn(len(tmpl.Mix.FG))
				factor := 0.8 + float64(0.4*retargetRng.Float64())
				p.events = append(p.events, Event{
					AtUS: rtUS, Op: OpRetarget, Tenant: name,
					Stream:   stream,
					TargetUS: int64(tmpl.TargetMS[stream] * 1000 * factor),
				})
			}
		}
		p.events = append(p.events, Event{AtUS: evictUS, Op: OpEvict, Tenant: name})
		arrivals = append(arrivals, p)
	}

	// Admission sweep: enforce max_live over the drawn schedule. Arrivals
	// are already time-ordered; a min-heap of evict times tracks the live
	// set. An eviction at exactly a candidate's arrival time frees its
	// slot first, matching the replay's tie-break (earlier-seq first).
	tr := &Trace{Spec: s.Name, Seed: seed, DurationUS: durUS}
	var evictHeap []int64
	for _, p := range arrivals {
		for len(evictHeap) > 0 && evictHeap[0] <= p.atUS {
			heapPop(&evictHeap)
		}
		if s.MaxLive > 0 && len(evictHeap) >= s.MaxLive {
			tr.Suppressed++
			continue
		}
		heapPush(&evictHeap, p.evictUS)
		tr.Events = append(tr.Events, p.events...)
	}

	// Global time order with emission order as the tie-break, so a
	// tenant's own events keep their causal order at equal timestamps.
	sort.SliceStable(tr.Events, func(i, j int) bool {
		return tr.Events[i].AtUS < tr.Events[j].AtUS
	})
	for i := range tr.Events {
		tr.Events[i].Seq = i
	}
	return tr, nil
}

// expDraw samples an exponential inter-arrival gap (seconds) at the given
// rate. Log1p(-u) keeps the draw finite for u near 1.
func expDraw(r *sim.Rand, rate float64) float64 {
	return -math.Log1p(-r.Float64()) / rate
}

// pickTemplate draws a template proportional to weight.
func pickTemplate(ts []TenantTemplate, total float64, r *sim.Rand) *TenantTemplate {
	u := r.Float64() * total
	for i := range ts {
		u -= ts[i].weight()
		if u < 0 {
			return &ts[i]
		}
	}
	return &ts[len(ts)-1] // float round-off: the last template absorbs it
}

// heapPush / heapPop maintain a slice-backed min-heap of evict times.
func heapPush(h *[]int64, v int64) {
	*h = append(*h, v)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func heapPop(h *[]int64) int64 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && s[l] < s[small] {
			small = l
		}
		if r < len(s) && s[r] < s[small] {
			small = r
		}
		if small == i {
			break
		}
		s[small], s[i] = s[i], s[small]
		i = small
	}
	return top
}
