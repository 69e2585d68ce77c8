package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dirigent/internal/golden"
)

// TestApplyFastMatchesApply pins the occupancy update bit for bit to the
// map-based Apply it replaced. The reference is testdata/golden/
// apply_sequence.json, recorded by scripts/goldens-at-parent.sh on the last
// commit that had both implementations, where the two were checked equal.
// The replayed history covers partitioned classes, a mid-run class move, a
// partition shrink to zero ways and back, tasks pausing in and out of the
// traffic slice, an unregistered task, WSS-capped equilibria, and handles
// periodically left nil to cover the lookup fallback. Every hit rate and
// occupancy along the way goes into the digest.
func TestApplyFastMatchesApply(t *testing.T) {
	l := MustNew(DefaultConfig())
	cs := []ClassID{0, l.DefineClass(), l.DefineClass()}
	if err := l.SetPartition(map[ClassID]int{0: 4, cs[1]: 10, cs[2]: 6}); err != nil {
		t.Fatal(err)
	}
	const nTasks = 5
	classOf := []int{0, 1, 1, 2, 2}
	wss := []float64{2 << 20, 6 << 20, 24 << 20, 1 << 20, 12 << 20}
	loc := []float64{0.95, 0.9, 0.6, 0.99, 0.7}
	acc := []float64{3000, 5000, 20000, 800, 9000}
	refs := make([]*TaskRef, nTasks)
	for i := 0; i < nTasks; i++ {
		if err := l.Register(i+1, cs[classOf[i]]); err != nil {
			t.Fatal(err)
		}
		refs[i] = l.Ref(i + 1)
	}

	h := sha256.New()
	for step := 0; step < 4000; step++ {
		switch step {
		case 1500: // class move: handles must survive it
			if err := l.Register(2, cs[2]); err != nil {
				t.Fatal(err)
			}
		case 2500: // shrink a class to zero ways: fast-drain path
			if err := l.SetPartition(map[ClassID]int{cs[2]: 0}); err != nil {
				t.Fatal(err)
			}
		case 3000:
			if err := l.SetPartition(map[ClassID]int{cs[2]: 6}); err != nil {
				t.Fatal(err)
			}
		}
		var tr []Traffic
		for i := 0; i < nTasks; i++ {
			if (step+i)%7 == 0 { // periodic pauses exercise pass 3
				continue
			}
			hr := l.HitRateRef(refs[i], wss[i], loc[i])
			fmt.Fprintf(h, "h %d %d %v\n", step, i+1, hr)
			r := refs[i]
			if step%11 == 0 {
				r = nil // cover the lookup fallback
			}
			tr = append(tr, Traffic{Task: i + 1, Accesses: acc[i], MissRate: 1 - hr, WSS: wss[i], Ref: r})
		}
		if step%13 == 0 { // unregistered task: must be skipped
			tr = append(tr, Traffic{Task: 99, Accesses: 1000, MissRate: 0.5, WSS: 1 << 20})
		}
		l.ApplyFast(quantum, tr)
		for i := 0; i < nTasks; i++ {
			fmt.Fprintf(h, "o %d %d %v\n", step, i+1, l.Occupancy(i+1))
		}
	}
	// Unregister, then keep stepping: the departed task must stay gone.
	l.Unregister(3)
	for step := 0; step < 50; step++ {
		hr := l.HitRateRef(refs[0], wss[0], loc[0])
		l.ApplyFast(quantum, []Traffic{{Task: 1, Accesses: acc[0], MissRate: 1 - hr, WSS: wss[0], Ref: refs[0]}})
		for i := 0; i < nTasks; i++ {
			fmt.Fprintf(h, "u %d %d %v\n", step, i+1, l.Occupancy(i+1))
		}
	}
	g := struct {
		Final  []float64 `json:"final_occupancy"`
		Steps  int       `json:"steps"`
		SHA256 string    `json:"sha256"`
	}{Steps: 4050, SHA256: hex.EncodeToString(h.Sum(nil))}
	for i := 0; i < nTasks; i++ {
		g.Final = append(g.Final, l.Occupancy(i+1))
	}
	golden.Check(t, "testdata/golden/apply_sequence.json", g)
}
