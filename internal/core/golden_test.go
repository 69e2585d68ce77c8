package core

import (
	"testing"

	"dirigent/internal/golden"
	"dirigent/internal/machine"
	"dirigent/internal/workload"
)

// TestProfileGolden pins offline profiling byte for byte on the paper's
// machine and on the dual-socket class (per-socket solver). The profiles
// under testdata/golden were recorded by scripts/goldens-at-parent.sh on the
// last commit with two step engines, where the per-quantum reference engine
// and batched stepping produced them identically.
func TestProfileGolden(t *testing.T) {
	for _, g := range []struct{ file, bench, class string }{
		{"testdata/golden/profile_ferret.json", "ferret", machine.DefaultClass},
		{"testdata/golden/profile_bodytrack_dual_socket.json", "bodytrack", "dual-socket"},
	} {
		mcfg, err := machine.ClassConfig(g.class)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ProfileBenchmark(workload.MustByName(g.bench), ProfilerOptions{MachineConfig: mcfg})
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, g.file, p)
	}
}
