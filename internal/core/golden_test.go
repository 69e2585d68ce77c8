package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

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
		{"profile_ferret.json", "ferret", machine.DefaultClass},
		{"profile_bodytrack_dual_socket.json", "bodytrack", "dual-socket"},
	} {
		mcfg, err := machine.ClassConfig(g.class)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ProfileBenchmark(workload.MustByName(g.bench), ProfilerOptions{MachineConfig: mcfg})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", g.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: profile differs from the recorded golden\ngot:\n%s", g.file, got)
		}
	}
}
