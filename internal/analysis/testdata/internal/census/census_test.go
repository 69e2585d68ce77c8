package census

import "testing"

func TestTestOnly(t *testing.T) {
	if New().TestOnly() != 0 {
		t.Fatal("TestOnly")
	}
}
