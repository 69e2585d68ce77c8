// Package census seeds the edges of TestNoTestOnlyDeclarations' method
// and field rules: TestCensusFixture requires the census to name exactly
// TestOnly, written, added and bumped here.
package census

import "fmt"

// Ledger has one field and one method per edge of the rules.
type Ledger struct {
	shown   int         // read by String
	written int         // only assigned
	added   float64     // only added to with +=
	bumped  map[int]int // only incremented through an index
	offset  int         // read only by the assembly, as Ledger_offset
}

// New returns an empty ledger.
func New() *Ledger { return &Ledger{bumped: map[int]int{}, offset: 1} }

// TestOnly is called by its test and by no program.
func (l *Ledger) TestOnly() int { return 0 }

// String satisfies fmt.Stringer, so it needs no caller of its own.
func (l *Ledger) String() string { return fmt.Sprint(l.shown) }

// Flush is reached only through the interface literal in Drain.
func (l *Ledger) Flush() error { return nil }

// Drain flushes w when it can be flushed.
func Drain(w any) error {
	if f, ok := w.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// Record writes the write-only fields and returns the assembly's read.
func Record(l *Ledger, k int) int {
	l.written = k
	l.added += 0.5
	l.bumped[k]++
	return offset(l)
}

// offset returns l.offset; it is implemented in census_amd64.s.
func offset(l *Ledger) int
