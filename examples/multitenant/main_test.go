package main

import "testing"

// TestExample runs the example end to end; a failure exits non-zero.
func TestExample(t *testing.T) { main() }
