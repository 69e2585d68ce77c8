package main

import (
	"os"
	"strings"
	"testing"
)

// TestExample runs the example and requires the output that README.md
// quotes in its block fenced as quickstart, byte for byte.
func TestExample(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, quote, _ := strings.Cut(string(readme), "```quickstart\n")
	quote, _, _ = strings.Cut(quote, "```")
	if string(got) != quote {
		t.Errorf("quickstart printed\n%s\nREADME.md quotes\n%s", got, quote)
	}
}
