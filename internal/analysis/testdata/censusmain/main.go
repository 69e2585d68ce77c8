// Command censusmain is the program that calls the census fixture.
package main

import (
	"fmt"

	"fixture/internal/census"
)

func main() {
	l := census.New()
	fmt.Println(census.Record(l, 1), census.Drain(l), l)
}
