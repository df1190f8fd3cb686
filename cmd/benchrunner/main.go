// Command benchrunner regenerates the experiment tables of DESIGN.md's
// index (internal/experiments' registry) and prints them. Run with -quick
// for the Small sizes, or -only to pick experiments by ID.
//
//	go run ./cmd/benchrunner               # every table at full size
//	go run ./cmd/benchrunner -quick        # every table at Small size
//	go run ./cmd/benchrunner -only E7,E10  # E7, E10a, E10b and E10c
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run every experiment at its Small size")
	only := flag.String("only", "", "comma-separated experiment IDs; E10 selects E10a-c")
	flag.Parse()
	if err := run(*quick, *only); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run(quick bool, only string) error {
	sel, err := experiments.Select(only)
	if err != nil {
		return err
	}
	size := experiments.Full
	if quick {
		size = experiments.Small
	}
	for _, e := range sel {
		start := time.Now()
		tbl, err := e.Run(size)
		if err != nil {
			return err
		}
		tbl.Render(os.Stdout)
		fmt.Printf("(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
