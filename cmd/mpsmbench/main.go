// Command mpsmbench runs the experiments that regenerate the figures of the
// MPSM paper's evaluation section and prints their tables, each followed by
// the shape the paper leads one to expect.
//
// Usage:
//
//	mpsmbench -list
//	mpsmbench -experiment figure12 -scale 0.1 -workers 8
//	mpsmbench -all -scale 0.05
//
// The scale factor multiplies the base dataset size (|R| = 262144 tuples at
// scale 1.0). The paper's 1600M-tuple datasets correspond to a scale of
// roughly 6400 and require hundreds of GB of RAM.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments and exit")
		all        = flag.Bool("all", false, "run every experiment")
		experiment = flag.String("experiment", "", "name of the experiment to run (see -list)")
		scale      = flag.Float64("scale", 0, "dataset scale factor (default 1.0)")
		workers    = flag.Int("workers", 0, "maximum worker count (default GOMAXPROCS)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}

	switch {
	case *list:
		for _, e := range bench.Experiments() {
			fmt.Printf("%-22s %s\n", e.Name, e.Title)
		}
	case *all:
		if err := bench.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mpsmbench:", err)
			os.Exit(1)
		}
	case *experiment != "":
		e, ok := bench.Lookup(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "mpsmbench: unknown experiment %q (use -list)\n", *experiment)
			os.Exit(1)
		}
		fmt.Printf("=== %s: %s ===\n", e.Name, e.Title)
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mpsmbench:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
