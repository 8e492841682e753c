// Package bench is the experiment harness that regenerates the tables and
// figures of the MPSM paper's evaluation (Section 5). Every figure has a
// registered experiment that generates the corresponding workload, runs the
// relevant algorithms, and prints the same rows/series the paper reports
// (execution time per phase, per multiplicity, per parallelism level, per
// worker, ...), followed by the shape the paper leads one to expect.
//
// Absolute numbers differ from the paper — the substrate is a Go program on
// whatever machine runs the benchmark rather than a 32-core, 1 TB NUMA server
// — but the shapes (who wins, by roughly what factor, where the crossovers
// are) are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"
)

// Config controls the scale and parallelism of the experiments.
type Config struct {
	// Scale multiplies the base dataset sizes. 1.0 corresponds to
	// |R| = 262144 tuples (2^18); the paper uses 1600M, which would be a
	// scale of ~6400 and is impractical for unit benchmarks.
	Scale float64
	// Workers is the maximum degree of parallelism experiments use; 0
	// selects GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the configuration the CLI uses when no flags are
// given: scale 1.0 on GOMAXPROCS workers.
func DefaultConfig() Config {
	return Config{Scale: 1.0, Workers: runtime.GOMAXPROCS(0)}
}

// baseRSize is the |R| cardinality at scale 1.0.
const baseRSize = 1 << 18

// RSize returns the scaled |R| cardinality (at least 1024 tuples so that
// every experiment remains meaningful at tiny scales).
func (c Config) RSize() int {
	return max(int(float64(baseRSize)*c.Scale), 1024)
}

// workers returns the normalized worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Experiment is one registered, runnable experiment.
type Experiment struct {
	// Name is the identifier used on the command line, e.g. "figure12".
	Name string
	// Title is the human-readable description shown in listings.
	Title string
	// Run executes the experiment and writes its report to w.
	Run func(cfg Config, w io.Writer) error
}

// registry holds all experiments keyed by name.
var registry = map[string]Experiment{}

// register adds an experiment to the registry; duplicate names panic because
// they indicate a programming error in this package.
func register(e Experiment) {
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("bench: duplicate experiment %q", e.Name))
	}
	registry[e.Name] = e
}

// Experiments returns all registered experiments sorted by name.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// RunAll executes every registered experiment in name order.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range Experiments() {
		fmt.Fprintf(w, "=== %s: %s ===\n", e.Name, e.Title)
		if err := e.Run(cfg, w); err != nil {
			return fmt.Errorf("bench: experiment %s: %w", e.Name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// table is a small helper for aligned experiment output.
type table struct {
	tw *tabwriter.Writer
}

// newTable creates a table writer over w.
func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

// row writes one tab-separated row.
func (t *table) row(cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

// flush renders the table.
func (t *table) flush() { t.tw.Flush() }

// ms renders a duration in milliseconds with two decimals, the unit the
// paper's figures use.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}
