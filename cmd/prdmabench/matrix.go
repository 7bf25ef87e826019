package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"prdma/internal/scenario"
)

// matrixOptions selects which cells `prdmabench -matrix` sweeps.
type matrixOptions struct {
	seed int64
	// points overrides the crash points per cell (0 = matrix default).
	points int
	// shards/replicas reshape the deployment when set (0 = matrix default).
	shards, replicas int
	// faults is a comma-separated adversary list ("" = every builtin);
	// workloads a YCSB letter set like "ABF" ("" = A–F).
	faults    string
	workloads string
	// mutant seeds a known bug class into every cell; the run is then
	// expected to exit non-zero (the detection check).
	mutant   string
	parallel int
	jsonOut  string
}

// buildMatrix resolves the options into a validated MatrixSpec.
func buildMatrix(o matrixOptions) (scenario.MatrixSpec, error) {
	m := scenario.DefaultMatrixSpec(o.seed)
	if o.points > 0 {
		m.Points = o.points
	}
	if o.shards > 0 {
		m.Shards = o.shards
	}
	if o.replicas > 0 {
		m.Replicas = o.replicas
	}
	if o.faults != "" {
		m.Faults = m.Faults[:0]
		for _, name := range strings.Split(o.faults, ",") {
			f, err := scenario.FaultByName(strings.TrimSpace(name))
			if err != nil {
				return m, err
			}
			m.Faults = append(m.Faults, f)
		}
	}
	if o.workloads != "" {
		ws, err := scenario.ParseWorkloads(o.workloads)
		if err != nil {
			return m, err
		}
		m.Workloads = ws
	}
	m.Mutant = o.mutant
	return m, m.Validate()
}

// runMatrix sweeps every cell across a worker pool and prints the figure:
// one row per (fault, workload) with the cell's crash-free performance,
// the adversary's interference counters, the controller work across the
// crash points, and the invariant verdict. Rows print in deterministic
// matrix order regardless of worker scheduling; output is byte-identical
// for a fixed seed. Returns the number of cells with violations.
func runMatrix(w io.Writer, m scenario.MatrixSpec, parallel int) ([]scenario.CellResult, int) {
	cells := m.Cells()
	workers := parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	results := make([]scenario.CellResult, len(cells))
	var wg sync.WaitGroup
	next := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				results[idx] = m.RunCell(cells[idx])
			}
		}()
	}
	for idx := range cells {
		next <- idx
	}
	close(next)
	wg.Wait()

	fmt.Fprintf(w, "adversarial matrix: %d faults x %d workloads, %dx%d cluster, seed=%d, %d crash points/cell",
		len(m.Faults), len(m.Workloads), m.Shards, m.Replicas, m.Seed, m.Points)
	if m.Mutant != "" {
		fmt.Fprintf(w, ", mutant=%s", m.Mutant)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-15s %-3s %5s %8s %8s %8s %8s %6s %5s %6s %6s %6s %5s %7s %7s %s\n",
		"fault", "wl", "ops", "kops", "p50us", "p99us", "resends", "drops", "dup", "reord",
		"stale", "retry", "fo", "replay", "ship", "verdict")
	bad := 0
	for _, r := range results {
		fmt.Fprintf(w, "%-15s %-3s %5d %8.1f %8.1f %8.1f %8d %6d %5d %6d %6d %6d %5d %7d %7d %s\n",
			r.Fault, r.Workload, r.Ops, r.KOPS, r.P50US, r.P99US, r.Resends, r.FaultDrops,
			r.Duplicated, r.Reordered, r.StaleDrops, r.Retries, r.Failovers, r.Replayed,
			r.Shipped, r.Verdict())
		if r.Violations == 0 {
			continue
		}
		bad++
		fmt.Fprintf(w, "  VIOLATION %s\n", r.First)
		fmt.Fprintf(w, "  minimal repro: %s\n", r.Repro)
	}
	return results, bad
}

// matrixReport is the -json document for a matrix run (the BENCH artifact).
type matrixReport struct {
	Seed        int64                 `json:"seed"`
	Shards      int                   `json:"shards"`
	Replicas    int                   `json:"replicas"`
	Points      int                   `json:"points"`
	Mutant      string                `json:"mutant,omitempty"`
	TotalWallMS float64               `json:"total_wall_ms"`
	Cells       []scenario.CellResult `json:"cells"`
}

// matrixMain is the -matrix entry point; it exits non-zero when any cell
// violates the §4.2 invariants (which a -mutant run is expected to).
func matrixMain(o matrixOptions) {
	m, err := buildMatrix(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	start := time.Now()
	results, bad := runMatrix(os.Stdout, m, o.parallel)
	wall := time.Since(start)
	fmt.Fprintf(os.Stderr, "[matrix done in %v]\n", wall.Round(time.Millisecond))
	if o.jsonOut != "" {
		rep := matrixReport{
			Seed: m.Seed, Shards: m.Shards, Replicas: m.Replicas,
			Points: m.Points, Mutant: m.Mutant,
			TotalWallMS: float64(wall.Nanoseconds()) / 1e6,
			Cells:       results,
		}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(o.jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "matrix: %d cell(s) violated the durability invariants\n", bad)
		os.Exit(1)
	}
}
