package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"prdma/internal/bench"
)

// parscaleReport is the BENCH_PR9.json document: the partitioned-engine
// scaling run plus the open-loop population smoke.
type parscaleReport struct {
	Scale      string             `json:"scale"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Scaling    *bench.ScaleResult `json:"scaling"`
	Smoke      *bench.SmokeResult `json:"smoke"`
}

// parscaleMain runs the 8-shard partitioned cluster once on the engine, then
// the large-population open-loop smoke. Exit is nonzero if the run fails or
// a smoke invariant fails; the fingerprint is printed for callers to diff
// against a recorded one.
func parscaleMain(o bench.Options, scale string, logclients int, jsonOut string, csv bool) {
	emit := func(t bench.Table) {
		if csv {
			fmt.Printf("# %s\n", t.Title)
			if err := t.CSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println()
		} else {
			t.Fprint(os.Stdout)
		}
	}

	sr, err := o.ParallelScale()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	emit(sr.Table())

	sm, err := o.MillionClientSmoke(logclients)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	emit(sm.Table())

	rep := parscaleReport{
		Scale:      scale,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scaling:    sr,
		Smoke:      sm,
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !sm.OK {
		fmt.Fprintln(os.Stderr, "parscale: smoke invariants failed")
		os.Exit(1)
	}
}
