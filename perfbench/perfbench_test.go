package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// bounds reads the end-to-end regression bounds from BENCHMARK.json.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

func measure(t *testing.T, slow float64) map[string]metric {
	t.Helper()
	w, _ := findWorkload("durable-rpc")
	res, err := runWorkload(w, options{workload: w.name, seed: 1, seconds: 3, slow: slow, expect: "expected.json"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("run not correct: %v", res.report)
	}
	return res.Metrics
}

// worse reports by what share metric name got worse from a to b.
func worse(name string, a, b map[string]metric) float64 {
	if name == "cpu_ops_per_s" {
		return (a[name].Value - b[name].Value) / a[name].Value
	}
	return (b[name].Value - a[name].Value) / a[name].Value
}

// TestSensitivity injects host busy-work proportional to measured time in
// the benchmark's own code (never in program code) and requires the
// throughput and round-time metrics to report it as worse beyond their
// bounds, while two unmodified runs stay within them.
func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for several seconds")
	}
	bound := bounds(t)
	base := measure(t, 0)
	again := measure(t, 0)
	slowed := measure(t, 0.5)
	for _, name := range []string{"cpu_ops_per_s", "round_cpu_s"} {
		if d := worse(name, base, again); d > bound[name] {
			t.Errorf("%s: unmodified rerun reads %.1f%% worse, beyond the %.0f%% bound", name, 100*d, 100*bound[name])
		}
		if d := worse(name, base, slowed); d <= bound[name] {
			t.Errorf("%s: injected slowdown reads only %.1f%% worse, within the %.0f%% bound", name, 100*d, 100*bound[name])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer("t")
	tr.spans = []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "setup", Start: 10, End: 30, Parent: 0},
		{Name: "run", Start: 20, End: 60, Parent: 0}, // overlaps setup
		{Name: "inner", Start: 30, End: 40, Parent: 2},
	}
	self := tr.selfTimes()
	want := map[string]time.Duration{"round": 50, "setup": 20, "run": 30, "inner": 10}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %d, want %d", name, self[name], d)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"prdma/internal/pmem.(*Device).Persist", "prdma/internal/rpc.(*Store).ApplyFromBuffer"}, "pmem"},
		{[]string{"runtime.memmove", "prdma/internal/cache.(*LLC).Write", "prdma/internal/rnic.(*NIC).process"}, "host"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep", "runtime.ready", "runtime.chansend", "prdma/internal/sim.(*Kernel).schedule"}, "runtime.sched"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "prdma/internal/fabric.(*Network).Send"}, "runtime.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.nanotime", "runtime.sysmon"}, "runtime.sched"},
		{[]string{"prdma/perfbench.checkPayload", "prdma/perfbench.durableRPCFamily.func2.1"}, "bench"},
		{[]string{"encoding/json.Marshal"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestDecodeProfile checks the decoder on a real CPU profile: a busy loop
// in this package must dominate it.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pct, n := attribute(stacks)
	if n < 10 {
		t.Skipf("only %d samples", n)
	}
	if pct["bench"] < 50 {
		t.Errorf("busy loop in the benchmark got %.1f%% of %d samples", pct["bench"], n)
	}
}
