// Command perfbench is the repository's benchmark: it runs one workload of
// the simulator for a fixed host-time budget, checks every simulated
// output, and prints the end-to-end metrics (or, traced, the per-layer
// metrics) as the last line of standard output. See README.md.
//
//	go run . --workload durable-rpc --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// roundBudget bounds a run however slow its rounds get: no round starts
// after it, so a run ends well within three minutes.
const roundBudget = 150 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string  // where a traced run writes spans and the CPU profile
	expect   string  // expected.json with recorded fingerprints
	slow     float64 // injected benchmark-side slowdown, set only by TestSensitivity
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", "", "directory for trace artifacts (spans, CPU profile)")
	flag.StringVar(&o.expect, "expect", "", "expected.json holding recorded fingerprints")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fatalf("unknown workload %q", o.workload)
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fatalf("%v", err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	report []string // human-readable lines printed before the result
}

func (res *result) print(out *os.File) {
	for _, l := range res.report {
		fmt.Fprintln(out, l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintln(out, string(b))
}

// runRounds appends rounds until budget host seconds have passed (at least
// one round), stopping early at the first failed round. Only the run's
// first round keeps its per-op latencies; later ones keep their
// fingerprint, so a long run does not hold memory that grows with it.
func runRounds(rounds []*round, play func(r *round), o options, budget time.Duration, tr *tracer) []*round {
	start := time.Now()
	for n := 0; n == 0 || (time.Since(start) < budget && time.Since(start) < roundBudget); n++ {
		r := newRound(tr, o.slow)
		play(r)
		r.done(len(rounds) == 0)
		rounds = append(rounds, r)
		if len(r.failed) > 0 {
			break
		}
	}
	return rounds
}

func runWorkload(w workload, o options) (*result, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	play := w.prepare(o.seed)
	var rounds, traced []*round
	var prof bytes.Buffer
	var tr *tracer
	if !o.trace {
		rounds = runRounds(nil, play, o, budget, nil)
	} else {
		// The first half runs untraced for the tracing-overhead baseline;
		// the second half records spans and a CPU profile.
		rounds = runRounds(nil, play, o, budget/2, nil)
		n := len(rounds)
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, o.seed, time.Now().UnixNano()))
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		rounds = runRounds(rounds, play, o, budget/2, tr)
		pprof.StopCPUProfile()
		traced = rounds[n:]
	}

	// Correctness: failed ops, and every round of the seed reproducing the
	// first one's fingerprint.
	first := rounds[0]
	fp := first.fp
	for i, r := range rounds {
		res.Attempted += r.ops
		for _, f := range r.failed {
			res.report = append(res.report, fmt.Sprintf("FAIL round %d: %s", i, f))
		}
		if len(r.failed) > 0 {
			res.Correct = false
			res.Failed += max(r.failedOps, 1)
		} else if r.fp != fp {
			res.Correct = false
			res.Failed++
			res.report = append(res.report, fmt.Sprintf("FAIL round %d: fingerprint %016x differs from round 0's %016x (same seed)", i, r.fp, fp))
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	if res.Correct && o.expect != "" {
		msg, err := checkExpected(o.expect, w.name, o.seed, fp)
		if err != nil {
			return nil, err
		}
		if msg != "" {
			res.Correct = false
			res.Failed++
			res.report = append(res.report, "FAIL "+msg)
		}
	}

	// Metrics a user sees come from untraced rounds only.
	untraced := rounds[:len(rounds)-len(traced)]
	e2e := endToEnd(untraced)
	walls := wallTime(untraced)
	sims := simMetrics(first)
	res.report = append(res.report, fmt.Sprintf("workload %s  seed %d  rounds %d  ops/round %d (%s)  fingerprint %016x",
		w.name, o.seed, len(rounds), first.ops, w.opName, fp))
	for _, part := range []struct {
		m    map[string]metric
		note string
	}{{e2e, "(bounded)"}, {walls, "(host wall)"}, {sims, "(virtual)"}} {
		for _, k := range sortedKeys(part.m) {
			res.report = append(res.report, fmt.Sprintf("  %-22s %14.6g %-9s %s", k, part.m[k].Value, part.m[k].Unit, part.note))
		}
	}
	res.report = append(res.report, fmt.Sprintf("  %-22s %14.6g", "failed_frac", float64(res.Failed)/float64(res.Attempted)))
	if !o.trace {
		res.Metrics = e2e
		return res, nil
	}

	layers := perLayer(first, traced, tr)
	for _, part := range []map[string]metric{sims, walls} {
		for k, v := range part {
			layers[k] = v
		}
	}
	if base := e2e["cpu_ops_per_s"].Value; base > 0 {
		layers["trace.overhead_pct"] = metric{100 * (base - median(rates(traced))) / base, "%"}
	}
	stacks, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	pct, samples := attribute(stacks)
	for _, b := range profileBuckets {
		name := b + ".self_pct"
		if strings.HasPrefix(b, "runtime.") {
			name = b + "_pct"
		}
		layers[name] = metric{pct[b], "%"}
	}
	layers["profile.samples"] = metric{float64(samples), "count"}
	for _, k := range sortedKeys(layers) {
		res.report = append(res.report, fmt.Sprintf("  %-30s %14.6g %s", k, layers[k].Value, layers[k].Unit))
	}
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, fmt.Errorf("trace output: %w", err)
		}
		base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
		if err := tr.write(base + ".spans.json"); err != nil {
			return nil, err
		}
		if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("write profile: %w", err)
		}
		res.report = append(res.report, "  spans and CPU profile: "+base+".{spans.json,cpu.pprof}")
	}
	res.Metrics = layers
	return res, nil
}

// rates returns each round's ops per second of measured-phase CPU time.
func rates(rounds []*round) []float64 {
	var out []float64
	for _, r := range rounds {
		if r.measureCPU > 0 {
			out = append(out, float64(r.ops)/r.measureCPU.Seconds())
		}
	}
	return out
}

// wallRates returns each round's ops per second of measured-phase wall time.
func wallRates(rounds []*round) []float64 {
	var out []float64
	for _, r := range rounds {
		if r.measure > 0 {
			out = append(out, float64(r.ops)/r.measure.Seconds())
		}
	}
	return out
}

// endToEnd computes the bounded metrics: throughput, round time and set-up
// time in host CPU time, as medians over rounds, and the peak live heap
// plus stacks of the whole run. A round sees only a dozen GC cycles in
// some workloads, so its own peak misses the top of the heap at random;
// the run's peak does not.
func endToEnd(rounds []*round) map[string]metric {
	var cpus, setups []float64
	var heap heapPeak
	for _, r := range rounds {
		cpus = append(cpus, r.cpu.Seconds())
		heap.note(r.heap.live, r.heap.stacks)
		for _, s := range r.setupsCPU {
			setups = append(setups, s.Seconds())
		}
	}
	return map[string]metric{
		"cpu_ops_per_s": {median(rates(rounds)), "1/cpu_s"},
		"round_cpu_s":   {median(cpus), "s"},
		"setup_s":       {median(setups), "s"},
		"heap_mb":       {float64(heap.live+heap.stacks) / 1e6, "MB"},
	}
}

// wallTime computes the same throughput and round time in wall time. They
// are what a user waits for, but on a shared machine they move with the
// time its hypervisor steals, so they are reported without a bound.
func wallTime(rounds []*round) map[string]metric {
	var walls []float64
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
	}
	return map[string]metric{
		"host_ops_per_s": {median(wallRates(rounds)), "1/s"},
		"wall_s":         {median(walls), "s"},
	}
}

// simMetrics reports virtual-time latency and throughput; they repeat
// exactly per seed. Zero for workloads without per-op virtual latency.
func simMetrics(r *round) map[string]metric {
	out := map[string]metric{
		"sim_p50_us": {0, "sim_us"},
		"sim_p99_us": {0, "sim_us"},
		"sim_kops":   {0, "kop/sim_s"},
	}
	if len(r.simLat) == 0 {
		return out
	}
	lat := append([]int64(nil), r.simLat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pick := func(q float64) float64 {
		return float64(lat[int(math.Ceil(q*float64(len(lat))))-1]) / 1e3
	}
	out["sim_p50_us"] = metric{pick(0.50), "sim_us"}
	out["sim_p99_us"] = metric{pick(0.99), "sim_us"}
	if r.simSpan > 0 {
		out["sim_kops"] = metric{float64(len(lat)) / r.simSpan.Seconds() / 1e3, "kop/sim_s"}
	}
	return out
}

// perLayer computes the per-layer metrics: exact counters per op from the
// first round, host-time measures from the traced rounds.
func perLayer(first *round, traced []*round, tr *tracer) map[string]metric {
	ops := float64(first.ops)
	c := first.counts
	perOp := func(name string) float64 { return c[name] / ops }
	pct := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return 100 * num / den
	}
	m := map[string]metric{
		"sim.events_per_op":            {perOp("sim.events"), "1/op"},
		"sim.windows_per_op":           {perOp("sim.windows"), "1/op"},
		"sim.barriers_per_op":          {perOp("sim.barriers"), "1/op"},
		"sim.idle_skips_per_op":        {perOp("sim.idle_skips"), "1/op"},
		"sim.crossed_per_op":           {perOp("sim.crossed"), "1/op"},
		"sim.fused_pct":                {pct(c["sim.fused"], c["sim.windows"]), "%"},
		"sim.procs":                    {float64(first.procs), "count"},
		"fabric.msgs_per_op":           {perOp("fabric.msgs"), "1/op"},
		"fabric.bytes_per_op":          {perOp("fabric.bytes"), "B/op"},
		"fabric.dropped_per_op":        {perOp("fabric.dropped"), "1/op"},
		"fabric.xfer_slab_hit_pct":     {pct(c["fabric.xfer_slab_hits"], c["fabric.xfer_slab_hits"]+c["fabric.xfer_slab_misses"]), "%"},
		"rnic.staged_per_op":           {perOp("rnic.staged"), "1/op"},
		"rnic.flush_acks_per_op":       {perOp("rnic.flush_acks"), "1/op"},
		"rnic.retransmits_per_op":      {perOp("rnic.retransmits"), "1/op"},
		"pmem.persists_per_op":         {perOp("pmem.persists"), "1/op"},
		"pmem.persist_bytes_per_op":    {perOp("pmem.persist_bytes"), "B/op"},
		"pmem.reads_per_op":            {perOp("pmem.reads"), "1/op"},
		"redolog.appends_per_op":       {perOp("redolog.appends"), "1/op"},
		"redolog.consumes_per_op":      {perOp("redolog.consumes"), "1/op"},
		"rpc.handled_per_op":           {perOp("rpc.handled"), "1/op"},
		"host.sw_us_per_op":            {perOp("host.sw_ns") / 1e3, "sim_us/op"},
		"cluster.pm_full":              {c["cluster.pm_full"], "count"},
		"crashcheck.replays_per_point": {perOp("crashcheck.replays"), "1/op"},
		"crashcheck.ref_events":        {c["crashcheck.ref_events"], "count"},
		"pmpool.retries_per_op":        {perOp("pmpool.retries"), "1/op"},
		"pmpool.renews_per_op":         {perOp("pmpool.renews"), "1/op"},
		"pmpool.reclaimed":             {c["pmpool.reclaimed"], "count"},
	}

	// Host-time measures, medians over the traced rounds.
	var hostNS, allocB, allocs, gor, util []float64
	for _, r := range traced {
		util = append(util, r.measureCPU.Seconds()/r.measure.Seconds())
		if ev := r.counts["sim.events"]; ev > 0 {
			hostNS = append(hostNS, float64(r.measureCPU.Nanoseconds())/ev)
		}
		allocB = append(allocB, float64(r.allocBytes)/float64(r.ops))
		allocs = append(allocs, float64(r.allocs)/float64(r.ops))
		gor = append(gor, float64(r.goroutines))
	}
	m["sim.host_ns_per_event"] = metric{median(hostNS), "cpu_ns"}
	m["runtime.alloc_bytes_per_op"] = metric{median(allocB), "B/op"}
	m["runtime.allocs_per_op"] = metric{median(allocs), "1/op"}
	m["runtime.goroutines"] = metric{median(gor), "count"}
	m["runtime.cpu_per_wall"] = metric{median(util), "cpu_s/s"}

	// Span medians: the benchmark's own calls into each layer.
	spanMed := func(name string, scale float64) float64 {
		var v []float64
		for _, s := range tr.spans {
			if s.Name == name {
				v = append(v, float64(s.End-s.Start)/scale)
			}
		}
		return median(v)
	}
	m["prdma.new_cluster_ms"] = metric{spanMed("prdma.NewCluster", 1e6), "ms"}
	m["cluster.new_partitioned_ms"] = metric{spanMed("cluster.NewPartitioned", 1e6), "ms"}
	m["cluster.runload_s"] = metric{spanMed("cluster.RunLoad", 1e9), "s"}
	m["cluster.check_s"] = metric{spanMed("cluster.CheckConsistency", 1e9), "s"}
	m["pmpool.deploy_ms"] = metric{spanMed("pmpool.deploy", 1e6), "ms"}
	m["crashcheck.sweep_s"] = metric{spanMed("crashcheck.Sweep", 1e9), "s"}
	m["crashcheck.host_ms_per_point"] = metric{0, "ms"}
	if cells := first.counts["crashcheck.cells"]; cells > 0 {
		pts := first.counts["crashcheck.points"] / cells
		m["crashcheck.host_ms_per_point"] = metric{spanMed("crashcheck.Sweep", 1e6) / pts, "ms"}
	}
	quant := func(name string, q float64) float64 {
		v := append([]float64(nil), tr.calls[name]...)
		if len(v) == 0 {
			return 0
		}
		sort.Float64s(v)
		return v[int(math.Ceil(q*float64(len(v))))-1]
	}
	m["rpc.call_host_us_p50"] = metric{quant("rpc.call_host_us", 0.5), "us"}
	m["rpc.call_host_us_p99"] = metric{quant("rpc.call_host_us", 0.99), "us"}
	m["pmpool.alloc_host_us_p50"] = metric{quant("pmpool.alloc_host_us", 0.5), "us"}
	m["pmpool.write_host_us_p50"] = metric{quant("pmpool.write_host_us", 0.5), "us"}
	m["pmpool.free_host_us_p50"] = metric{quant("pmpool.free_host_us", 0.5), "us"}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// expectedFile records, per workload, the fingerprint of the default seed.
type expectedFile struct {
	DefaultSeed  uint64            `json:"default_seed"`
	HeldOutSeed  uint64            `json:"held_out_seed"`
	Fingerprints map[string]string `json:"fingerprints"`
}

// checkExpected compares a default-seed run's fingerprint with the
// recorded one. It returns a failure message, or "" when they agree or the
// seed is not the default.
func checkExpected(path, workload string, seed, fp uint64) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("read expected fingerprints: %w", err)
	}
	var e expectedFile
	if err := json.Unmarshal(b, &e); err != nil {
		return "", fmt.Errorf("parse %s: %w", path, err)
	}
	if seed != e.DefaultSeed {
		return "", nil
	}
	want, ok := e.Fingerprints[workload]
	if !ok {
		return "", nil
	}
	if got := fmt.Sprintf("%016x", fp); got != want {
		return fmt.Sprintf("fingerprint %s for default seed %d differs from the recorded %s", got, seed, want), nil
	}
	return "", nil
}
