package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/redolog"
)

// A round is one complete, fixed-size run of a workload: every deployment
// it needs is built, driven, verified and torn down inside it. Rounds of
// one seed are identical simulations, so their exact counters and
// fingerprints must match; a run repeats rounds until its time is up and
// reports medians over them.
type round struct {
	tr        *tracer // nil when untraced
	root      int     // span index of the round
	slow      float64 // injected benchmark-side busy-work, as a share of measured time
	failed    []string
	failedOps int64 // failed calls, bad reads, violations, leaked handles

	// Every phase is timed in wall time and in process CPU time. CPU time
	// leaves out what a shared machine's hypervisor steals, so the bounded
	// metrics use it; see README.md.
	ops        int64
	setupsCPU  []time.Duration // CPU time of each deployment build
	measure    time.Duration   // wall time of the measured phases
	measureCPU time.Duration
	wall       time.Duration // wall time of every phase
	cpu        time.Duration // CPU time of every phase
	heap       heapPeak      // over the round's measured phases

	allocBytes, allocs uint64 // measured-phase deltas
	goroutines         int    // max at the end of a measured phase
	procs              int    // max live simulated procs at the end of a measured phase

	simLat  []int64       // virtual latency per op, canonical order
	simSpan time.Duration // virtual time from start to the last op's completion, summed over deployments
	counts  map[string]float64
	hash    []uint64 // simulated results folded into the fingerprint
	fp      uint64   // the fingerprint, set when the round is done
}

func newRound(tr *tracer, slow float64) *round {
	r := &round{tr: tr, slow: slow, counts: make(map[string]float64)}
	r.root = tr.begin("round", -1)
	return r
}

// done ends the round's span and takes its fingerprint. A round that does
// not keep its latencies drops them once they are hashed.
func (r *round) done(keepLatencies bool) {
	r.tr.end(r.root)
	r.fp = r.fingerprint()
	r.hash = nil
	if !keepLatencies {
		r.simLat = nil
	}
}

// fail records a correctness failure; the run reports it and exits
// non-zero. Workloads count the failed ops behind it in failedOps.
func (r *round) fail(format string, args ...any) {
	r.failed = append(r.failed, fmt.Sprintf(format, args...))
}

// setup, run, verify and teardown time one phase of a deployment. Every
// phase counts toward the round's time; setup also toward set-up time and
// run toward the measured phase that throughput divides by.
//
// A build starts, outside its timed span, from a collected heap whose free
// memory has gone back to the OS. It then pays neither for collecting an
// earlier deployment's garbage nor for the runtime returning that memory
// in the background; both happened at varying times during builds.
func (r *round) setup(name string, fn func() error) error {
	debug.FreeOSMemory()
	_, cpu, err := r.timed(name, fn)
	r.setupsCPU = append(r.setupsCPU, cpu)
	return err
}

func (r *round) run(name string, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := watchHeap()
	wall, cpu, err := r.timed(name, func() error {
		t0 := time.Now()
		err := fn()
		if r.slow > 0 {
			spin(time.Duration(r.slow * float64(time.Since(t0))))
		}
		return err
	})
	peak := w.stop()
	r.heap.note(peak.live, peak.stacks)
	runtime.ReadMemStats(&after)
	r.measure += wall
	r.measureCPU += cpu
	r.allocBytes += after.TotalAlloc - before.TotalAlloc
	r.allocs += after.Mallocs - before.Mallocs
	if g := runtime.NumGoroutine(); g > r.goroutines {
		r.goroutines = g
	}
	return err
}

func (r *round) verify(name string, fn func() error) error {
	_, _, err := r.timed(name, fn)
	return err
}

func (r *round) teardown(name string, fn func()) {
	r.timed(name, func() error { fn(); return nil })
}

func (r *round) timed(name string, fn func() error) (wall, cpu time.Duration, err error) {
	id := r.tr.begin(name, r.root)
	c0 := cpuTime()
	t0 := time.Now()
	err = fn()
	wall = time.Since(t0)
	cpu = cpuTime() - c0
	r.tr.end(id)
	r.wall += wall
	r.cpu += cpu
	return wall, cpu, err
}

// probeHeap collects garbage at the end of a measured phase, before
// teardown, and records live heap and stack memory. It runs outside every
// timed span.
func (r *round) probeHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heap.note(ms.HeapAlloc, ms.StackInuse)
}

// heapPeak is the largest live heap and, apart, the largest stack memory
// seen. Stack memory moves in whole spans and includes the runtime's
// cached stacks, so the two seldom peak at the same reading; adding their
// separate peaks keeps that jitter out of heap_mb.
type heapPeak struct{ live, stacks uint64 }

func (p *heapPeak) note(live, stacks uint64) {
	p.live = max(p.live, live)
	p.stacks = max(p.stacks, stacks)
}

// A heapWatch keeps the heapPeak of the live heap every GC cycle marks
// while it is armed, so a measured phase that builds and tears down
// deployments inside one call (crashcheck.Sweep) still reports what they
// held. A finalizer on a sentinel object runs once per cycle and re-arms
// itself.
type heapWatch struct {
	on   atomic.Bool
	mu   sync.Mutex
	peak heapPeak
}

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.on.Store(true)
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(new([32]byte), func(*[32]byte) {
		if !w.on.Load() {
			return
		}
		w.sample()
		w.arm()
	})
}

// sample reads the live heap of the latest completed GC cycle and the
// stack memory now.
func (w *heapWatch) sample() {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/memory/classes/heap/stacks:bytes"},
	}
	metrics.Read(s)
	w.mu.Lock()
	w.peak.note(s[0].Value.Uint64(), s[1].Value.Uint64())
	w.mu.Unlock()
}

// stop disarms the watch and returns the peak it saw.
func (w *heapWatch) stop() heapPeak {
	w.on.Store(false)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak
}

// cpuTime returns the process's user plus system CPU time, summed over
// all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spin burns host CPU for d: the sensitivity check's injected slowdown. It
// lives only in the benchmark's own code.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := uint64(1)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

var spinSink uint64

func (r *round) add(name string, v float64) { r.counts[name] += v }

// fold adds simulated values to the fingerprint.
func (r *round) fold(vs ...uint64) { r.hash = append(r.hash, vs...) }

// fingerprint hashes the folded simulated results and every exact counter.
func (r *round) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range r.hash {
		put(v)
	}
	for _, v := range r.simLat {
		put(uint64(v))
	}
	put(uint64(r.simSpan))
	for _, k := range sortedKeys(r.counts) {
		h.Write([]byte(k))
		put(uint64(r.counts[k]))
	}
	return h.Sum64()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// addHosts adds the NIC, PM and software-time counters of hosts.
func (r *round) addHosts(hosts []*host.Host) {
	for _, h := range hosts {
		r.add("rnic.staged", float64(h.NIC.StagedMsgs))
		r.add("rnic.flush_acks", float64(h.NIC.FlushAcks))
		r.add("rnic.retransmits", float64(h.NIC.Retransmits))
		r.add("pmem.persists", float64(h.PM.PersistOps))
		r.add("pmem.persist_bytes", float64(h.PM.PersistBytes))
		r.add("pmem.reads", float64(h.PM.ReadOps))
		r.add("host.sw_ns", float64(h.SWTime))
	}
}

// addNet adds the fabric counters of net.
func (r *round) addNet(net *fabric.Network) {
	r.add("fabric.msgs", float64(net.Delivered))
	r.add("fabric.bytes", float64(net.BytesSent))
	r.add("fabric.dropped", float64(net.Dropped))
	hits, misses := net.XferSlabStats()
	r.add("fabric.xfer_slab_hits", float64(hits))
	r.add("fabric.xfer_slab_misses", float64(misses))
}

// addLog adds a redo log's append/consume counts.
func (r *round) addLog(l *redolog.Log) {
	if l == nil {
		return
	}
	r.add("redolog.appends", float64(l.Appends))
	r.add("redolog.consumes", float64(l.Consumes))
}
