package bench

import (
	"runtime"
	"testing"
)

// TestParallelScaleDeterminism runs a reduced worker ladder — 1/2/4/8, with
// window fusion and the pooled cross-transfer slabs active — and checks the
// driver's own verdict plus the per-rung invariants: same events, same
// fingerprint, same coordination counters, consistency clean (ParallelScale
// errors otherwise).
func TestParallelScaleDeterminism(t *testing.T) {
	o := tiny()
	o.Ops = 400
	sr, err := o.ParallelScale([]int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Deterministic {
		t.Fatalf("worker ladder diverged: %+v", sr.Points)
	}
	if len(sr.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(sr.Points))
	}
	for _, p := range sr.Points {
		if p.Events == 0 || p.Crossed == 0 || p.Windows == 0 {
			t.Fatalf("workers=%d: degenerate counters %+v", p.Workers, p)
		}
		if p.Fingerprint != sr.Points[0].Fingerprint {
			t.Fatalf("workers=%d: fingerprint mismatch", p.Workers)
		}
		if p.Windows != sr.Points[0].Windows || p.Barriers != sr.Points[0].Barriers ||
			p.IdleSkips != sr.Points[0].IdleSkips || p.FusedWindows != sr.Points[0].FusedWindows {
			t.Fatalf("workers=%d: coordination counters not worker-invariant: %+v vs %+v",
				p.Workers, p, sr.Points[0])
		}
		if p.SlabHitPct < 50 {
			t.Fatalf("workers=%d: cross-transfer slab hit rate %.1f%% — pooling not engaging", p.Workers, p.SlabHitPct)
		}
	}
}

// TestMillionClientSmokeReduced runs the population smoke at a reduced
// population: invariants must hold and the run must be reproducible.
func TestMillionClientSmokeReduced(t *testing.T) {
	o := tiny()
	o.Ops = 300
	a, err := o.MillionClientSmoke(2, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK {
		t.Fatalf("smoke invariants failed: %+v", a)
	}
	if a.Completed != o.Ops || a.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", a.Completed, a.Errors)
	}
	b, err := o.MillionClientSmoke(4, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if b.Fingerprint != a.Fingerprint {
		t.Fatalf("smoke fingerprint diverged across workers: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
}

// TestPartitionedShutdownReleasesHeap is the cross-transfer counterpart of
// TestDeploymentShutdownReleasesHeap: the partitioned ladder exercises the
// engine outboxes and the fabric's pooled transfer slabs, both of which
// buffer delivered messages and their completion closures. Engine.Shutdown
// must drop those references (and flush must zero delivered entries) or
// every retired deployment pins its last windows' payloads and closures.
func TestPartitionedShutdownReleasesHeap(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	o := tiny()
	o.Ops = 200
	ladder := func() {
		if _, err := o.ParallelScale([]int{2}); err != nil {
			t.Fatal(err)
		}
	}
	ladder() // warm-up: pools and lazily built tables
	before := heap()
	const repeats = 4
	for i := 0; i < repeats; i++ {
		ladder()
	}
	after := heap()
	growth := int64(after) - int64(before)
	t.Logf("heap before=%.1f MB after=%.1f MB growth=%.1f MB over %d partitioned deployments",
		float64(before)/(1<<20), float64(after)/(1<<20), float64(growth)/(1<<20), repeats)
	if growth > 16<<20 {
		t.Fatalf("retained heap grew %.1f MB over %d shut-down partitioned deployments — outbox or transfer slabs leaking",
			float64(growth)/(1<<20), repeats)
	}
}

// TestDeploymentShutdownReleasesHeap pins the parked-proc leak fix:
// back-to-back deployments previously each pinned ~100 MB (every proc left
// suspended in its last blocking call, plus the event free lists), so a
// ladder of runs grew the heap linearly. With Engine.Shutdown reaping each
// finished deployment, retained heap must stay flat across repeats.
func TestDeploymentShutdownReleasesHeap(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // second pass collects what the first pass's finalizers freed
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	o := tiny()
	o.Ops = 200
	// Warm-up establishes the steady-state baseline (pools, lazily built
	// tables) so the delta below measures per-deployment retention only.
	if _, err := o.MillionClientSmoke(2, 10_000); err != nil {
		t.Fatal(err)
	}
	before := heap()
	const repeats = 4
	for i := 0; i < repeats; i++ {
		if _, err := o.MillionClientSmoke(2, 10_000); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	growth := int64(after) - int64(before)
	t.Logf("heap before=%.1f MB after=%.1f MB growth=%.1f MB over %d deployments",
		float64(before)/(1<<20), float64(after)/(1<<20), float64(growth)/(1<<20), repeats)
	// A single leaked deployment at this size pins tens of MB; four pin well
	// over the bound. Flat-with-noise passes, linear growth fails.
	if growth > 16<<20 {
		t.Fatalf("retained heap grew %.1f MB over %d shut-down deployments — parked procs leaking again",
			float64(growth)/(1<<20), repeats)
	}
}
