// Cluster mode: the crash-point sweep applied to the sharded, replicated
// deployment (internal/cluster) on the multi-kernel engine. The
// single-server sweep's crash coordinate — "after event i" — is not a safe
// injection point there: a kernel may stop mid-window while its peers have
// already run ahead to the window edge. Window barriers are: every boundary
// is a global quiesce point (no kernel mid-event, every delivered cross
// message queued), and with identical inputs the i-th window covers the
// same events in every run. So the sweep crashes "at window w",
// replaying the same workload per point and injecting the crash at that
// barrier inside a serialized engine span. The driver holds the Serialize
// token — and with it the single-kernel-equivalent global event order the
// failover choreography needs — from the crash until the cluster is healthy
// again, firing restarts and second crashes at the first barrier past their
// due time. Each point may land anywhere in the issue/failover/resync state
// space, optionally with a second crash of the same shard while the first
// resync is in flight, and asserts the cluster contract:
//
//  1. No acknowledged write is lost: every Put that returned success is
//     present, untorn, on every live replica of its shard.
//  2. Replicas converge byte-identically: live replicas of a shard hold
//     identical bytes for every acknowledged key (single-writer keys make
//     apply order deterministic across replicas).
//  3. Liveness: the workload finishes, no operation fails permanently, and
//     the cluster returns to full health (victim readmitted) before the
//     settle horizon.
//  4. Read sanity: every read during the run returned a well-formed
//     payload no newer than the issued history.
//  5. Ack contract: a rejoining replica's redo-log replay restores every
//     version it durably acknowledged, before any catch-up image ships.
//
// A violation's minimal repro is its (seed, window) pair.
package crashcheck

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"prdma/internal/cluster"
	"prdma/internal/fabric"
	"prdma/internal/sim"
	"prdma/internal/stats"
	"prdma/internal/ycsb"
)

// PartitionedConfig parameterizes one window-indexed sweep.
type PartitionedConfig struct {
	// Seed drives the workload, placement, and point selection.
	Seed int64
	// Points is how many window-boundary crash points to sweep.
	Points int
	// SecondCrashEvery arms a second same-shard crash during the first
	// victim's resync window at every n-th point. 0 disables.
	SecondCrashEvery int
	// Ops and Clients size the closed-loop verified workload.
	Ops, Clients int
	// Shards and Replicas shape the deployment (one gateway: the failover
	// controller requires it).
	Shards, Replicas int
	// ObjSize is the object size in bytes (≥ 16 for versioned payloads).
	ObjSize int
	// Fault, when set, installs a deterministic fabric adversary (the same
	// spec and seed for the reference run and every crash point). Fault
	// runs shorten the RC retransmit interval and raise the retry budget
	// so sub-millisecond partitions are ridden out by retransmission
	// instead of killing queue pairs.
	Fault *fabric.FaultSpec
	// Workload, when set, drives the load from a YCSB core workload
	// (ycsb.A..ycsb.F) instead of the default 70/30 mix.
	Workload ycsb.Workload
	// Mutant seeds a known bug class for the detection check: "ackbug"
	// (flush ACK before the durability horizon) or "resurrect" (stale
	// version guard off + resync ships images before replaying logs).
	Mutant string
}

// DefaultPartitionedConfig returns a CI-sized cluster sweep.
func DefaultPartitionedConfig(seed int64) PartitionedConfig {
	return PartitionedConfig{
		Seed:             seed,
		Points:           40,
		SecondCrashEvery: 6,
		Ops:              240,
		Clients:          6,
		Shards:           2,
		Replicas:         3,
		ObjSize:          64,
	}
}

// Validate rejects a mutant the cluster sweep does not implement.
func (c PartitionedConfig) Validate() error {
	return checkMutant("cluster crashcheck", c.Mutant, "ackbug", "resurrect")
}

// ClusterViolation is one broken cluster invariant at one crash point.
type ClusterViolation struct {
	Seed  int64
	Point Point
	At    sim.Time
	Msg   string
}

func (v ClusterViolation) String() string {
	return fmt.Sprintf("cluster seed=%d %v at=%v: %s", v.Seed, v.Point, v.At, v.Msg)
}

// RefStats measures the sweep's crash-free reference run — the per-cell
// performance row of the adversarial-matrix figure.
type RefStats struct {
	Ops          int
	KOPS         float64
	P50US, P99US float64
	// Resends is total RC retransmissions; FaultDrops the injector-lost
	// messages; Duplicated/Reordered the adversary's copies and holds;
	// StaleDrops the version-guarded writes the stores rejected; Retries
	// the cluster-level op retries.
	Resends, FaultDrops, Duplicated, Reordered, StaleDrops, Retries int64
}

// PartitionedResult summarizes one cluster sweep. Point.Event holds the
// crash window index.
type PartitionedResult struct {
	Seed   int64
	Points int
	// Windows is the window count of the crash-free reference load — the
	// coordinate space the points were sampled from.
	Windows uint64
	// Ref measures the crash-free reference run.
	Ref RefStats
	// Controller work totals across all points.
	Failovers, Resyncs, Replayed, Shipped int64
	// PMFull totals PM-exhaustion backpressure drops across all points.
	PMFull         int64
	Violations     []ClusterViolation
	ViolationCount int
}

// Minimal returns the earliest-window violation, nil when clean. Replaying
// it needs only the (seed, window) pair.
func (r *PartitionedResult) Minimal() *ClusterViolation {
	var min *ClusterViolation
	for i := range r.Violations {
		v := &r.Violations[i]
		if min == nil || v.Point.Event < min.Point.Event {
			min = v
		}
	}
	return min
}

// pRun is one cluster deployment plus its in-flight workload; the sweep
// driver owns the engine stepping.
type pRun struct {
	c    *cluster.PCluster
	ct   *cluster.PController
	load *cluster.PLoadRun
	res  *cluster.PLoadResult
	err  error

	loadEndWindows uint64
	auditMsgs      []string
}

func newPartitionedRun(cfg PartitionedConfig) *pRun {
	p := cluster.DefaultParams()
	p.Shards = cfg.Shards
	p.Replicas = cfg.Replicas
	p.Gateways = 1
	p.PoolSize = 2
	p.Objects = 128
	p.ObjSize = cfg.ObjSize
	p.Seed = uint64(cfg.Seed) | 1
	if cfg.Fault != nil {
		// Adversary runs retransmit aggressively: a sub-millisecond
		// partition or drop burst must be ridden out by RC retries well
		// inside the retry budget, not kill the queue pair.
		p.NIC.RetransmitInterval = 100 * time.Microsecond
		p.NIC.RetryCount = 64
	}
	switch cfg.Mutant {
	case "ackbug":
		// The premature-ack knob only exists on the native flush path; the
		// read-after-write emulation has no flush ACK to misplace.
		p.NIC.EmulateFlush = false
		p.NIC.AckBeforeDurable = true
	case "resurrect":
		p.MutantResurrect = true
	}
	r := &pRun{}
	c, err := cluster.NewPartitioned(1, p)
	if err != nil {
		panic(err)
	}
	r.c = c
	if cfg.Fault != nil {
		c.Net.SetInjector(fabric.NewInjector(*cfg.Fault, (uint64(cfg.Seed)|1)^0xfa175eed))
	}
	c.EnableAckAudit()
	ct, err := c.StartController()
	if err != nil {
		panic(err)
	}
	r.ct = ct
	ct.AuditReplay = r.auditReplay
	r.load, r.err = c.StartLoad(cluster.Load{
		Clients:  cfg.Clients,
		Ops:      cfg.Ops,
		ReadFrac: 0.3,
		Workload: cfg.Workload,
		Verify:   true,
		Seed:     uint64(cfg.Seed) | 1,
	})
	if r.err != nil {
		panic(r.err)
	}
	return r
}

// auditReplay holds a rejoining replica to its §4.2 ack contract at the one
// instant its durable state is exactly what it persisted itself: after its
// redo-log backlogs replayed and applied, before any catch-up image ships.
// Every slot version the replica durably acknowledged must be resident at
// that version or newer — a flush ACK that replay cannot honor was a
// durability lie (the ack-before-durable bug class).
func (r *pRun) auditReplay(p *sim.Proc, grp *cluster.PGroup, ri int) {
	acked := grp.AckedVersions(ri)
	if len(acked) == 0 {
		return
	}
	rep := grp.Replicas[ri]
	slots := make([]uint64, 0, len(acked))
	for slot := range acked {
		slots = append(slots, slot)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	buf := make([]byte, 12)
	for _, slot := range slots {
		want := acked[slot]
		if !rep.Store.Has(slot) {
			r.auditMsgs = append(r.auditMsgs, fmt.Sprintf(
				"ack audit: shard %d replica %d slot %d: durably acked ver %d but replay restored nothing",
				grp.ID, ri, slot, want))
			continue
		}
		got := binary.LittleEndian.Uint32(rep.Host.PM.ReadBytesInto(rep.Store.Addr(slot), buf)[8:12])
		if got < want {
			r.auditMsgs = append(r.auditMsgs, fmt.Sprintf(
				"ack audit: shard %d replica %d slot %d: durably acked ver %d but replay restored ver %d",
				grp.ID, ri, slot, want, got))
		}
	}
}

// stepTo advances the engine to exactly window w (a no-op if already past).
func (r *pRun) stepTo(w uint64) {
	for r.c.Eng.Windows() < w {
		n := int(w - r.c.Eng.Windows())
		if n > 4096 {
			n = 4096
		}
		if r.c.Eng.RunWindows(n) == 0 {
			return // quiescent before w: crash lands on a drained engine
		}
	}
}

// drain stops the controller and runs the engine quiescent (bounded, in case
// an auxiliary proc is still polling), then collects the load result.
func (r *pRun) drain(horizon sim.Time) {
	r.ct.Drain(horizon)
	r.res = r.load.Collect()
}

// refStats extracts the performance row from a drained crash-free run.
func (r *pRun) refStats() RefStats {
	st := RefStats{
		Resends:    r.c.Retransmits(),
		StaleDrops: r.c.StaleDrops(),
		FaultDrops: r.c.Net.DroppedFault,
		Duplicated: r.c.Net.Duplicated,
		Reordered:  r.c.Net.Reordered,
	}
	for _, grp := range r.c.Groups {
		st.Retries += grp.Retries
	}
	if len(r.res.Samples) == 0 {
		return st
	}
	st.Ops = len(r.res.Samples)
	lat := stats.NewLatency(st.Ops)
	for _, sm := range r.res.Samples {
		lat.Add(sm.Dur)
	}
	st.KOPS = stats.Throughput{Ops: st.Ops, Elapsed: r.res.End.Duration()}.KOPS()
	st.P50US = float64(lat.Percentile(50)) / float64(time.Microsecond)
	st.P99US = float64(lat.Percentile(99)) / float64(time.Microsecond)
	return st
}

// verify checks the cluster contract after drain.
func (r *pRun) verify() []string {
	var out []string
	bad := func(format string, a ...any) {
		out = append(out, fmt.Sprintf(format, a...))
	}
	out = append(out, r.auditMsgs...)
	if !r.load.Done() {
		bad("workload never finished before the settle horizon")
		return out
	}
	if r.res.Errors != 0 {
		bad("%d operations failed permanently", r.res.Errors)
	}
	if r.res.BadReads != 0 {
		bad("%d reads returned malformed or future payloads", r.res.BadReads)
	}
	if !r.c.Healthy() {
		bad("cluster not healthy at horizon (replica still down or resyncing)")
	}
	if err := r.c.CheckConsistency(); err != nil {
		bad("consistency: %v", err)
	}
	return out
}

func (r *pRun) counters(res *PartitionedResult) {
	for _, grp := range r.c.Groups {
		res.Failovers += grp.Failovers
		res.Resyncs += grp.Resyncs
		res.Replayed += grp.Replayed
		res.Shipped += grp.Shipped
	}
	res.PMFull += r.c.PMFull()
}

// PartitionedSweep runs the crash-free reference to size the window space,
// then replays the workload once per window-boundary crash point.
func PartitionedSweep(cfg PartitionedConfig) PartitionedResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	res := PartitionedResult{Seed: cfg.Seed}
	horizonFrom := func(t sim.Time) sim.Time { return t.Add(120 * time.Millisecond) }

	ref := newPartitionedRun(cfg)
	refHorizon := horizonFrom(0)
	for !(ref.load.Done() && ref.c.Healthy()) && ref.c.Now() < refHorizon {
		if ref.c.Eng.RunWindows(16) == 0 {
			break
		}
		if ref.loadEndWindows == 0 && ref.load.Done() {
			ref.loadEndWindows = ref.c.Eng.Windows()
		}
	}
	ref.drain(refHorizon)
	res.Windows = ref.loadEndWindows
	res.Ref = ref.refStats()
	record := func(r *pRun, pt Point, at sim.Time, msgs []string) {
		for _, msg := range msgs {
			res.ViolationCount++
			if len(res.Violations) < maxViolations {
				res.Violations = append(res.Violations, ClusterViolation{
					Seed: cfg.Seed, Point: pt, At: at, Msg: msg,
				})
			}
		}
	}
	record(ref, Point{}, ref.c.Now(), ref.verify())
	ref.c.Eng.Shutdown()

	points := pickPoints(Config{
		Seed: cfg.Seed, Points: cfg.Points, SecondCrashEvery: cfg.SecondCrashEvery,
	}, windowSalt, res.Windows)
	res.Points = len(points)
	for _, pt := range points {
		r := newPartitionedRun(cfg)
		w := pt.Event
		r.stepTo(w)
		at := r.c.Now()
		// The victim cycles deterministically through every (shard, replica)
		// pair as the window index advances.
		s := int(w) % cfg.Shards
		rep := int(w/uint64(cfg.Shards)) % cfg.Replicas
		// The driver holds the Serialize token across the whole crash/
		// recovery span: every post-crash window runs as one global event
		// merge, which is what legalizes the controller's cross-partition
		// reestablish/quiesce/drain choreography.
		r.c.Eng.Serialize()
		r.c.InjectCrash(at, s, rep)
		if pt.SecondCrash {
			// A second replica of the same shard fails while the first
			// victim's recovery/resync is typically in flight.
			delta := time.Duration(w%40) * 50 * time.Microsecond
			r.c.InjectCrash(at.Add(r.c.P.Restart+delta), s, (rep+1)%cfg.Replicas)
		}
		// Step until the load has finished and the cluster is healthy. The
		// controller polls forever, so the engine never quiesces on its
		// own; sim time bounds the run.
		horizon := horizonFrom(at)
		r.c.StepUntil(func() bool { return r.load.Done() && r.c.Healthy() }, horizon)
		r.drain(horizon)
		r.c.Eng.Unserialize()
		r.counters(&res)
		record(r, pt, at, r.verify())
		r.c.Eng.Shutdown()
	}
	return res
}
