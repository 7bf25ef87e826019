package bench

import (
	"fmt"
	"runtime"
	"time"

	kv "prdma/internal/cluster"
)

// This file is the partitioned-engine scaling driver: it runs the
// partitioned KV cluster on the 12-kernel engine and reports wall time,
// events per second, proc switches per event and the engine's coordination
// counters, plus a large-population open-loop smoke.

// ScaleResult is one run of the scaling figure's fixed topology.
type ScaleResult struct {
	Shards       int     `json:"shards"`
	Replicas     int     `json:"replicas"`
	Gateways     int     `json:"gateways"`
	Partitions   int     `json:"partitions"`
	Clients      int     `json:"clients"`
	Ops          int     `json:"ops"`
	MaxProcs     int     `json:"maxprocs"`
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	Switches     uint64  `json:"switches"`
	Crossed      uint64  `json:"crossed"`
	EventsPerSec float64 `json:"events_per_sec"`
	Fingerprint  string  `json:"fingerprint"`
	// Coordination counters: total conservative windows, idle kernel
	// dispatches skipped, windows with more than one active kernel, and the
	// cross-transfer slab hit rate (percent of crossings served from a
	// pooled envelope).
	Windows    uint64  `json:"windows"`
	IdleSkips  uint64  `json:"idle_skips"`
	Barriers   uint64  `json:"barriers"`
	SlabHitPct float64 `json:"slab_hit_pct"`
}

// scaleParams is the fixed 8-shard topology of the scaling figure.
func scaleParams(o Options) kv.Params {
	p := kv.DefaultParams()
	p.Shards = 8
	p.Replicas = 2
	p.Gateways = 4
	p.PoolSize = 4
	p.Objects = o.Objects
	p.ObjSize = 64
	p.Seed = o.Seed
	return p
}

// ParallelScale runs the scaling workload once on a fresh deployment: 16
// closed-loop clients, 50/50 verified reads and writes, consistency checked
// afterwards.
func (o Options) ParallelScale() (*ScaleResult, error) {
	p := scaleParams(o)
	load := kv.Load{Clients: 16, Ops: o.Ops, ReadFrac: 0.5, Verify: true, Seed: o.Seed}
	c, err := kv.NewPartitioned(1, p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	lr, err := c.RunLoad(load)
	wall := time.Since(start)
	if err != nil {
		c.Eng.Shutdown()
		return nil, err
	}
	if lr.Errors != 0 || lr.BadReads != 0 {
		c.Eng.Shutdown()
		return nil, fmt.Errorf("bench: scale: errors=%d badReads=%d", lr.Errors, lr.BadReads)
	}
	cerr := c.CheckConsistency()
	windows, _, idleSkips, barriers, slabHits, slabMisses := c.CoordStats()
	switches := c.Eng.Switches()
	// Reap the deployment: its parked-proc set otherwise survives the run
	// (~100 MB per deployment).
	c.Eng.Shutdown()
	if cerr != nil {
		return nil, fmt.Errorf("bench: scale: %w", cerr)
	}
	res := &ScaleResult{
		Shards: p.Shards, Replicas: p.Replicas, Gateways: p.Gateways,
		Partitions:  p.Gateways + p.Shards,
		Clients:     load.Clients,
		Ops:         load.Ops,
		MaxProcs:    runtime.GOMAXPROCS(0),
		WallMS:      float64(wall.Microseconds()) / 1e3,
		Events:      c.Eng.Fired(),
		Switches:    switches,
		Crossed:     c.Eng.Crossed(),
		Fingerprint: fmt.Sprintf("%016x", lr.Fingerprint()),
		Windows:     windows,
		IdleSkips:   idleSkips,
		Barriers:    barriers,
	}
	if total := slabHits + slabMisses; total > 0 {
		res.SlabHitPct = 100 * float64(slabHits) / float64(total)
	}
	if wall > 0 {
		res.EventsPerSec = float64(res.Events) / wall.Seconds()
	}
	return res, nil
}

// Table renders the scaling figure.
func (r *ScaleResult) Table() Table {
	var perEvent float64
	if r.Events > 0 {
		perEvent = float64(r.Switches) / float64(r.Events)
	}
	return Table{
		Title: fmt.Sprintf("partitioned engine scaling (%d shards x %d replicas, %d gateways, %d partitions, GOMAXPROCS=%d)",
			r.Shards, r.Replicas, r.Gateways, r.Partitions, r.MaxProcs),
		Header: []string{"wall_ms", "events", "crossed", "events/sec", "switches/event", "windows", "skips", "barriers", "slab%", "fingerprint"},
		Rows: [][]string{{
			fmt.Sprintf("%.2f", r.WallMS),
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%d", r.Crossed),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.3f", perEvent),
			fmt.Sprintf("%d", r.Windows),
			fmt.Sprintf("%d", r.IdleSkips),
			fmt.Sprintf("%d", r.Barriers),
			fmt.Sprintf("%.1f", r.SlabHitPct),
			r.Fingerprint,
		}},
		Notes: "one engine goroutine; the fingerprint and every count but wall_ms and events/sec are a function of the seed",
	}
}

// SmokeResult is the large-population open-loop smoke run.
type SmokeResult struct {
	LogicalClients  int     `json:"logical_clients"`
	DistinctClients int     `json:"distinct_clients"`
	Ops             int     `json:"ops"`
	Completed       int     `json:"completed"`
	Errors          int     `json:"errors"`
	QueueHWM        int     `json:"queue_hwm"`
	SimMS           float64 `json:"sim_ms"`
	WallMS          float64 `json:"wall_ms"`
	ThroughputOps   float64 `json:"throughput_ops_per_sec"`
	HeapMB          float64 `json:"heap_mb"`
	Fingerprint     string  `json:"fingerprint"`
	OK              bool    `json:"ok"`
}

// MillionClientSmoke drives the partitioned cluster open-loop with a
// million-client logical population over a reduced horizon (o.Ops arrivals)
// and asserts the stats invariants: every arrival completes, no errors, the
// arrival queues stay bounded by the horizon, and memory stays flat because
// the population is modelled by attribution, not by a million procs.
func (o Options) MillionClientSmoke(logicalClients int) (*SmokeResult, error) {
	if logicalClients <= 0 {
		logicalClients = 1_000_000
	}
	p := scaleParams(o)
	load := kv.Load{
		Clients: 64, Ops: o.Ops, ReadFrac: 0.5,
		OpenLoop: true, Rate: 2e6, LogicalClients: logicalClients,
		Seed: o.Seed,
	}
	c, err := kv.NewPartitioned(1, p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	lr, err := c.RunLoad(load)
	wall := time.Since(start)
	if err != nil {
		c.Eng.Shutdown()
		return nil, err
	}
	cerr := c.CheckConsistency()
	// Reap the deployment first: the heap figure must report what a finished
	// deployment retains, which is nothing once its parked procs are gone.
	c.Eng.Shutdown()
	var ms runtime.MemStats
	runtime.GC() // report retained heap, not accumulated garbage
	runtime.ReadMemStats(&ms)
	res := &SmokeResult{
		LogicalClients:  logicalClients,
		DistinctClients: lr.DistinctClients,
		Ops:             load.Ops,
		Completed:       len(lr.Samples),
		Errors:          lr.Errors,
		QueueHWM:        lr.QueueHWM,
		SimMS:           lr.End.Duration().Seconds() * 1e3,
		WallMS:          float64(wall.Microseconds()) / 1e3,
		ThroughputOps:   lr.Throughput(),
		HeapMB:          float64(ms.HeapAlloc) / (1 << 20),
		Fingerprint:     fmt.Sprintf("%016x", lr.Fingerprint()),
	}
	res.OK = res.Completed == load.Ops && res.Errors == 0 &&
		res.QueueHWM > 0 && res.QueueHWM <= load.Ops &&
		res.DistinctClients > 0
	if cerr != nil {
		return res, fmt.Errorf("bench: smoke consistency: %w", cerr)
	}
	return res, nil
}

// Table renders the smoke result.
func (r *SmokeResult) Table() Table {
	status := "FAIL"
	if r.OK {
		status = "ok"
	}
	return Table{
		Title:  fmt.Sprintf("open-loop population smoke (%d logical clients)", r.LogicalClients),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"arrivals completed", fmt.Sprintf("%d/%d", r.Completed, r.Ops)},
			{"distinct logical clients", fmt.Sprintf("%d", r.DistinctClients)},
			{"errors", fmt.Sprintf("%d", r.Errors)},
			{"arrival-queue high water", fmt.Sprintf("%d", r.QueueHWM)},
			{"simulated time", fmt.Sprintf("%.3f ms", r.SimMS)},
			{"wall time", fmt.Sprintf("%.1f ms", r.WallMS)},
			{"throughput", fmt.Sprintf("%.0f ops/s", r.ThroughputOps)},
			{"heap", fmt.Sprintf("%.1f MB", r.HeapMB)},
			{"invariants", status},
		},
		Notes: "population is modelled by arrival attribution (Poisson superposition); " +
			"memory scales with service workers and keyspace, not population",
	}
}
