package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/replicate"
	"prdma/internal/rpc"
	"prdma/internal/sim"
	"prdma/internal/ycsb"
)

// This file is the cluster deployment: the sharded, replicated durable KV
// spread over the kernels of one sim.Engine. Every driver — the failover
// figure, the cluster scenarios, the fault matrix and the crash sweep — runs
// on it.
//
// Partition layout: gateway g is engine kernel g, shard group s (all of its
// replicas) is kernel Gateways+s. Every client↔replica connection crosses a
// partition boundary and therefore runs the rpc layer's engine mode; all
// four durable RPC families are supported — the per-family redo-log
// ownership split lives in rpc.NewDurable. Bookkeeping is per gateway:
// acknowledged-write records, counters and samples are owned by their
// gateway's kernel and merged canonically after the engine drains, so no
// shared mutable state crosses kernels on the data plane.
//
// Crash/recovery has one topology restriction: the failover controller
// (StartController, pfailover.go) requires Gateways == 1, so every
// client-side structure it touches lives on a single kernel. Crashes are
// driver-driven at window barriers — InjectCrash and StepUntil, or
// CrashReplica and RestartReplica directly — inside a serialized engine span
// (sim.Engine.Serialize), where a global event order exists. The crash-free
// data plane keeps its parallel window execution, and a Gateways>1
// deployment never builds the controller connections, so its event stream
// has no failover machinery in it at all.

// PGroup is one shard group's partition: a kernel hosting all its replicas.
//
// The controller fields below the kernel handle are populated only in a
// Gateways==1 deployment (NewPartitioned builds the ctl connection then).
// Despite living next to the server-side replicas, they are client-side
// state: every one of them is owned by the gateway kernel's procs — or by
// the driver at a window barrier — and is never touched by the group's own
// kernel.
type PGroup struct {
	ID       int
	K        *sim.Kernel
	Replicas []*Replica

	// ctl is the controller's dedicated replicated connection (never
	// pooled); nil unless Gateways == 1.
	ctl *replicate.Client

	// pendingSince is per replica: the earliest moment an unresynced down
	// window began (zero when fully synced). Resync ships every key whose
	// acknowledged write completed at or after pendingSince-Grace.
	pendingSince []sim.Time
	resyncing    []bool
	resyncBusy   bool
	// quiesce diverts new operations away from the pool while the resync
	// readmission barrier collects every pooled client (see acquire).
	quiesce bool
	// Primary is the current primary replica.
	Primary int

	// ackAudit, when non-nil (EnableAckAudit), tracks per replica the
	// highest payload version that replica has durably acknowledged per
	// store slot. A durable ACK claims remote persistence (§4.2), so a
	// crashed replica's redo-log replay must restore at least this version
	// — the invariant the crash-point auditor checks before any repair
	// images are shipped.
	ackAudit []map[uint64]uint32

	// keys is the sorted-key scratch for deterministic ship iteration.
	keys []uint64

	// Controller counters: crashes detected, primaries promoted, replicas
	// readmitted, catch-up images shipped, redo-log entries replayed, and
	// controller-mode op retries; DetectLag and ResyncTime sum the
	// crash→MarkDown and resync-start→readmission spans.
	Failovers, Promotions, Resyncs,
	Shipped, Replayed, Retries int64
	DetectLag, ResyncTime time.Duration
}

// PGateway is one client-side partition: a gateway host plus its per-shard
// connection pools and gateway-local bookkeeping.
type PGateway struct {
	ID   int
	K    *sim.Kernel
	Host *host.Host

	pools   []*sim.Chan[*replicate.Client] // per shard
	clients [][]*replicate.Client          // per shard: the pooled clients, for membership marks
	wrote   []map[uint64]*wroteRec         // per shard: writes acked via this gateway

	Puts, Gets int64
}

// PCluster is the cluster deployment (see the file comment).
type PCluster struct {
	Eng  *sim.Engine
	P    Params
	Net  *fabric.Network
	Ring *Ring

	Gateways []*PGateway
	Groups   []*PGroup

	// pending holds driver injections not yet fired (InjectCrash).
	pending []injection
}

// CoordStats reports the deployment's window-coordination counters: how
// many conservative windows ran, how many idle kernel dispatches were
// skipped, how many windows had more than one active kernel, and the
// cross-transfer slab hit rate. fused is always 0: the engine no longer
// fuses windows, and the result stays so existing readers keep compiling.
// All values are deterministic; read them after the load completes, before
// Shutdown.
func (c *PCluster) CoordStats() (windows, fused, idleSkips, barriers uint64, slabHits, slabMisses int64) {
	slabHits, slabMisses = c.Net.XferSlabStats()
	return c.Eng.Windows(), 0, c.Eng.IdleSkips(), c.Eng.Barriers(), slabHits, slabMisses
}

// NewPartitioned builds the partitioned cluster on a fresh engine. The
// engine's lookahead is the fabric's one-way propagation delay — the minimum
// cross-partition latency, so no message can ever need delivery inside the
// current window. The engine runs every window on the calling goroutine, so
// the workers count is ignored; it stays in the signature for existing
// callers.
func NewPartitioned(workers int, p Params) (*PCluster, error) {
	if p.Shards <= 0 || p.Replicas <= 0 || p.PoolSize <= 0 {
		return nil, errors.New("cluster: Shards, Replicas, PoolSize must be positive")
	}
	if p.Gateways <= 0 {
		return nil, errors.New("cluster: partitioned deployment needs Gateways > 0")
	}
	if !p.Kind.Durable() {
		return nil, fmt.Errorf("cluster: partitioned deployment needs a durable RPC family (engine mode), not %v", p.Kind)
	}
	c := &PCluster{
		Eng:  sim.NewEngine(p.Net.Lookahead()),
		P:    p,
		Ring: NewRing(p.Shards, p.VNodes, p.Seed),
	}
	for g := 0; g < p.Gateways; g++ {
		c.Gateways = append(c.Gateways, &PGateway{ID: g, K: c.Eng.NewKernel()})
	}
	c.Net = fabric.New(c.Gateways[0].K, p.Net, p.Seed^0x5eed)
	for g, gw := range c.Gateways {
		gw.Host = host.New(gw.K, fmt.Sprintf("gw%d", g), c.Net, p.HostP, p.PM, p.NIC)
	}
	for s := 0; s < p.Shards; s++ {
		grp := &PGroup{ID: s, K: c.Eng.NewKernel()}
		for r := 0; r < p.Replicas; r++ {
			h := host.New(grp.K, fmt.Sprintf("s%dr%d", s, r), c.Net, p.HostP, p.PM, p.NIC)
			store, err := rpc.NewStore(h, p.Objects, p.ObjSize)
			if err != nil {
				return nil, err
			}
			if !p.MutantResurrect {
				// Verified payloads carry their version at byte 8 (see
				// fill); the store guard keeps a stale duplicate or late
				// retransmit from regressing a newer acked write. The
				// resurrect mutant disables it to seed the bug class.
				store.VersionAt = 8
			}
			engine := rpc.NewServer(h, store, p.Cfg)
			grp.Replicas = append(grp.Replicas, &Replica{Host: h, Store: store, Engine: engine, alive: true})
		}
		c.Groups = append(c.Groups, grp)
	}
	for _, gw := range c.Gateways {
		gw.pools = make([]*sim.Chan[*replicate.Client], p.Shards)
		gw.clients = make([][]*replicate.Client, p.Shards)
		gw.wrote = make([]map[uint64]*wroteRec, p.Shards)
		for s, grp := range c.Groups {
			gw.pools[s] = sim.NewChan[*replicate.Client](gw.K)
			gw.wrote[s] = make(map[uint64]*wroteRec)
			for i := 0; i < p.PoolSize; i++ {
				var raw []rpc.Client
				for _, rep := range grp.Replicas {
					raw = append(raw, rpc.New(p.Kind, gw.Host, rep.Engine, p.Cfg))
				}
				rc, err := replicate.New(gw.K, p.Policy, raw)
				if err != nil {
					return nil, err
				}
				gw.clients[s] = append(gw.clients[s], rc)
				gw.pools[s].Push(rc)
			}
		}
	}
	if p.Gateways == 1 {
		// Failover support: one dedicated controller connection per shard,
		// plus the membership bookkeeping the controller needs. Built only
		// for the single-gateway topology so multi-gateway deployments keep
		// their pre-failover event stream byte for byte.
		gw := c.Gateways[0]
		for _, grp := range c.Groups {
			var raw []rpc.Client
			for _, rep := range grp.Replicas {
				raw = append(raw, rpc.New(p.Kind, gw.Host, rep.Engine, p.Cfg))
			}
			rc, err := replicate.New(gw.K, p.Policy, raw)
			if err != nil {
				return nil, err
			}
			grp.ctl = rc
			grp.pendingSince = make([]sim.Time, p.Replicas)
			grp.resyncing = make([]bool, p.Replicas)
		}
	}
	return c, nil
}

// Now returns the latest kernel clock in the deployment — the driver's time
// reference at a window barrier (kernels may sit at slightly different
// clocks there; the maximum is monotone across barriers).
func (c *PCluster) Now() sim.Time {
	var t sim.Time
	for _, k := range c.Eng.Kernels() {
		if now := k.Now(); now > t {
			t = now
		}
	}
	return t
}

// CrashReplica fails replica r of shard s: the host loses volatile state (PM
// survives), the engine drops its queue, the store forgets its version
// watermarks. Driver context only, at a window barrier, inside a serialized
// engine span — the crash mutates server-kernel state and flips liveness the
// gateway-side controller polls, which is only sound where a global event
// order exists. The caller owns the restart (RestartReplica at a later
// barrier) and must hold the Serialize token until the cluster is Healthy.
func (c *PCluster) CrashReplica(s, r int) {
	if !c.Eng.Serialized() {
		panic("cluster: CrashReplica outside a serialized engine span")
	}
	rep := c.Groups[s].Replicas[r]
	if !rep.alive {
		return
	}
	rep.alive = false
	rep.crashedAt = c.Groups[s].K.Now()
	rep.Host.Crash()
	rep.Engine.Crash()
	rep.Store.Crash()
}

// RestartReplica brings a crashed replica back. Driver context only, at a
// window barrier at least P.Restart past the crash (the caller models the
// restart latency by choosing the barrier).
func (c *PCluster) RestartReplica(s, r int) {
	rep := c.Groups[s].Replicas[r]
	if rep.alive {
		return
	}
	rep.Host.Restart()
	rep.alive = true
	rep.Restarts++
}

// Healthy reports whether every replica is up and — when a controller is
// installed — readmitted (no down marks, no resync in flight).
func (c *PCluster) Healthy() bool {
	for _, grp := range c.Groups {
		for r, rep := range grp.Replicas {
			if !rep.alive {
				return false
			}
			if grp.ctl != nil && (grp.ctl.Down(r) || grp.resyncing[r]) {
				return false
			}
		}
	}
	return true
}

// EnableAckAudit starts recording, per shard and replica, the highest
// payload version each replica durably acknowledges per store slot (the
// fill payload layout: a little-endian uint32 version at byte 8). The crash
// sweep reads the record back through AckedVersions to hold every replica
// to its §4.2 ack contract: what you durably acknowledged, your redo log
// must restore. Gateways == 1 only — the audit maps hang off the shard
// groups but are written by gateway-kernel callbacks, which is
// single-writer only with a single gateway.
func (c *PCluster) EnableAckAudit() {
	if c.P.Gateways != 1 {
		panic("cluster: EnableAckAudit on a partitioned deployment needs Gateways == 1")
	}
	gw := c.Gateways[0]
	for s, grp := range c.Groups {
		grp := grp
		grp.ackAudit = make([]map[uint64]uint32, c.P.Replicas)
		for r := range grp.ackAudit {
			grp.ackAudit[r] = make(map[uint64]uint32)
		}
		tag := func(req *rpc.Request) uint64 {
			if len(req.Payload) < 12 {
				return req.Key << 32
			}
			return req.Key<<32 | uint64(binary.LittleEndian.Uint32(req.Payload[8:]))
		}
		onDurable := func(replica int, t uint64, at sim.Time) {
			slot, ver := t>>32, uint32(t)
			if ver == 0 {
				return // unversioned payload: nothing to audit
			}
			if ver > grp.ackAudit[replica][slot] {
				grp.ackAudit[replica][slot] = ver
			}
		}
		for _, cl := range gw.clients[s] {
			cl.WriteTag, cl.OnDurable = tag, onDurable
		}
	}
}

// AckedVersions returns replica r's durably-acknowledged version record
// (nil unless EnableAckAudit ran).
func (grp *PGroup) AckedVersions(r int) map[uint64]uint32 {
	if grp.ackAudit == nil {
		return nil
	}
	return grp.ackAudit[r]
}

// Retransmits totals RC retransmissions across every NIC in the cluster —
// the "resends" column of the adversarial-matrix figure.
func (c *PCluster) Retransmits() int64 {
	var n int64
	for _, gw := range c.Gateways {
		n += gw.Host.NIC.Retransmits
	}
	for _, grp := range c.Groups {
		for _, rep := range grp.Replicas {
			n += rep.Host.NIC.Retransmits
		}
	}
	return n
}

// StaleDrops totals version-guarded writes the replica stores rejected as
// stale (late duplicates or retransmits of overwritten versions).
func (c *PCluster) StaleDrops() int64 {
	var n int64
	for _, grp := range c.Groups {
		for _, rep := range grp.Replicas {
			n += rep.Store.StaleDrops
		}
	}
	return n
}

// PMFull totals the replicas' PM-exhaustion backpressure drops — writes that
// could not be homed because the arena ran out. Surfaced as a stat so a
// sizing mistake reads as backpressure, not a panic.
func (c *PCluster) PMFull() int64 {
	var n int64
	for _, grp := range c.Groups {
		for _, rep := range grp.Replicas {
			n += rep.Store.PMFull
		}
	}
	return n
}

// sortedWroteKeys fills grp.keys with gateway 0's recorded key set for this
// shard in ascending order (controller ship iteration; Gateways == 1).
func (c *PCluster) sortedWroteKeys(grp *PGroup) []uint64 {
	wrote := c.Gateways[0].wrote[grp.ID]
	grp.keys = grp.keys[:0]
	for k := range wrote {
		grp.keys = append(grp.keys, k)
	}
	sort.Slice(grp.keys, func(i, j int) bool { return grp.keys[i] < grp.keys[j] })
	return grp.keys
}

func (gw *PGateway) record(shard int, key uint64, ver uint32, payload []byte, at sim.Time) {
	rec := gw.wrote[shard][key]
	if rec == nil {
		rec = &wroteRec{buf: make([]byte, 0, len(payload))}
		gw.wrote[shard][key] = rec
	}
	rec.buf = append(rec.buf[:0], payload...)
	rec.ver = ver
	rec.at = at
}

// acquire checks out a pooled client for shard s via gateway g, yielding to
// a controller's readmission barrier first: while the resync controller is
// quiescing the shard, new operations wait here instead of queueing on the
// pool, so the barrier collects the whole pool in bounded time no matter
// how many clients are hammering it. Without a controller quiesce is never
// set and this is a plain pool pop.
func (c *PCluster) acquire(p *sim.Proc, g, s int) *replicate.Client {
	for c.Groups[s].quiesce {
		p.Sleep(20 * time.Microsecond)
	}
	return c.Gateways[g].pools[s].Pop(p)
}

// PutOn routes one durable replicated write through gateway g. p must be a
// proc on that gateway's kernel. ver tags the payload version for the
// consistency checkers; pass 0 when unused. Without a failover controller
// the crash-free topology needs no retry loop — an error is a bug, not a
// failover window. With a controller installed (Gateways == 1), writes
// retry across failover windows (full-object writes are idempotent), so a
// successful return means the write is acknowledged under the shard's
// policy: it must survive any single-replica crash.
func (c *PCluster) PutOn(p *sim.Proc, g int, key uint64, ver uint32, payload []byte) error {
	gw := c.Gateways[g]
	s := c.Ring.Shard(key)
	grp := c.Groups[s]
	req := rpc.Request{Op: rpc.OpWrite, Key: keyIndex(key, c.P.Objects), Size: len(payload), Payload: payload}
	if grp.ctl == nil {
		cl := gw.pools[s].Pop(p)
		at, _, err := cl.Write(p, &req)
		gw.pools[s].Push(cl)
		if err != nil {
			return fmt.Errorf("cluster: put key %d via gw %d: %w", key, g, err)
		}
		gw.Puts++
		gw.record(s, key, ver, payload, at)
		return nil
	}
	for attempt := 0; ; attempt++ {
		cl := c.acquire(p, g, s)
		at, _, err := cl.WriteTimeout(p, &req, c.P.Retry*8)
		gw.pools[s].Push(cl)
		if err == nil {
			gw.Puts++
			gw.record(s, key, ver, payload, at)
			return nil
		}
		if attempt >= putAttempts(c.P) {
			return fmt.Errorf("cluster: put key %d via gw %d failed after %d attempts: %w", key, g, attempt+1, err)
		}
		grp.Retries++
		p.Sleep(c.P.Retry)
	}
}

// GetOn routes one read through gateway g (p on that gateway's kernel),
// retrying across failover windows when a controller is installed.
func (c *PCluster) GetOn(p *sim.Proc, g int, key uint64, size int) ([]byte, error) {
	gw := c.Gateways[g]
	s := c.Ring.Shard(key)
	grp := c.Groups[s]
	req := rpc.Request{Op: rpc.OpRead, Key: keyIndex(key, c.P.Objects), Size: size, Payload: empty}
	if grp.ctl == nil {
		cl := gw.pools[s].Pop(p)
		resp, err := cl.Read(p, &req)
		gw.pools[s].Push(cl)
		if err != nil {
			return nil, fmt.Errorf("cluster: get key %d via gw %d: %w", key, g, err)
		}
		gw.Gets++
		return resp.Data, nil
	}
	for attempt := 0; ; attempt++ {
		cl := c.acquire(p, g, s)
		resp, err := cl.ReadTimeout(p, &req, c.P.Retry*8)
		gw.pools[s].Push(cl)
		if err == nil {
			gw.Gets++
			return resp.Data, nil
		}
		if attempt >= putAttempts(c.P) {
			return nil, fmt.Errorf("cluster: get key %d via gw %d failed after %d attempts: %w", key, g, attempt+1, err)
		}
		grp.Retries++
		p.Sleep(c.P.Retry)
	}
}

// Puts and Gets total the per-gateway counters.
func (c *PCluster) Puts() int64 {
	var n int64
	for _, gw := range c.Gateways {
		n += gw.Puts
	}
	return n
}

func (c *PCluster) Gets() int64 {
	var n int64
	for _, gw := range c.Gateways {
		n += gw.Gets
	}
	return n
}

// CheckConsistency verifies, after the engine drains, that the last
// acknowledged write per store slot is resident and byte-identical on every
// replica of its shard. Acknowledged-write records are merged across
// gateways with a deterministic (time, key, gateway) tie-break.
func (c *PCluster) CheckConsistency() error {
	buf := make([]byte, c.P.ObjSize)
	for s, grp := range c.Groups {
		type lastRec struct {
			key uint64
			gw  int
			rec *wroteRec
		}
		lastPerSlot := make(map[uint64]lastRec)
		for g, gw := range c.Gateways {
			keys := make([]uint64, 0, len(gw.wrote[s]))
			for k := range gw.wrote[s] {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, key := range keys {
				rec := gw.wrote[s][key]
				slot := keyIndex(key, c.P.Objects)
				prev, ok := lastPerSlot[slot]
				if !ok || rec.at > prev.rec.at ||
					(rec.at == prev.rec.at && (key > prev.key || (key == prev.key && g > prev.gw))) {
					lastPerSlot[slot] = lastRec{key: key, gw: g, rec: rec}
				}
			}
		}
		slots := make([]uint64, 0, len(lastPerSlot))
		for slot := range lastPerSlot {
			slots = append(slots, slot)
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		for _, slot := range slots {
			want := lastPerSlot[slot].rec.buf
			for r, rep := range grp.Replicas {
				if !rep.alive {
					continue
				}
				if !rep.Store.Has(slot) {
					return fmt.Errorf("shard %d replica %d: acked slot %d missing", s, r, slot)
				}
				got := rep.Host.PM.ReadBytesInto(rep.Store.Addr(slot), buf[:len(want)])
				if !bytes.Equal(got, want) {
					return fmt.Errorf("shard %d replica %d: acked slot %d diverged", s, r, slot)
				}
			}
		}
	}
	return nil
}

// PLoadResult aggregates a partitioned load run. Everything in it is a pure
// function of the simulation, so Fingerprint is comparable across runs.
type PLoadResult struct {
	Samples  []Sample
	End      sim.Time
	Writes   int
	Reads    int
	BadReads int
	Errors   int

	// QueueHWM is the deepest any gateway's open-loop arrival queue got —
	// the boundedness witness for the large-population smoke runs.
	QueueHWM int
	// DistinctClients counts logical clients that issued at least one op
	// (open loop with LogicalClients; else the closed-loop client count).
	DistinctClients int
}

// Throughput returns completed ops per second of simulated time.
func (r *PLoadResult) Throughput() float64 {
	el := r.End.Duration().Seconds()
	if el <= 0 {
		return 0
	}
	return float64(len(r.Samples)) / el
}

// Fingerprint hashes the merged samples and counters; byte-identical runs
// have equal fingerprints.
func (r *PLoadResult) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, s := range r.Samples {
		put(uint64(s.At))
		put(uint64(s.Dur))
		put(uint64(s.Shard))
		if s.Write {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(r.End))
	put(uint64(r.Writes))
	put(uint64(r.Reads))
	put(uint64(r.BadReads))
	put(uint64(r.Errors))
	put(uint64(r.QueueHWM))
	put(uint64(r.DistinctClients))
	return h.Sum64()
}

// ownerGateway maps a verified key to the gateway whose client owns it:
// snapWriter gives key k to client k mod Clients, and client c drives
// through gateway c mod Gateways.
func ownerGateway(key uint64, clients, gateways int) int {
	return int(key%uint64(clients)) % gateways
}

// pgwRun is one gateway's share of an in-flight load: samples, counters and
// verification state, all owned by that gateway's kernel until the engine
// drains.
type pgwRun struct {
	samples   []Sample
	writes    int
	reads     int
	badReads  int
	errors    int
	queueHWM  int
	clientSet map[int]struct{}
	issuedVer map[uint64]uint32
	end       sim.Time
	done      bool
}

// PLoadRun is an in-flight partitioned load started by StartLoad: the client
// procs are spawned but the caller owns the engine stepping (Run, or
// RunWindows from a crash-injection driver). Done and Collect may only be
// called at a window barrier.
type PLoadRun struct {
	c    *PCluster
	runs []*pgwRun
}

// Done reports whether every gateway's workload has completed.
func (r *PLoadRun) Done() bool {
	for _, run := range r.runs {
		if !run.done {
			return false
		}
	}
	return true
}

// Collect merges the per-gateway results canonically (by completion time,
// then source gateway). Call after the engine drained — or at a barrier past
// Done when auxiliary procs (a failover controller) keep the engine busy.
func (r *PLoadRun) Collect() *PLoadResult {
	res := &PLoadResult{}
	for _, run := range r.runs {
		res.Samples = append(res.Samples, run.samples...)
		res.Writes += run.writes
		res.Reads += run.reads
		res.BadReads += run.badReads
		res.Errors += run.errors
		res.DistinctClients += len(run.clientSet)
		if run.queueHWM > res.QueueHWM {
			res.QueueHWM = run.queueHWM
		}
		if run.end > res.End {
			res.End = run.end
		}
	}
	// Canonical merge: completion time, then source gateway, then that
	// gateway's completion order — the concatenation above is already in
	// (gateway, local) order, so a stable sort on time is exactly that.
	sort.SliceStable(res.Samples, func(i, j int) bool { return res.Samples[i].At < res.Samples[j].At })
	return res
}

// RunLoad drives the workload: it spawns per-gateway client procs, runs the
// engine to completion, and merges the per-gateway results canonically (by
// completion time, then gateway). Closed loop runs the plain ReadFrac mix or
// a YCSB workload; open loop runs the plain mix.
//
// In open loop, Load.LogicalClients (when > over the worker count) models a
// client population far larger than the service-worker pool: the aggregate
// Poisson arrival process is the superposition of the population's
// individual processes, each arrival is attributed to one logical client,
// and key choice is offset per client so the footprint spreads the way a
// real population's would.
func (c *PCluster) RunLoad(l Load) (*PLoadResult, error) {
	run, err := c.StartLoad(l)
	if err != nil {
		return nil, err
	}
	c.Eng.Run()
	return run.Collect(), nil
}

// StartLoad validates l and spawns the per-gateway client procs without
// stepping the engine — the crash-injection drivers step windows themselves
// (see RunLoad for the one-shot form and the workload semantics).
func (c *PCluster) StartLoad(l Load) (*PLoadRun, error) {
	if l.Clients <= 0 || l.Ops <= 0 {
		return nil, fmt.Errorf("cluster: load needs Clients>0, Ops>0")
	}
	if l.OpenLoop && l.Workload != 0 {
		return nil, fmt.Errorf("cluster: YCSB workloads run closed-loop only")
	}
	G := c.P.Gateways
	if l.KeySpace <= 0 {
		l.KeySpace = int64(c.P.Objects)
	}
	if l.Verify {
		if c.P.ObjSize < 16 {
			return nil, fmt.Errorf("cluster: Verify needs ObjSize ≥ 16")
		}
		if int64(l.Clients) < l.KeySpace {
			l.KeySpace -= l.KeySpace % int64(l.Clients)
		}
	}
	if l.Theta == 0 {
		l.Theta = 0.99
	}
	if l.MaxScan <= 0 {
		l.MaxScan = 8
	}

	runs := make([]*pgwRun, G)

	for g := 0; g < G; g++ {
		g := g
		gw := c.Gateways[g]
		run := &pgwRun{issuedVer: make(map[uint64]uint32), clientSet: make(map[int]struct{})}
		runs[g] = run
		nextVer := make(map[uint64]uint32)

		// checkRead verifies one read of key. Reads of keys owned by another
		// gateway's clients check payload structure only: the issued-version
		// history lives with the owner.
		checkRead := func(data []byte, key uint64) {
			maxVer := uint32(math.MaxUint32)
			if ownerGateway(key, l.Clients, G) == g {
				maxVer = run.issuedVer[key]
			}
			if err := checkFill(data, key, maxVer); err != nil {
				run.badReads++
			}
		}

		// op runs one operation on a proc of this gateway's kernel and
		// records its sample. arrivedAt anchors the latency measurement (open
		// loop: the scheduled arrival; closed loop: the issue instant).
		buf := make(map[int][]byte)
		op := func(wp *sim.Proc, client int, write bool, key uint64, arrivedAt sim.Time) {
			shard := c.Ring.Shard(key)
			if write {
				ver := uint32(1)
				if l.Verify {
					key = snapWriter(key, client, l.Clients, l.KeySpace)
					shard = c.Ring.Shard(key)
					ver = nextVer[key] + 1
					nextVer[key] = ver
					run.issuedVer[key] = ver
				}
				payload := buf[client]
				if payload == nil {
					payload = make([]byte, c.P.ObjSize)
					buf[client] = payload
				}
				if l.Verify {
					fill(payload, key, ver)
				}
				if err := c.PutOn(wp, g, key, ver, payload); err != nil {
					run.errors++
					return
				}
				run.writes++
			} else {
				data, err := c.GetOn(wp, g, key, c.P.ObjSize)
				if err != nil {
					run.errors++
					return
				}
				run.reads++
				if l.Verify {
					checkRead(data, key)
				}
			}
			now := wp.Now()
			run.samples = append(run.samples, Sample{At: now, Dur: now.Sub(arrivedAt), Shard: shard, Write: write})
		}

		// scan serves one workload-E scan as n sequential reads; the whole
		// scan is one sample.
		scan := func(wp *sim.Proc, key uint64, n int) {
			start := wp.Now()
			if n <= 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				k := (key + uint64(i)) % uint64(l.KeySpace)
				data, err := c.GetOn(wp, g, k, c.P.ObjSize)
				if err != nil {
					run.errors++
					return
				}
				run.reads++
				if l.Verify {
					checkRead(data, k)
				}
			}
			now := wp.Now()
			run.samples = append(run.samples, Sample{At: now, Dur: now.Sub(start), Shard: c.Ring.Shard(key)})
		}

		wg := sim.NewWaitGroup(gw.K)
		if l.OpenLoop {
			if l.Rate <= 0 {
				return nil, fmt.Errorf("cluster: open loop needs Rate > 0")
			}
			population := l.LogicalClients
			if population < l.Clients {
				population = l.Clients
			}
			popG := population/G + 1 // this gateway's logical clients: g, g+G, ...
			ops := l.Ops / G
			if g < l.Ops%G {
				ops++
			}
			workers := l.Clients / G
			if g < l.Clients%G {
				workers++
			}
			if workers < 1 {
				workers = 1
			}
			type arrival struct {
				at     sim.Time
				client int
				key    uint64
				write  bool
				stop   bool
			}
			queue := sim.NewChan[arrival](gw.K)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				gw.K.Go(fmt.Sprintf("gw%d-worker", g), func(wp *sim.Proc) {
					defer wg.Done()
					for {
						a := queue.Pop(wp)
						if a.stop {
							return
						}
						op(wp, a.client, a.write, a.key, a.at)
					}
				})
			}
			wg.Add(1)
			gw.K.Go(fmt.Sprintf("gw%d-arrivals", g), func(ap *sim.Proc) {
				defer wg.Done()
				rng := sim.NewRand(l.Seed ^ (uint64(g)+1)*0xa11a)
				zipf := ycsb.NewZipfian(rng, l.KeySpace, l.Theta)
				for i := 0; i < ops; i++ {
					gap := time.Duration(rng.Exp(1e9 / (l.Rate / float64(G))))
					ap.Sleep(gap)
					cid := g + G*rng.Intn(popG)
					run.clientSet[cid] = struct{}{}
					// Offset the zipfian draw per logical client so a large
					// population touches a spread of keys, not one hot set.
					key := (uint64(zipf.Scrambled()) + uint64(cid)*7919) % uint64(l.KeySpace)
					queue.Push(arrival{
						at: ap.Now(), client: cid, key: key,
						write: rng.Float64() >= l.ReadFrac,
					})
					if d := queue.Len(); d > run.queueHWM {
						run.queueHWM = d
					}
				}
				for w := 0; w < workers; w++ {
					queue.Push(arrival{stop: true})
				}
			})
		} else {
			// Closed loop: global client ids c with c mod G == g live here,
			// each with a static ops quota (no cross-kernel shared counter).
			for client := g; client < l.Clients; client += G {
				wg.Add(1)
				client := client
				ops := l.Ops / l.Clients
				if client < l.Ops%l.Clients {
					ops++
				}
				run.clientSet[client] = struct{}{}
				seed := l.Seed ^ (uint64(client)+1)*0x9e3779b97f4a7c15
				gw.K.Go(fmt.Sprintf("gw%d-client%d", g, client), func(wp *sim.Proc) {
					defer wg.Done()
					if l.Workload != 0 {
						gen := ycsb.NewGenerator(l.Workload, ycsb.Config{
							Records:   int(l.KeySpace),
							ValueSize: c.P.ObjSize,
							Theta:     l.Theta,
							MaxScan:   l.MaxScan,
							Seed:      seed,
						})
						for i := 0; i < ops; i++ {
							// One generator draw is one op; read-modify-write
							// pairs (F) sample as a read plus a write.
							for _, r := range gen.Next() {
								key := r.Key % uint64(l.KeySpace)
								switch r.Op {
								case rpc.OpScan:
									scan(wp, key, r.ScanLen)
								case rpc.OpWrite:
									op(wp, client, true, key, wp.Now())
								default:
									op(wp, client, false, key, wp.Now())
								}
							}
						}
						return
					}
					rng := sim.NewRand(seed)
					zipf := ycsb.NewZipfian(rng, l.KeySpace, l.Theta)
					for i := 0; i < ops; i++ {
						op(wp, client, rng.Float64() >= l.ReadFrac, uint64(zipf.Scrambled()), wp.Now())
					}
				})
			}
		}
		gw.K.Go(fmt.Sprintf("gw%d-join", g), func(p *sim.Proc) {
			wg.Wait(p)
			run.end = p.Now()
			run.done = true
		})
	}

	return &PLoadRun{c: c, runs: runs}, nil
}
