package cluster

import (
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/replicate"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// Params configures a cluster deployment.
type Params struct {
	// Shards is the number of shard groups; Replicas the replication
	// factor inside each group.
	Shards, Replicas int
	// PoolSize is the number of replicated connections pooled per shard —
	// the per-shard concurrency limit on the client side.
	PoolSize int
	// Gateways is the number of client-side gateway partitions. The
	// failover controller needs exactly one (see StartController).
	Gateways int
	// VNodes is the virtual nodes per shard on the consistent-hash ring.
	VNodes int
	// Policy is the write-completion rule (replicate.WaitAll/WaitQuorum).
	Policy replicate.Policy
	// Kind is the durable RPC family replicas speak.
	Kind rpc.Kind
	// Objects and ObjSize size each replica's store.
	Objects, ObjSize int
	// Seed derives the ring placement and all workload randomness.
	Seed uint64
	// Cfg is the per-replica RPC engine configuration.
	Cfg rpc.Config
	// Restart is a crashed replica's restart latency; Retry is the client
	// retry interval while a shard rides out a failure; CheckEvery is the
	// failure-detector poll period; Grace pads the resync window to cover
	// writes that completed between the crash and its detection.
	Restart, Retry, CheckEvery, Grace time.Duration

	// MutantResurrect seeds a known bug class for the fault-matrix
	// mutant-detection check: it disables the stores' stale-write version
	// guard and makes resync ship catch-up images BEFORE replaying the
	// victim's redo-log backlogs, so replayed old versions can resurrect
	// over newer acknowledged writes. Never set outside that check.
	MutantResurrect bool

	// Net/HostP/PM/NIC are the testbed parameters for every node.
	Net   fabric.Params
	HostP host.Params
	PM    pmem.Params
	NIC   rnic.Params
}

// DefaultParams returns a 4-shard, 3-replica quorum cluster over WFlush.
func DefaultParams() Params {
	return Params{
		Shards:     4,
		Replicas:   3,
		PoolSize:   4,
		Gateways:   2,
		VNodes:     64,
		Policy:     replicate.WaitQuorum,
		Kind:       rpc.WFlushRPC,
		Objects:    1024,
		ObjSize:    256,
		Seed:       1,
		Cfg:        rpc.DefaultConfig(),
		Restart:    2 * time.Millisecond,
		Retry:      200 * time.Microsecond,
		CheckEvery: 100 * time.Microsecond,
		Grace:      time.Millisecond,
		Net:        fabric.DefaultParams(),
		HostP:      host.DefaultParams(),
		PM:         pmem.DefaultParams(),
		NIC:        rnic.DefaultParams(),
	}
}

// Replica is one storage node of a shard group.
type Replica struct {
	Host   *host.Host
	Store  *rpc.Store
	Engine *rpc.Server

	alive     bool
	crashedAt sim.Time
	Restarts  int
}

// wroteRec is one acknowledged write in a gateway's record: the latest
// payload image and completion time per key — a fully deduplicated redo
// log the controller ships to a rejoining replica.
type wroteRec struct {
	buf []byte
	ver uint32
	at  sim.Time
}

// putAttempts bounds the controller-mode retry loop of PutOn and GetOn:
// enough to ride out a full crash + restart + resync window at the
// configured retry cadence, with margin.
func putAttempts(p Params) int {
	window := p.Restart + p.Grace + 4*p.CheckEvery
	n := int(window/p.Retry) * 4
	if n < 64 {
		n = 64
	}
	return n
}

var empty = []byte{}

// keyIndex maps a cluster key to a slot in a replica's store. The identity
// mapping modulo the arena size keeps keys < Objects injective (the Verify
// workloads rely on that); larger keyspaces alias slots, which the
// consistency checker handles by comparing only each slot's last write.
func keyIndex(key uint64, objects int) uint64 { return key % uint64(objects) }
