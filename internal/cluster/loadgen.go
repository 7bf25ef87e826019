package cluster

import (
	"encoding/binary"
	"fmt"
	"time"

	"prdma/internal/sim"
	"prdma/internal/ycsb"
)

// Load configures the cluster load generator.
type Load struct {
	// Clients is the number of simulated client procs (closed loop) or
	// service workers (open loop), spread round-robin over the gateways.
	// Tens of thousands are fine: procs are cheap coroutines.
	Clients int
	// Ops is the total operation count across all clients; in closed loop
	// each client has a fixed share (a YCSB draw — one scan, or one
	// read-modify-write pair — is one op).
	Ops int
	// ReadFrac is the read share of the mix (0..1).
	ReadFrac float64
	// KeySpace is the zipfian key population; Theta its skew (0.99 = YCSB).
	KeySpace int64
	Theta    float64
	// Workload, when set, drives the closed loop from a YCSB core workload
	// (ycsb.A..ycsb.F) instead of the plain ReadFrac mix: updates, inserts,
	// scans and read-modify-write pairs per the workload's own ratios, one
	// generator per client. Insert-grown keys wrap into KeySpace so slots
	// stay injective for the verification payloads. Open loop does not
	// support it.
	Workload ycsb.Workload
	// MaxScan bounds workload E's scan lengths (default 8).
	MaxScan int
	// OpenLoop switches from closed-loop (each client issues the next op
	// when the previous completes) to open-loop (ops arrive on a Poisson
	// schedule at Rate ops/sec and queue for a worker; latency then
	// includes queueing delay, the paper's Fig. 8 methodology).
	OpenLoop bool
	Rate     float64
	// LogicalClients, in an open-loop run, sizes the modelled client
	// population independently of the Clients worker pool: arrivals are
	// attributed to logical clients drawn from this population (Poisson
	// superposition). Zero means Clients.
	LogicalClients int
	// Verify embeds self-describing (key, version) payloads in every write
	// and checks every read against the acknowledged history. Requires
	// ObjSize ≥ 16 and snaps write keys to one writer per key so replicas
	// converge byte-identically regardless of apply interleaving.
	Verify bool
	// Seed drives all workload randomness (forked per client).
	Seed uint64
}

// Sample is one completed operation.
type Sample struct {
	At    sim.Time // completion time
	Dur   time.Duration
	Shard int
	Write bool
}

// fill writes the self-describing payload for (key, ver) into buf:
// key at [0,8), ver at [8,12), then a (key,ver)-derived pattern from 16.
func fill(buf []byte, key uint64, ver uint32) {
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint32(buf[8:], ver)
	binary.LittleEndian.PutUint32(buf[12:], 0)
	for j := 16; j < len(buf); j++ {
		buf[j] = byte(17*key + 31*uint64(ver) + uint64(j))
	}
}

// checkFill verifies buf is a well-formed payload for key with a version
// no later than maxVer. All-zero buffers (never-written keys) pass.
func checkFill(buf []byte, key uint64, maxVer uint32) error {
	zero := true
	for _, b := range buf {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return nil
	}
	gotKey := binary.LittleEndian.Uint64(buf[0:])
	ver := binary.LittleEndian.Uint32(buf[8:])
	if gotKey != key {
		return fmt.Errorf("payload for key %d carries key %d", key, gotKey)
	}
	if ver == 0 || ver > maxVer {
		return fmt.Errorf("key %d: version %d outside issued range [1,%d]", key, ver, maxVer)
	}
	for j := 16; j < len(buf); j++ {
		if buf[j] != byte(17*key+31*uint64(ver)+uint64(j)) {
			return fmt.Errorf("key %d ver %d: pattern corrupt at byte %d", key, ver, j)
		}
	}
	return nil
}

// snapWriter maps a zipfian key to the single key in its block owned by
// this client, preserving popularity classes while guaranteeing one writer
// per key (required for byte-identical replica convergence: concurrent
// same-key writers would race apply order across replicas).
func snapWriter(zip uint64, client, clients int, keySpace int64) uint64 {
	k := (zip/uint64(clients))*uint64(clients) + uint64(client)
	if k >= uint64(keySpace) {
		k -= uint64(clients)
	}
	return k
}
