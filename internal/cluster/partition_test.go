package cluster

import (
	"fmt"
	"testing"
	"time"

	"prdma/internal/rpc"
	"prdma/internal/sim"
	"prdma/internal/ycsb"
)

func partParams() Params {
	p := DefaultParams()
	p.Shards = 2
	p.Replicas = 2
	p.PoolSize = 2
	p.Gateways = 2
	p.Objects = 256
	p.ObjSize = 64
	return p
}

// quickParams is a single-gateway 2×3 deployment: the topology the failover
// controller runs on.
func quickParams() Params {
	p := partParams()
	p.Gateways = 1
	p.Replicas = 3
	return p
}

// runPart builds a partitioned cluster, drives l, and returns (result,
// consistency error).
func runPart(t *testing.T, l Load) (*PLoadResult, error) {
	t.Helper()
	c, err := NewPartitioned(1, partParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunLoad(l)
	if err != nil {
		t.Fatal(err)
	}
	return res, c.CheckConsistency()
}

// TestPartitionedClusterDeterminism pins the tentpole contract at the top of
// the stack: the full partitioned KV cluster — gateways, replicated durable
// connections, consistent-hash routing — produces an identical merged result
// in two runs, stays consistent, and verifies every read.
func TestPartitionedClusterDeterminism(t *testing.T) {
	l := Load{Clients: 8, Ops: 300, ReadFrac: 0.5, Verify: true, Seed: 42}
	base, cerr := runPart(t, l)
	if cerr != nil {
		t.Fatalf("consistency: %v", cerr)
	}
	if base.Errors != 0 || base.BadReads != 0 {
		t.Fatalf("errors=%d badReads=%d", base.Errors, base.BadReads)
	}
	if len(base.Samples) != l.Ops {
		t.Fatalf("%d samples, want %d", len(base.Samples), l.Ops)
	}
	res, cerr := runPart(t, l)
	if cerr != nil {
		t.Fatalf("second run: consistency: %v", cerr)
	}
	if res.Fingerprint() != base.Fingerprint() {
		t.Fatalf("second run fingerprint %x != first %x", res.Fingerprint(), base.Fingerprint())
	}
}

// TestPartitionedOpenLoopPopulation exercises the open-loop path with a
// logical population far above the service-worker count: the run completes,
// arrivals attribute to a wide slice of the population, the queue stays
// bounded, and two runs agree bit-for-bit.
func TestPartitionedOpenLoopPopulation(t *testing.T) {
	l := Load{
		Clients: 8, Ops: 400, ReadFrac: 0.5,
		OpenLoop: true, Rate: 5e5, LogicalClients: 100_000,
		Seed: 7,
	}
	base, cerr := runPart(t, l)
	if cerr != nil {
		t.Fatalf("consistency: %v", cerr)
	}
	if base.Errors != 0 {
		t.Fatalf("errors=%d", base.Errors)
	}
	if len(base.Samples) != l.Ops {
		t.Fatalf("%d samples, want %d", len(base.Samples), l.Ops)
	}
	if base.DistinctClients < l.Ops/2 {
		t.Fatalf("only %d distinct logical clients over %d ops", base.DistinctClients, l.Ops)
	}
	if base.QueueHWM <= 0 || base.QueueHWM > l.Ops {
		t.Fatalf("queue high-water %d out of range", base.QueueHWM)
	}
	res2, _ := runPart(t, l)
	if res2.Fingerprint() != base.Fingerprint() {
		t.Fatalf("second run fingerprint diverged")
	}
}

// TestPartitionedAllDurableFamilies pins engine-mode parity at the cluster
// layer: every durable RPC family deploys partitioned, finishes the verified
// workload consistently, and is reproducible run to run. Non-durable
// families are still rejected — there is no persistence contract to check.
func TestPartitionedAllDurableFamilies(t *testing.T) {
	l := Load{Clients: 4, Ops: 120, ReadFrac: 0.3, Verify: true, Seed: 11}
	for _, kind := range []rpc.Kind{rpc.WFlushRPC, rpc.SFlushRPC, rpc.WRFlushRPC, rpc.SRFlushRPC} {
		t.Run(kind.String(), func(t *testing.T) {
			p := partParams()
			p.Kind = kind
			run := func() (*PLoadResult, error) {
				c, err := NewPartitioned(1, p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.RunLoad(l)
				if err != nil {
					t.Fatal(err)
				}
				return res, c.CheckConsistency()
			}
			base, cerr := run()
			if cerr != nil {
				t.Fatalf("consistency: %v", cerr)
			}
			if base.Errors != 0 || base.BadReads != 0 {
				t.Fatalf("errors=%d badReads=%d", base.Errors, base.BadReads)
			}
			res, cerr := run()
			if cerr != nil {
				t.Fatalf("second run: consistency: %v", cerr)
			}
			if res.Fingerprint() != base.Fingerprint() {
				t.Fatalf("second run fingerprint %x != first %x", res.Fingerprint(), base.Fingerprint())
			}
		})
	}
	p := partParams()
	p.Kind = rpc.FaRM
	if _, err := NewPartitioned(1, p); err == nil {
		t.Fatal("non-durable partitioned deployment did not error")
	}
}

// TestPartitionedFailoverRecovery crashes a replica at a window barrier under
// a controller-managed single-gateway deployment and drives it through
// detect, promote, resync, and readmission — asserting no acknowledged write
// is lost and the cluster returns to full health.
func TestPartitionedFailoverRecovery(t *testing.T) {
	p := partParams()
	p.Gateways = 1
	p.Replicas = 3
	c, err := NewPartitioned(1, p)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableAckAudit()
	ct, err := c.StartController()
	if err != nil {
		t.Fatal(err)
	}
	load, err := c.StartLoad(Load{Clients: 4, Ops: 200, ReadFrac: 0.3, Verify: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.RunWindows(40)
	c.Eng.Serialize()
	c.CrashReplica(0, 0)
	crashAt := c.Now()
	restarted := false
	horizon := crashAt.Add(100 * time.Millisecond)
	for !(load.Done() && c.Healthy()) && c.Now() < horizon {
		if !restarted && c.Now() >= crashAt.Add(c.P.Restart) {
			c.RestartReplica(0, 0)
			restarted = true
		}
		if c.Eng.RunWindows(16) == 0 {
			break
		}
	}
	ct.Stop()
	for c.Now() < horizon && c.Eng.RunWindows(256) != 0 {
	}
	c.Eng.Unserialize()
	res := load.Collect()
	if !load.Done() {
		t.Fatal("load never finished")
	}
	if !c.Healthy() {
		t.Fatal("cluster not healthy after recovery")
	}
	if res.Errors != 0 || res.BadReads != 0 {
		t.Fatalf("errors=%d badReads=%d", res.Errors, res.BadReads)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("consistency: %v", err)
	}
	grp := c.Groups[0]
	if grp.Failovers == 0 {
		t.Fatal("crash never detected")
	}
	if grp.Resyncs == 0 {
		t.Fatal("victim never readmitted")
	}
	var promoted, resyncDone bool
	for _, ev := range ct.Events {
		switch ev.Kind {
		case "promote":
			promoted = true
		case "resync-done":
			resyncDone = true
		}
	}
	if !promoted || !resyncDone {
		t.Fatalf("controller events missing promote/resync-done: %v", ct.Events)
	}
	c.Eng.Shutdown()
}

// TestPartitionedWorkloadSemantics drives the plain mix and every YCSB core
// workload through one and two gateways: every op completes without error,
// every read verifies, the cluster ends consistent, and the result is
// identical in two runs.
func TestPartitionedWorkloadSemantics(t *testing.T) {
	wls := append([]ycsb.Workload{0}, ycsb.Workloads...)
	for _, gateways := range []int{1, 2} {
		for _, wl := range wls {
			name := "mix"
			if wl != 0 {
				name = wl.String()
			}
			t.Run(fmt.Sprintf("gw%d/%s", gateways, name), func(t *testing.T) {
				p := partParams()
				p.Gateways = gateways
				l := Load{Clients: 4, Ops: 200, ReadFrac: 0.3, Workload: wl, Verify: true, Seed: 9}
				run := func() *PLoadResult {
					c, err := NewPartitioned(1, p)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Eng.Shutdown()
					res, err := c.RunLoad(l)
					if err != nil {
						t.Fatal(err)
					}
					if err := c.CheckConsistency(); err != nil {
						t.Fatalf("consistency: %v", err)
					}
					if c.Puts() != int64(res.Writes) || c.Gets() != int64(res.Reads) {
						t.Fatalf("counters puts=%d gets=%d, result writes=%d reads=%d",
							c.Puts(), c.Gets(), res.Writes, res.Reads)
					}
					return res
				}
				res := run()
				if res.Errors != 0 || res.BadReads != 0 {
					t.Fatalf("errors=%d badReads=%d", res.Errors, res.BadReads)
				}
				if wl == 0 && res.Writes+res.Reads != l.Ops {
					t.Fatalf("writes=%d reads=%d, want total %d", res.Writes, res.Reads, l.Ops)
				}
				if len(res.Samples) < l.Ops || (res.Writes == 0 && wl != ycsb.C) || res.Reads == 0 {
					t.Fatalf("degenerate run: %d samples, %d writes, %d reads", len(res.Samples), res.Writes, res.Reads)
				}
				if res.End <= 0 || res.Throughput() <= 0 {
					t.Fatalf("degenerate timing end=%v", res.End)
				}
				if again := run(); again.Fingerprint() != res.Fingerprint() {
					t.Fatalf("second run fingerprint %x != first %x", again.Fingerprint(), res.Fingerprint())
				}
			})
		}
	}
	c, err := NewPartitioned(1, partParams())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Eng.Shutdown()
	if _, err := c.StartLoad(Load{Clients: 2, Ops: 10, Workload: ycsb.A, OpenLoop: true, Rate: 1e5}); err == nil {
		t.Fatal("open-loop YCSB load did not error")
	}
}

// TestClusterPutGetConverges drives a healthy single-gateway cluster with
// its controller running and checks every acknowledged write is
// byte-identical on all replicas once settled.
func TestClusterPutGetConverges(t *testing.T) {
	c, err := NewPartitioned(1, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Eng.Shutdown()
	ct, err := c.StartController()
	if err != nil {
		t.Fatal(err)
	}
	load, err := c.StartLoad(Load{Clients: 8, Ops: 400, ReadFrac: 0.5, Verify: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.StepUntil(load.Done, c.Now().Add(time.Second))
	ct.Drain(c.Now().Add(2 * time.Millisecond))
	res := load.Collect()
	if len(res.Samples) != 400 {
		t.Fatalf("samples: got %d, want 400", len(res.Samples))
	}
	if res.Errors != 0 || res.BadReads != 0 {
		t.Fatalf("errors=%d badReads=%d", res.Errors, res.BadReads)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 || res.Reads == 0 {
		t.Fatalf("degenerate mix: %d writes %d reads", res.Writes, res.Reads)
	}
	if len(ct.Events) != 0 {
		t.Fatalf("controller acted on a crash-free run: %v", ct.Events)
	}
}

// TestClusterFailover crashes a shard primary mid-load through the driver's
// injection API: the controller must detect it, promote a survivor, resync
// the rejoiner once InjectCrash's scheduled restart fires, and no
// acknowledged write may be lost or diverge.
func TestClusterFailover(t *testing.T) {
	c, err := NewPartitioned(1, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Eng.Shutdown()
	ct, err := c.StartController()
	if err != nil {
		t.Fatal(err)
	}
	load, err := c.StartLoad(Load{Clients: 8, Ops: 1200, ReadFrac: 0.5, Verify: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Crash shard 0's primary once traffic is flowing.
	c.StepUntil(func() bool { return c.Now() >= sim.Time(500*time.Microsecond) }, sim.Time(time.Second))
	c.Eng.Serialize()
	crashAt := c.Now()
	c.InjectCrash(crashAt, 0, c.Groups[0].Primary)
	horizon := crashAt.Add(50 * time.Millisecond)
	c.StepUntil(func() bool { return load.Done() && c.Healthy() }, horizon)
	ct.Drain(c.Now().Add(2 * time.Millisecond))
	c.Eng.Unserialize()
	if !c.Healthy() {
		t.Fatal("cluster never became healthy again")
	}
	res := load.Collect()
	if res.Errors != 0 {
		t.Fatalf("%d operations failed permanently", res.Errors)
	}
	if res.BadReads != 0 {
		t.Fatalf("%d reads returned invalid payloads", res.BadReads)
	}
	grp := c.Groups[0]
	if grp.Failovers == 0 {
		t.Fatal("controller never detected the crash")
	}
	if grp.Promotions == 0 {
		t.Fatal("no primary promotion")
	}
	if grp.Resyncs == 0 {
		t.Fatal("replica never resynchronized")
	}
	if grp.Replicas[0].Restarts+grp.Replicas[1].Restarts+grp.Replicas[2].Restarts == 0 {
		t.Fatal("victim never restarted")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := ct.LastEvent("resync-done"); got == 0 {
		t.Fatal("no resync-done event recorded")
	}
}

// TestClusterOpenLoop exercises the open-loop generator: latency includes
// queueing delay, so with a deliberately overloaded arrival rate the mean
// open-loop latency must exceed the closed-loop mean on the same cluster.
func TestClusterOpenLoop(t *testing.T) {
	mean := func(open bool) time.Duration {
		l := Load{Clients: 4, Ops: 300, ReadFrac: 0.5, Seed: 11}
		if open {
			l.OpenLoop = true
			l.Rate = 2e6 // well past 4 workers' capacity: queueing builds
		}
		res, cerr := runPart(t, l)
		if cerr != nil {
			t.Fatal(cerr)
		}
		if len(res.Samples) != 300 {
			t.Fatalf("%d samples, want 300", len(res.Samples))
		}
		var sum time.Duration
		for _, s := range res.Samples {
			sum += s.Dur
		}
		return sum / time.Duration(len(res.Samples))
	}
	closedMean, openMean := mean(false), mean(true)
	if openMean <= closedMean {
		t.Fatalf("overloaded open-loop mean %v should exceed closed-loop %v (queueing)", openMean, closedMean)
	}
}

// TestClusterRouting pins routing determinism: the same key always lands on
// the same shard, and the load spreads across all shards.
func TestClusterRouting(t *testing.T) {
	c, err := NewPartitioned(1, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for key := uint64(0); key < 512; key++ {
		s := c.Ring.Shard(key)
		if s2 := c.Ring.Shard(key); s2 != s {
			t.Fatalf("key %d routed to %d then %d", key, s, s2)
		}
		seen[s]++
	}
	if len(seen) != c.P.Shards {
		t.Fatalf("only %d of %d shards received keys", len(seen), c.P.Shards)
	}
}
