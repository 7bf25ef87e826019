package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"time"

	"prdma"
	"prdma/internal/cluster"
	"prdma/internal/crashcheck"
	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/pmpool"
	"prdma/internal/redolog"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
	"prdma/internal/ycsb"
)

// A workload builds its inputs from the seed once, then runs fixed-size
// rounds. Each op a round completes is one unit of host_ops_per_s.
type workload struct {
	name    string
	opName  string
	prepare func(seed uint64) func(r *round)
}

var workloads = []workload{
	{"durable-rpc", "RPC", prepareDurableRPC},
	{"kv-cluster", "KV get/put", prepareKVCluster},
	{"crash-recover", "crash point", prepareCrashRecover},
	{"pmpool-churn", "alloc+write+free cycle", preparePMPoolChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mixSeed derives independent stream seeds from the workload seed.
func mixSeed(seed, stream uint64) uint64 {
	z := seed + stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ---- durable-rpc ----------------------------------------------------------

// The paper's core path on one serial kernel: 4 sender hosts, one closed-
// loop proc each, 50/50 read/write over zipfian(0.99) keys of 1 KiB objects.
const (
	rpcSenders   = 4
	rpcObjects   = 10000
	rpcObjSize   = 1024
	rpcOpsPerCli = 1250
)

type rpcOp struct {
	write bool
	key   uint64
}

func prepareDurableRPC(seed uint64) func(r *round) {
	// Each key has one writer (key mod rpcSenders), so the last acked
	// version of a key is its final content and every read can be checked
	// against the versions issued so far.
	ops := make([][]rpcOp, rpcSenders)
	for c := range ops {
		mix := ycsb.NewMix(0.5, rpcObjects, rpcObjSize, mixSeed(seed, uint64(c)+1))
		for i := 0; i < rpcOpsPerCli; i++ {
			req := mix.Next()
			op := rpcOp{write: req.Op == rpc.OpWrite, key: req.Key}
			if op.write {
				op.key = op.key - op.key%rpcSenders + uint64(c)
				if op.key >= rpcObjects {
					op.key -= rpcSenders
				}
			}
			ops[c] = append(ops[c], op)
		}
	}
	return func(r *round) {
		for _, kind := range prdma.DurableKinds {
			if err := durableRPCFamily(r, kind, ops); err != nil {
				r.fail("durable-rpc %v: %v", kind, err)
				return
			}
		}
	}
}

// fillPayload writes the self-describing image of (key, ver): key, version
// (the store's stale-write guard reads it at offset 8), then a fill that
// depends on both.
func fillPayload(b []byte, key uint64, ver uint32) {
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint32(b[8:], ver)
	x := byte(key*31 + uint64(ver)*7)
	for i := 12; i < len(b); i++ {
		b[i] = x + byte(i)
	}
}

// checkPayload reports whether b is the image of (key, v) for some version
// v ≤ maxVer, or an untouched (all-zero) object.
func checkPayload(b []byte, key uint64, maxVer uint32, want []byte) bool {
	if len(b) != len(want) {
		return false
	}
	ver := binary.LittleEndian.Uint32(b[8:])
	if ver == 0 {
		for _, x := range b {
			if x != 0 {
				return false
			}
		}
		return true
	}
	if binary.LittleEndian.Uint64(b) != key || ver > maxVer {
		return false
	}
	fillPayload(want, key, ver)
	return bytes.Equal(b, want)
}

func durableRPCFamily(r *round, kind rpc.Kind, ops [][]rpcOp) error {
	var c *prdma.Cluster
	var clients []prdma.Client
	err := r.setup("prdma.NewCluster", func() error {
		var err error
		c, err = prdma.NewCluster(prdma.DefaultParams(), rpcSenders, rpcObjects, rpcObjSize)
		if err != nil {
			return err
		}
		c.Store.VersionAt = 8
		for i := 0; i < rpcSenders; i++ {
			clients = append(clients, c.Connect(kind, i))
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer r.teardown("teardown", func() {
		for _, cl := range clients {
			cl.Close()
		}
		c.K.Shutdown()
	})

	issued := make([]uint32, rpcObjects) // highest version issued per key
	lat := make([][]int64, rpcSenders)
	var bad, callErrs int
	var firstErr error
	var loadEnd sim.Time // the last sender's last reply
	err = r.run("durable-rpc.load", func() error {
		for ci := range clients {
			ci := ci
			cl := clients[ci]
			c.Go(fmt.Sprintf("sender-%d", ci), func(p *sim.Proc) {
				buf := make([]byte, rpcObjSize)
				want := make([]byte, rpcObjSize)
				empty := []byte{}
				for _, op := range ops[ci] {
					req := &rpc.Request{Op: rpc.OpRead, Key: op.key, Size: rpcObjSize, Payload: empty}
					if op.write {
						issued[op.key]++
						fillPayload(buf, op.key, issued[op.key])
						req = &rpc.Request{Op: rpc.OpWrite, Key: op.key, Size: rpcObjSize, Payload: buf}
					}
					t0 := time.Now()
					resp, err := cl.Call(p, req)
					r.tr.call("rpc.call_host_us", time.Since(t0))
					if err != nil {
						callErrs++
						if firstErr == nil {
							firstErr = err
						}
						continue
					}
					lat[ci] = append(lat[ci], int64(resp.ReadyAt.Sub(resp.IssuedAt)))
					if !op.write && !checkPayload(resp.Data, op.key, issued[op.key], want) {
						bad++
					}
				}
				if now := p.Now(); now > loadEnd {
					loadEnd = now
				}
			})
		}
		c.Run()
		if p := c.K.Procs(); p > r.procs {
			r.procs = p
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.probeHeap()
	total := 0
	for ci := range ops {
		total += len(ops[ci])
		r.simLat = append(r.simLat, lat[ci]...)
	}
	r.ops += int64(total)
	r.failedOps += int64(callErrs + bad)
	err = r.verify("durable-rpc.audit", func() error {
		if callErrs > 0 {
			return fmt.Errorf("%d failed calls, first: %v", callErrs, firstErr)
		}
		if bad > 0 {
			return fmt.Errorf("%d reads returned a wrong image", bad)
		}
		if c.Engine.Handled != int64(total) {
			return fmt.Errorf("server handled %d of %d requests", c.Engine.Handled, total)
		}
		// Every write was acknowledged durable and the kernel drained, so
		// each key's PM image must be its last issued version.
		want := make([]byte, rpcObjSize)
		for key, ver := range issued {
			if ver == 0 {
				continue
			}
			got := c.Server.PM.ReadBytes(c.Store.Addr(uint64(key)), rpcObjSize)
			fillPayload(want, uint64(key), ver)
			if !bytes.Equal(got, want) {
				return fmt.Errorf("key %d: PM image is not its last acked version %d", key, ver)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.simSpan += loadEnd.Duration()
	r.fold(uint64(c.Now()), c.K.Fired())
	r.add("sim.events", float64(c.K.Fired()))
	r.add("rpc.handled", float64(c.Engine.Handled))
	r.addNet(c.Net)
	r.addHosts(append([]*host.Host{c.Server}, c.Clients...))
	for _, cl := range clients {
		if lc, ok := cl.(interface{ Log() *redolog.Log }); ok {
			r.addLog(lc.Log())
		}
	}
	return nil
}

// ---- kv-cluster -----------------------------------------------------------

// The partitioned KV cluster on the parallel engine: 8 shards × 2 replicas
// plus 4 gateways (12 kernels), 16 closed-loop clients, 64 B values.
const kvOps = 10000

func kvParams() cluster.Params {
	p := cluster.DefaultParams()
	p.Shards = 8
	p.Replicas = 2
	p.Gateways = 4
	p.PoolSize = 4
	p.Objects = 10000
	p.ObjSize = 64
	return p
}

// kvWorkers is the engine's worker count: 2, or fewer on a 1-CPU machine.
// Engine counters and results are identical at any worker count.
func kvWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func prepareKVCluster(seed uint64) func(r *round) {
	p := kvParams()
	load := cluster.Load{Clients: 16, Ops: kvOps, ReadFrac: 0.5, Verify: true, Seed: mixSeed(seed, 201)}
	return func(r *round) {
		if err := kvRound(r, p, load); err != nil {
			r.fail("kv-cluster: %v", err)
		}
	}
}

// kvDeploys is how many clusters a round builds for its set-up time; it
// drives the last one. A build is a few hundredths of a second, so one per
// round would leave the set-up median to a handful of samples.
const kvDeploys = 3

func kvRound(r *round, p cluster.Params, load cluster.Load) error {
	var c *cluster.PCluster
	for i := 0; i < kvDeploys; i++ {
		if c != nil {
			r.teardown("teardown", c.Eng.Shutdown)
		}
		err := r.setup("cluster.NewPartitioned", func() error {
			var err error
			c, err = cluster.NewPartitioned(kvWorkers(), p)
			return err
		})
		if err != nil {
			return err
		}
	}
	defer r.teardown("teardown", c.Eng.Shutdown)

	var lr *cluster.PLoadResult
	err := r.run("cluster.RunLoad", func() error {
		var err error
		lr, err = c.RunLoad(load)
		procs := 0
		for _, k := range c.Eng.Kernels() {
			procs += k.Procs()
		}
		if procs > r.procs {
			r.procs = procs
		}
		return err
	})
	if err != nil {
		return err
	}
	r.probeHeap()
	r.ops += int64(load.Ops)
	r.failedOps += int64(lr.Errors + lr.BadReads + load.Ops - len(lr.Samples))
	err = r.verify("cluster.CheckConsistency", func() error {
		if lr.Errors != 0 || lr.BadReads != 0 {
			return fmt.Errorf("%d errors, %d bad reads", lr.Errors, lr.BadReads)
		}
		if len(lr.Samples) != load.Ops {
			return fmt.Errorf("%d of %d ops completed", len(lr.Samples), load.Ops)
		}
		return c.CheckConsistency()
	})
	if err != nil {
		return err
	}
	r.simSpan += lr.End.Duration()
	for _, s := range lr.Samples {
		r.simLat = append(r.simLat, int64(s.Dur))
	}
	r.fold(lr.Fingerprint())
	windows, fused, idle, barriers, _, _ := c.CoordStats()
	r.add("sim.events", float64(c.Eng.Fired()))
	r.add("sim.windows", float64(windows))
	r.add("sim.fused", float64(fused))
	r.add("sim.idle_skips", float64(idle))
	r.add("sim.barriers", float64(barriers))
	r.add("sim.crossed", float64(c.Eng.Crossed()))
	r.add("cluster.pm_full", float64(c.PMFull()))
	r.addNet(c.Net)
	var hosts []*host.Host
	for _, gw := range c.Gateways {
		hosts = append(hosts, gw.Host)
	}
	for _, g := range c.Groups {
		for _, rep := range g.Replicas {
			hosts = append(hosts, rep.Host)
			r.add("rpc.handled", float64(rep.Engine.Handled))
		}
	}
	r.addHosts(hosts)
	return nil
}

// ---- crash-recover --------------------------------------------------------

// The crash-point sweep over the four durable families on the readwrite
// mix: event-boundary, torn and second-crash points at the checker's
// default 5:1 ratio and second crash every 5th point.
const (
	crashPoints = 10
	crashTorn   = 2
)

func prepareCrashRecover(seed uint64) func(r *round) {
	return func(r *round) {
		for _, kind := range prdma.DurableKinds {
			cfg := crashcheck.DefaultConfig(kind, crashcheck.MixReadWrite, int64(mixSeed(seed, 300)>>1))
			cfg.Points, cfg.TornPoints = crashPoints, crashTorn
			if err := crashCell(r, cfg); err != nil {
				r.fail("crash-recover %v: %v", kind, err)
				return
			}
		}
	}
}

// crashSetups is how many times a cell times its set-up: one set-up is a
// millisecond or so, and a run's set-up median needs many of them.
const crashSetups = 4

func crashCell(r *round, cfg crashcheck.Config) error {
	// Sweep builds a fresh deployment for its reference run and for every
	// crash point, out of reach of a timer. A cell's set-up is the same
	// builds, one per run, done here and then torn down unused.
	for i := 0; i < crashSetups; i++ {
		var ks []*sim.Kernel
		err := r.setup("crashcheck.deploy", func() error {
			for j := 0; j <= cfg.Points+cfg.TornPoints; j++ {
				k, err := crashDeploy(cfg)
				if err != nil {
					return err
				}
				ks = append(ks, k)
			}
			return nil
		})
		r.teardown("teardown", func() {
			for _, k := range ks {
				k.Shutdown()
			}
		})
		if err != nil {
			return err
		}
	}
	var res crashcheck.Result
	r.run("crashcheck.Sweep", func() error {
		res = crashcheck.Sweep(cfg)
		return nil
	})
	r.probeHeap()
	r.ops += int64(cfg.Points + cfg.TornPoints)
	r.failedOps += int64(res.ViolationCount)
	err := r.verify("crashcheck.verdict", func() error {
		if res.ViolationCount != 0 {
			msg := fmt.Sprintf("%d violations", res.ViolationCount)
			if v := res.Minimal(); v != nil {
				msg += "; minimal: " + v.String()
			}
			return errors.New(msg)
		}
		if res.Points != cfg.Points+cfg.TornPoints {
			return fmt.Errorf("swept %d of %d points", res.Points, cfg.Points+cfg.TornPoints)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.fold(res.Events, uint64(res.Replayed), uint64(res.Points))
	r.add("crashcheck.cells", 1)
	r.add("crashcheck.points", float64(res.Points))
	r.add("crashcheck.replays", float64(res.Replayed))
	r.add("crashcheck.ref_events", float64(res.Events))
	return nil
}

// crashDeploy builds the deployment crashcheck builds for each run, with
// its settings: a client and a server host on one kernel, the server's
// 128-object store and single-worker rpc server over a 16-entry redo log
// ring, and a durable client of cfg.Kind.
func crashDeploy(cfg crashcheck.Config) (*sim.Kernel, error) {
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), uint64(cfg.Seed)|1)
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	srv := host.New(k, "srv", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	store, err := rpc.NewStore(srv, 128, cfg.ObjSize)
	if err != nil {
		return nil, err
	}
	rcfg := rpc.DefaultConfig()
	rcfg.Workers = 1
	rcfg.ProcessingTime = 3 * time.Microsecond
	rcfg.SparsePayloads = false
	rcfg.LogBytes = int64(16 * (cfg.ObjSize + 64))
	rpc.New(cfg.Kind, cli, rpc.NewServer(srv, store, rcfg), rcfg)
	return k, nil
}

// ---- pmpool-churn ---------------------------------------------------------

// The remote PM pool: 4 pool servers × 8 client hosts, each client cycling
// Alloc → Write → Free over the 64/256/1024/3000 B classes.
const (
	poolServers   = 4
	poolClients   = 8
	poolCycles    = 600 // per client
	poolPoolBytes = 512 * 4096
)

var poolSizes = []int64{64, 256, 1024, 3000}

func preparePMPoolChurn(seed uint64) func(r *round) {
	// The class sequence per client comes from the seed.
	classes := make([][]int64, poolClients)
	for c := range classes {
		rng := sim.NewRand(mixSeed(seed, 400+uint64(c)))
		for i := 0; i < poolCycles; i++ {
			classes[c] = append(classes[c], poolSizes[rng.Intn(len(poolSizes))])
		}
	}
	return func(r *round) {
		if err := poolRound(r, classes); err != nil {
			r.fail("pmpool-churn: %v", err)
		}
	}
}

func poolRound(r *round, classes [][]int64) error {
	var k *sim.Kernel
	var net *fabric.Network
	var srvs []*pmpool.Server
	var pools []*pmpool.Pool
	r.setup("pmpool.deploy", func() error {
		k = sim.New()
		net = fabric.New(k, fabric.DefaultParams(), 1)
		rcfg := rpc.DefaultConfig()
		rcfg.LogBytes = 128 << 10
		scfg := pmpool.DefaultServerConfig()
		scfg.PoolBytes = poolPoolBytes
		for i := 0; i < poolServers; i++ {
			h := host.New(k, fmt.Sprintf("pool%d", i), net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
			srvs = append(srvs, pmpool.NewServer(h, rcfg, scfg))
		}
		for c := 0; c < poolClients; c++ {
			h := host.New(k, fmt.Sprintf("cli%d", c), net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
			pcfg := pmpool.DefaultPoolConfig(uint64(c + 1))
			pcfg.ConnsPerServer = 2
			pcfg.LeaseTTL = scfg.LeaseTTL
			pools = append(pools, pmpool.NewPool(h, srvs, rcfg, pcfg))
		}
		return nil
	})
	defer r.teardown("teardown", k.Shutdown)

	lat := make([][]int64, poolClients)
	var loadEnd sim.Time // the last client's last cycle
	var callErrs int
	var firstErr error
	r.run("pmpool.churn", func() error {
		wg := sim.NewWaitGroup(k)
		wg.Add(poolClients)
		for c := 0; c < poolClients; c++ {
			c := c
			pool := pools[c]
			k.Go(fmt.Sprintf("churn-%d", c), func(p *sim.Proc) {
				defer wg.Done()
				buf := make([]byte, poolSizes[len(poolSizes)-1])
				for i := range buf {
					buf[i] = byte(i*31 + c)
				}
				failed := func(err error) bool {
					if err == nil {
						return false
					}
					callErrs++
					if firstErr == nil {
						firstErr = err
					}
					return true
				}
				for _, size := range classes[c] {
					t0 := p.Now()
					h0 := time.Now()
					h, err := pool.Alloc(p, size)
					r.tr.call("pmpool.alloc_host_us", time.Since(h0))
					if failed(err) {
						continue
					}
					h0 = time.Now()
					err = pool.Write(p, h, 0, buf[:size])
					r.tr.call("pmpool.write_host_us", time.Since(h0))
					failed(err)
					h0 = time.Now()
					err = pool.Free(p, h)
					r.tr.call("pmpool.free_host_us", time.Since(h0))
					if failed(err) {
						continue
					}
					lat[c] = append(lat[c], int64(p.Now().Sub(t0)))
				}
			})
		}
		k.Go("churn-main", func(p *sim.Proc) {
			wg.Wait(p)
			loadEnd = p.Now()
			for _, pl := range pools {
				pl.Stop()
			}
			for _, s := range srvs {
				s.Stop()
			}
		})
		k.Run()
		if p := k.Procs(); p > r.procs {
			r.procs = p
		}
		return nil
	})
	r.probeHeap()
	want := int64(poolClients * poolCycles)
	r.ops += want
	r.failedOps += int64(callErrs)
	for _, s := range srvs {
		r.failedOps += s.Allocs - s.Frees // leaked, whether or not a lease reclaimed them
	}

	err := r.verify("pmpool.audit", func() error {
		if callErrs > 0 {
			return fmt.Errorf("%d failed calls, first: %v", callErrs, firstErr)
		}
		var allocs, frees, writes int64
		for _, pl := range pools {
			allocs += pl.Allocs
			frees += pl.Frees
			writes += pl.Writes
			if pl.Live() != 0 {
				return fmt.Errorf("client %d still leases %d handles", pl.Cfg.ClientID, pl.Live())
			}
		}
		if allocs != want || frees != want || writes != want {
			return fmt.Errorf("allocs/writes/frees %d/%d/%d, want %d each", allocs, writes, frees, want)
		}
		for i, s := range srvs {
			if s.Live() != 0 {
				return fmt.Errorf("server %d leaked %d allocations", i, s.Live())
			}
			if s.Allocs != s.Frees {
				return fmt.Errorf("server %d applied %d allocs but %d frees", i, s.Allocs, s.Frees)
			}
			if err := s.Slabs().CheckConsistent(); err != nil {
				return fmt.Errorf("server %d slabs: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.simSpan += loadEnd.Duration()
	for _, l := range lat {
		r.simLat = append(r.simLat, l...)
	}
	r.fold(uint64(k.Now()), k.Fired())
	r.add("sim.events", float64(k.Fired()))
	r.addNet(net)
	var hosts []*host.Host
	for _, s := range srvs {
		hosts = append(hosts, s.H)
		r.add("rpc.handled", float64(s.RPC.Handled))
		r.add("pmpool.renews", float64(s.Renews))
		r.add("pmpool.reclaimed", float64(s.Reclaimed))
	}
	for _, pl := range pools {
		hosts = append(hosts, pl.H)
		r.add("pmpool.retries", float64(pl.Retries))
		for _, l := range pl.Logs() {
			r.addLog(l)
		}
	}
	r.addHosts(hosts)
	return nil
}
