package rpc

import (
	"bytes"
	"fmt"
	"testing"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// engineTrace runs a durable-RPC workload of the given family with the
// client and server on separate kernels of one engine and returns a textual
// trace of every response's timing plus end-state counters. The trace must
// be identical in every run. native=true turns off the read-after-write
// flush emulation (exercising, for SFlush, the server-NIC reservation FIFO
// path).
func engineTrace(t *testing.T, kind Kind, native bool, procs, ops int) (string, uint64) {
	t.Helper()
	fp := fabric.DefaultParams()
	e := sim.NewEngine(fp.Lookahead())
	kc, ks := e.NewKernel(), e.NewKernel()
	net := fabric.New(kc, fp, 7)
	np := rnic.DefaultParams()
	np.EmulateFlush = !native
	cli := host.New(kc, "cli", net, host.DefaultParams(), pmem.DefaultParams(), np)
	srv := host.New(ks, "srv", net, host.DefaultParams(), pmem.DefaultParams(), np)
	store, err := NewStore(srv, 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(srv, store, DefaultConfig())
	c := New(kind, cli, s, s.Cfg)

	var b bytes.Buffer
	done := 0
	for pi := 0; pi < procs; pi++ {
		pi := pi
		kc.Go(fmt.Sprintf("drv-%d", pi), func(p *sim.Proc) {
			payload := bytes.Repeat([]byte{byte(pi + 1)}, 256)
			for i := 0; i < ops; i++ {
				key := uint64(pi*ops + i)
				wr, err := c.Call(p, &Request{Op: OpWrite, Key: key, Size: 256, Payload: payload})
				if err != nil {
					t.Errorf("write: %v", err)
					return
				}
				rd, err := c.Call(p, &Request{Op: OpRead, Key: key, Size: 256, Payload: []byte{}})
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if len(rd.Data) != 256 || rd.Data[0] != byte(pi+1) {
					t.Errorf("proc %d op %d: read back wrong contents", pi, i)
					return
				}
				fmt.Fprintf(&b, "p%d op%d w[%d %d %d] r[%d %d]\n", pi, i,
					wr.IssuedAt, wr.ReadyAt, wr.DurableAt, rd.IssuedAt, rd.ReadyAt)
				done++
			}
		})
	}
	e.Run()
	if done != procs*ops {
		t.Fatalf("%d/%d ops completed (deadlock?)", done, procs*ops)
	}
	fmt.Fprintf(&b, "handled=%d appends=%d consumes=%d outstanding=%d\n",
		s.Handled, c.(*durableClient).log.Appends, c.(*durableClient).log.Consumes,
		c.(*durableClient).log.Outstanding())
	return b.String(), e.Crossed()
}

// TestEngineModeWFlushDeterminism pins the tentpole contract at the RPC
// layer: a cross-partition WFlush-RPC connection produces byte-identical
// response timings in two runs, and traffic genuinely crosses the partition
// boundary.
func TestEngineModeWFlushDeterminism(t *testing.T) {
	const procs, ops = 4, 25
	want, crossed := engineTrace(t, WFlushRPC, false, procs, ops)
	if crossed == 0 {
		t.Fatal("no messages crossed the partition boundary")
	}
	if got, _ := engineTrace(t, WFlushRPC, false, procs, ops); got != want {
		t.Fatalf("trace diverged between two runs\n--- first\n%.2000s\n--- second\n%.2000s", want, got)
	}
}

// TestEngineModeFamilyDeterminism extends the engine-mode contract to every
// durable family: each runs cross-kernel with byte-identical traces in two
// runs. SFlush is exercised in both flavors — emulated
// (per-request recv-buffer registration hops to the server partition) and
// native (the reservation FIFO the server NIC pops hops over instead);
// SRFlush always registers its log-slot buffers cross-partition, and
// WRFlush checks that the notification path needs no extra routing.
func TestEngineModeFamilyDeterminism(t *testing.T) {
	const procs, ops = 3, 12
	cases := []struct {
		name   string
		kind   Kind
		native bool
	}{
		{"sflush-emulated", SFlushRPC, false},
		{"sflush-native", SFlushRPC, true},
		{"wrflush", WRFlushRPC, false},
		{"srflush", SRFlushRPC, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, crossed := engineTrace(t, tc.kind, tc.native, procs, ops)
			if crossed == 0 {
				t.Fatal("no messages crossed the partition boundary")
			}
			if got, _ := engineTrace(t, tc.kind, tc.native, procs, ops); got != want {
				t.Fatalf("trace diverged between two runs\n--- first\n%.2000s\n--- second\n%.2000s", want, got)
			}
		})
	}
}
