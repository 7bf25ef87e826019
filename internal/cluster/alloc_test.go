package cluster

import (
	"testing"

	"prdma/internal/sim"
)

// putBench builds a minimal single-gateway cluster without *testing.T so
// benchmarks and AllocsPerRun tests share it.
type putBench struct {
	c *PCluster
}

func newPutBench() (*putBench, error) {
	p := DefaultParams()
	p.Shards = 2
	p.Replicas = 3
	p.PoolSize = 2
	p.Gateways = 1
	p.Objects = 128
	p.ObjSize = 256
	c, err := NewPartitioned(1, p)
	if err != nil {
		return nil, err
	}
	return &putBench{c: c}, nil
}

// puts drives n replicated puts over a small key set from a gateway proc
// and returns the first error.
func (b *putBench) puts(n int, payload []byte) error {
	var firstErr error
	b.c.Gateways[0].K.Go("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := b.c.PutOn(p, 0, uint64(i%64), 0, payload); err != nil && firstErr == nil {
				firstErr = err
				return
			}
		}
	})
	b.c.Eng.Run()
	return firstErr
}

// TestReplicatedPutAllocRegression pins the steady-state allocation cost of
// one replicated put through PutOn on a single-gateway deployment: R=3
// durable fan-out in engine mode (each request and response crosses a
// partition, cloned into pooled transfer envelopes), routing, the
// controller-mode retry wrapper, and the acknowledged-write record
// (per-key buffers reused after first touch). The remaining allocations are
// the per-op futures/Pending envelopes, replicate's completion closures and
// the cross-partition payload data copies.
//
// Measured on linux/amd64 with Go 1.24: 79.4 allocs/op at R=3. The ceiling
// of 150 leaves toolchain headroom while still catching an accidental
// per-op buffer copy or map churn on the routing path.
func TestReplicatedPutAllocRegression(t *testing.T) {
	const ceiling = 150.0
	b, err := newPutBench()
	if err != nil {
		t.Fatal(err)
	}
	defer b.c.Eng.Shutdown()
	payload := make([]byte, 256)
	if err := b.puts(200, payload); err != nil {
		t.Fatal(err) // warm pools, the event heap, and the write records
	}
	const rounds = 100
	per := testing.AllocsPerRun(3, func() {
		if err := b.puts(rounds, payload); err != nil {
			t.Fatal(err)
		}
	}) / rounds
	if per > ceiling {
		t.Fatalf("replicated put allocates %.1f objects/op, want <= %.0f", per, ceiling)
	}
	t.Logf("replicated put: %.1f allocs/op", per)
}

// BenchmarkReplicatedPut measures the full replicated durable put (routing,
// R-way fan-out, quorum wait, record) at a 256 B object size.
func BenchmarkReplicatedPut(b *testing.B) {
	pb, err := newPutBench()
	if err != nil {
		b.Fatal(err)
	}
	defer pb.c.Eng.Shutdown()
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	if err := pb.puts(b.N, payload); err != nil {
		b.Error(err)
	}
}
