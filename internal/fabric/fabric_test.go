package fabric

import (
	"testing"
	"time"

	"prdma/internal/sim"
)

func pair(p Params) (*sim.Kernel, *Network, *Endpoint, *Endpoint, *[]sim.Time) {
	k := sim.New()
	n := New(k, p, 1)
	var arrivals []sim.Time
	b := n.Attach("b", func(at sim.Time, m *Message) { arrivals = append(arrivals, at) })
	a := n.Attach("a", nil)
	return k, n, a, b, &arrivals
}

func TestDeliveryLatency(t *testing.T) {
	p := DefaultParams()
	k, _, a, _, arrivals := pair(p)
	a.SendPooled("b", 0, nil, nil)
	k.Run()
	if len(*arrivals) != 1 {
		t.Fatalf("delivered %d", len(*arrivals))
	}
	if (*arrivals)[0] != sim.Time(p.Propagation) {
		t.Fatalf("arrival = %v, want %v", (*arrivals)[0], p.Propagation)
	}
}

func TestSerializationAndQueueing(t *testing.T) {
	p := DefaultParams()
	k, n, a, _, arrivals := pair(p)
	// Two 64 KiB messages back to back share the egress link.
	a.SendPooled("b", 65536, nil, nil)
	a.SendPooled("b", 65536, nil, nil)
	k.Run()
	ser := n.SerializeCost(65536)
	want1 := sim.Time(0).Add(ser + p.Propagation)
	want2 := sim.Time(0).Add(2*ser + p.Propagation)
	if (*arrivals)[0] != want1 || (*arrivals)[1] != want2 {
		t.Fatalf("arrivals = %v, want %v and %v", *arrivals, want1, want2)
	}
}

func TestSerializeCost(t *testing.T) {
	n := New(sim.New(), Params{BytesPerSec: 1e9}, 1)
	if got := n.SerializeCost(1000); got != time.Microsecond {
		t.Fatalf("cost = %v", got)
	}
	if n.SerializeCost(0) != 0 {
		t.Fatal("zero size should be free")
	}
}

func TestDownEndpointDrops(t *testing.T) {
	k, n, a, b, arrivals := pair(DefaultParams())
	b.SetUp(false)
	a.SendPooled("b", 10, nil, nil)
	k.Run()
	if len(*arrivals) != 0 {
		t.Fatal("message delivered to down endpoint")
	}
	if n.Dropped != 1 {
		t.Fatalf("Dropped = %d", n.Dropped)
	}
	b.SetUp(true)
	a.SendPooled("b", 10, nil, nil)
	k.Run()
	if len(*arrivals) != 1 {
		t.Fatal("message not delivered after endpoint came back")
	}
}

func TestDropProbability(t *testing.T) {
	p := DefaultParams()
	p.DropProb = 0.5
	k, n, a, _, arrivals := pair(p)
	const total = 2000
	for i := 0; i < total; i++ {
		a.SendPooled("b", 1, nil, nil)
	}
	k.Run()
	got := len(*arrivals)
	if got < total/3 || got > 2*total/3 {
		t.Fatalf("delivered %d of %d with 50%% drop", got, total)
	}
	if n.Dropped+int64(got) != total {
		t.Fatalf("dropped %d + delivered %d != %d", n.Dropped, got, total)
	}
}

func TestBusyQueueingAddsLatency(t *testing.T) {
	idle := DefaultParams()
	busy := DefaultParams()
	busy.BusyQueueMean = 5 * time.Microsecond

	mean := func(p Params) time.Duration {
		k, _, a, _, arrivals := pair(p)
		for i := 0; i < 500; i++ {
			i := i
			k.After(time.Duration(i)*time.Millisecond, func() {
				a.SendPooled("b", 64, nil, nil)
			})
		}
		k.Run()
		var sum time.Duration
		prev := sim.Time(0)
		for i, at := range *arrivals {
			base := sim.Time(time.Duration(i) * time.Millisecond)
			sum += at.Sub(base)
			prev = at
		}
		_ = prev
		return sum / time.Duration(len(*arrivals))
	}
	mi, mb := mean(idle), mean(busy)
	if mb < mi+3*time.Microsecond {
		t.Fatalf("busy mean %v not sufficiently above idle mean %v", mb, mi)
	}
}

func TestBusyBandwidthShare(t *testing.T) {
	p := DefaultParams()
	p.BusyBandwidthShare = 0.5
	n := New(sim.New(), p, 1)
	full := DefaultParams()
	nf := New(sim.New(), full, 1)
	if n.SerializeCost(65536) != 2*nf.SerializeCost(65536) {
		t.Fatal("halved bandwidth should double serialization")
	}
}

func TestUnknownEndpointPanics(t *testing.T) {
	k, _, a, _, _ := pair(DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.SendPooled("nowhere", 1, nil, nil)
	k.Run()
}

func TestDuplicateAttachPanics(t *testing.T) {
	n := New(sim.New(), DefaultParams(), 1)
	n.Attach("x", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Attach("x", nil)
}

func TestRTTEstimate(t *testing.T) {
	n := New(sim.New(), Params{Propagation: time.Microsecond, BytesPerSec: 1e9}, 1)
	want := 2*time.Microsecond + 2*time.Microsecond // prop*2 + 1000B + 1000B
	if got := n.RTT(1000, 1000); got != want {
		t.Fatalf("RTT = %v, want %v", got, want)
	}
}

func TestStats(t *testing.T) {
	k, n, a, _, _ := pair(DefaultParams())
	a.SendPooled("b", 100, nil, nil)
	k.Run()
	if n.BytesSent != 100 || n.Delivered != 1 {
		t.Fatalf("stats: %d bytes, %d delivered", n.BytesSent, n.Delivered)
	}
}

// Property: per-destination delivery order matches send order, even with
// congestion jitter — the invariant RC correctness rests on.
func TestPerPairFIFOProperty(t *testing.T) {
	p := DefaultParams()
	p.BusyQueueMean = 10 * time.Microsecond // heavy jitter
	k := sim.New()
	n := New(k, p, 77)
	var got []int
	n.Attach("dst", func(at sim.Time, m *Message) {
		got = append(got, m.Payload.(int))
	})
	src := n.Attach("src", nil)
	const total = 500
	for i := 0; i < total; i++ {
		i := i
		k.After(time.Duration(i)*100*time.Nanosecond, func() {
			src.SendPooled("dst", 32, i, nil)
		})
	}
	k.Run()
	if len(got) != total {
		t.Fatalf("delivered %d of %d", len(got), total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered at %d: got %d", i, v)
		}
	}
}
