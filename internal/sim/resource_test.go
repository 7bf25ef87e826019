package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestResourceFIFOQueueing(t *testing.T) {
	k := New()
	r := NewResource(k)
	e1 := r.Reserve(10 * time.Microsecond)
	e2 := r.Reserve(5 * time.Microsecond)
	if e1 != Time(10*time.Microsecond) {
		t.Fatalf("e1 = %v", e1)
	}
	if e2 != Time(15*time.Microsecond) {
		t.Fatalf("e2 = %v (should queue behind e1)", e2)
	}
	if r.BusyTime() != 15*time.Microsecond {
		t.Fatalf("busy = %v", r.BusyTime())
	}
}

func TestResourceIdleGap(t *testing.T) {
	k := New()
	r := NewResource(k)
	r.Reserve(time.Microsecond)
	k.After(10*time.Microsecond, func() {
		end := r.Reserve(2 * time.Microsecond)
		if end != Time(12*time.Microsecond) {
			t.Errorf("end = %v, want 12us (no queueing after idle gap)", end)
		}
	})
	k.Run()
}

func TestResourceUse(t *testing.T) {
	k := New()
	r := NewResource(k)
	var t1, t2 Time
	k.Go("a", func(p *Proc) { r.Use(p, 10*time.Microsecond); t1 = p.Now() })
	k.Go("b", func(p *Proc) { r.Use(p, 10*time.Microsecond); t2 = p.Now() })
	k.Run()
	if t1 != Time(10*time.Microsecond) || t2 != Time(20*time.Microsecond) {
		t.Fatalf("t1=%v t2=%v", t1, t2)
	}
}

func TestResourceReserveAt(t *testing.T) {
	k := New()
	r := NewResource(k)
	end := r.ReserveAt(Time(5*time.Microsecond), 3*time.Microsecond)
	if end != Time(8*time.Microsecond) {
		t.Fatalf("end = %v", end)
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{Base: time.Microsecond, BytesPerSec: 1e9} // 1 GB/s
	if got := c.Cost(0); got != time.Microsecond {
		t.Fatalf("Cost(0) = %v", got)
	}
	if got := c.Cost(1000); got != 2*time.Microsecond {
		t.Fatalf("Cost(1000) = %v, want 2us", got)
	}
	var zero CostModel
	if zero.Cost(1<<20) != 0 {
		t.Fatal("zero CostModel should be free")
	}
}

func TestCostModelMonotonic(t *testing.T) {
	c := CostModel{Base: 500 * time.Nanosecond, BytesPerSec: 2e9}
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return c.Cost(x) <= c.Cost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceNextFreeAndReset(t *testing.T) {
	k := New()
	r := NewResource(k)
	r.Reserve(10 * time.Microsecond)
	if r.NextFree() != Time(10*time.Microsecond) {
		t.Fatalf("NextFree = %v", r.NextFree())
	}
	r.Reset()
	if r.NextFree() != k.Now() {
		t.Fatal("Reset did not clear the queue")
	}
}
