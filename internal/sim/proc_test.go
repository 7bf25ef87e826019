package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// TestProcPanicSurfacesAndShutdownReaps: a proc's panic must leave the
// resuming Run as a *ProcPanic naming the proc and the virtual time, carrying
// the original value, with the proc already reaped — so a caller that
// recovers can still Shutdown the kernel. The regression this guards against
// left the panicked proc registered as live, and Shutdown spun forever
// resuming a coroutine that had already finished.
func TestProcPanicSurfacesAndShutdownReaps(t *testing.T) {
	k := New()
	k.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	bomb := k.Go("bomb", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		panic(errBoom)
	})
	pp := func() (pp *ProcPanic) {
		defer func() {
			r := recover()
			var ok bool
			if pp, ok = r.(*ProcPanic); !ok {
				t.Fatalf("Run panicked with %T %v, want *ProcPanic", r, r)
			}
		}()
		k.Run()
		return nil
	}()
	if pp.Proc != "bomb" || pp.At != Time(3*time.Microsecond) || pp.Value != errBoom {
		t.Errorf("ProcPanic{%q, %v, %v}, want {bomb, 3µs, boom}", pp.Proc, pp.At, pp.Value)
	}
	if len(pp.Stack) == 0 {
		t.Error("ProcPanic carries no proc stack")
	}
	if !bomb.Dead() || k.Procs() != 1 {
		t.Fatalf("after panic: bomb dead=%v, live procs=%d, want true, 1", bomb.Dead(), k.Procs())
	}
	done := make(chan struct{})
	go func() {
		k.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after a proc panic")
	}
	if k.Procs() != 0 {
		t.Fatalf("live procs after Shutdown: %d", k.Procs())
	}
}

// TestProcGoexitReaps: runtime.Goexit inside a proc (t.FailNow from a test's
// proc body) ends the goroutine that resumed it, as it would in plain Go,
// and the proc is reaped on the way out.
func TestProcGoexitReaps(t *testing.T) {
	k := New()
	p := k.Go("quitter", func(p *Proc) {
		p.Yield()
		runtime.Goexit()
	})
	done := make(chan struct{})
	returned := false
	go func() {
		defer close(done)
		k.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned normally past a proc's Goexit")
	}
	if !p.Dead() || k.Procs() != 0 {
		t.Errorf("after Goexit: dead=%v, live procs=%d", p.Dead(), k.Procs())
	}
}

// parkAll spawns one proc in each state Shutdown must reap on k. It returns
// the procs that park once the time-0 events ran, and one that starts an
// hour out, for the caller to kill before it ever runs. Everything else
// spawned starts at time 0; the remaining events sit an hour out.
func parkAll(k *Kernel) (parked []*Proc, unstarted *Proc) {
	c, cc, ch := NewCond(k), NewCond(k), NewChan[int](k)
	parked = []*Proc{
		k.Go("cond-wait", func(p *Proc) { c.Wait(p) }),
		k.Go("cond-timeout", func(p *Proc) { cc.WaitTimeout(p, time.Hour) }),
		k.Go("chan-pop", func(p *Proc) { ch.Pop(p) }),
		k.Go("sleeping", func(p *Proc) { p.Sleep(time.Hour) }),
	}
	victim := k.Go("killed", func(p *Proc) { p.Sleep(time.Hour) })
	k.Schedule(0, victim.Kill) // fires after victim parks in Sleep
	k.GoAfter(time.Hour, "never-started", func(p *Proc) { panic("unreachable") })
	unstarted = k.GoAfter(time.Hour, "killed-unstarted", func(p *Proc) { panic("unreachable") })
	return parked, unstarted
}

// checkParked fails unless every parked proc is alive and not yet killed.
func checkParked(t *testing.T, parked []*Proc) {
	t.Helper()
	for _, p := range parked {
		if p.Dead() || p.Killed() {
			t.Fatalf("%v: dead=%v killed=%v before Shutdown", p, p.Dead(), p.Killed())
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to base. Exited
// worker goroutines finish asynchronously after their WaitGroup signal, so
// the count is allowed a moment to settle.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Shutdown: %d, before: %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownReapsGoroutines: every proc holds a goroutine for its stack
// until it finishes, whatever state it is parked in. After Shutdown none may
// remain — on a standalone kernel and on an engine's kernels at any worker
// count.
func TestShutdownReapsGoroutines(t *testing.T) {
	t.Run("kernel", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := New()
		parked, unstarted := parkAll(k)
		k.RunUntil(Time(time.Millisecond))
		checkParked(t, parked)
		unstarted.Kill()
		if runtime.NumGoroutine() <= base {
			t.Fatal("parked procs hold no goroutines; the test exercises nothing")
		}
		k.Shutdown()
		if k.Procs() != 0 {
			t.Fatalf("live procs after Shutdown: %d", k.Procs())
		}
		waitGoroutines(t, base)
	})
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("engine/workers=%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine(100*time.Nanosecond, workers)
			var parked []*Proc
			for i := 0; i < 4; i++ {
				ps, unstarted := parkAll(e.NewKernel())
				parked = append(parked, ps...)
				unstarted.Kill()
			}
			if e.RunWindows(1) != 1 || e.Barriers() != 1 {
				t.Fatalf("windows=%d barriers=%d, want one barrier window", e.Windows(), e.Barriers())
			}
			checkParked(t, parked)
			e.Shutdown()
			for _, k := range e.Kernels() {
				if k.Procs() != 0 {
					t.Fatalf("kernel %d: live procs after Shutdown: %d", k.Partition(), k.Procs())
				}
			}
			waitGoroutines(t, base)
		})
	}
}
