// Procs are iter.Pull coroutines, which need Go 1.23. The constraint raises
// this file's language version above the module's go directive, which stays
// at 1.22 for the separately pinned perfbench module that builds this one.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// Proc is a simulated thread of execution. Each proc is a coroutine
// (iter.Pull): the kernel resumes it by switching directly to its stack, and
// the proc runs until its next blocking call (Sleep, Yield, Chan.Pop,
// Cond.Wait, ...), where it switches straight back. Exactly one of the
// kernel and its procs runs at any instant, and the switch bypasses the Go
// scheduler's run queues, so the semantics are sequential and deterministic
// while protocol code keeps a natural blocking style.
type Proc struct {
	K      *Kernel
	Name   string
	dead   bool
	killed bool

	// next resumes the coroutine until it yields or returns; yield is the
	// coroutine's side of the switch, captured when it first runs.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// panicked holds a non-kill panic caught on the proc's stack until
	// schedule re-raises it on the kernel's side of the switch.
	panicked *ProcPanic

	// wakeFn is the proc's resume thunk, allocated once at spawn so that
	// Sleep/wake cycles schedule with zero allocations.
	wakeFn func()

	// Cond wait bookkeeping. A proc blocks on at most one Cond at a time,
	// so the per-wait state lives here instead of in per-wait heap nodes.
	// waitGen tags each wait; entries in a Cond's queue carry the tag, so
	// entries from an expired wait (timeout, kill) are recognized as stale
	// and skipped lazily — no O(n) removal, no retained "woken" list.
	waitGen      uint64
	waiting      bool
	waitWoken    bool
	waitSignaled bool
}

// ProcPanic is what the kernel re-raises when a proc panics with anything
// other than its kill signal: the panic unwinds the proc (which is then
// dead and reaped) and surfaces from the Run/RunUntil/RunEvents call, or the
// engine window, that resumed it.
type ProcPanic struct {
	Proc  string // the proc's name
	At    Time   // virtual time of the panic
	Value any    // the original panic value
	Stack []byte // the proc's stack at the panic
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: proc %s panicked at %v: %v\n\nproc stack:\n%s", e.Proc, e.At, e.Value, e.Stack)
}

// Go spawns a new proc that starts executing at the current virtual time
// (after already-scheduled events at the same timestamp).
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.GoAt(k.now, name, fn)
}

// GoAfter spawns a proc that starts after delay d.
func (k *Kernel) GoAfter(d time.Duration, name string, fn func(p *Proc)) *Proc {
	return k.GoAt(k.now.Add(d), name, fn)
}

// GoAt spawns a proc that starts at time t.
func (k *Kernel) GoAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{K: k, Name: name}
	p.wakeFn = func() { k.schedule(p) }
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		if !p.killed { // a proc killed before its first resume never runs
			fn(p)
		}
	})
	k.procs++
	k.live[p] = struct{}{}
	k.Schedule(t, p.wakeFn)
	return p
}

// exit is deferred on the proc's coroutine, so it runs however fn ends: by
// returning, by the kill unwind, by a panic, or by runtime.Goexit (which
// the coroutine then propagates to its resumer). It reaps the proc and
// parks a genuine panic for schedule to re-raise with the proc's identity.
func (p *Proc) exit() {
	r := recover()
	p.dead = true
	p.K.procs--
	delete(p.K.live, p)
	p.K.cur = nil
	if r == nil {
		return
	}
	if _, ok := r.(procKilled); ok {
		return // Kill() unwound the proc
	}
	p.panicked = &ProcPanic{Proc: p.Name, At: p.K.now, Value: r, Stack: debug.Stack()}
}

// procKilled is the panic payload used to unwind a killed proc.
type procKilled struct{}

// schedule transfers control from the kernel to p until p blocks or exits.
func (k *Kernel) schedule(p *Proc) {
	if p.dead {
		return
	}
	k.cur = p
	p.next()
	if pp := p.panicked; pp != nil {
		p.panicked = nil
		panic(pp)
	}
}

// block hands control back to the kernel; the proc stays suspended until
// something calls wake (via a scheduled event).
func (p *Proc) block() {
	if p.K.cur != p {
		panic("sim: blocking call from a proc that is not running")
	}
	p.K.cur = nil
	p.yield(struct{}{})
	p.K.cur = p
	if p.killed {
		panic(procKilled{})
	}
}

// wakeAt schedules p to resume at time t.
func (p *Proc) wakeAt(t Time) {
	p.K.Schedule(t, p.wakeFn)
}

// Sleep suspends the proc for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.wakeAt(p.K.now.Add(d))
	p.block()
}

// Yield reschedules the proc at the current time, after other pending events
// with the same timestamp.
func (p *Proc) Yield() { p.Sleep(0) }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.K.Now() }

// Kill terminates the proc the next time it would resume. A proc cannot kill
// itself; it should just return instead.
func (p *Proc) Kill() {
	if p.dead || p.killed {
		return
	}
	if p.K.cur == p {
		panic("sim: proc cannot Kill itself; return instead")
	}
	p.killed = true
	// Wake it so the kill panic unwinds it promptly. If it is currently
	// blocked on a Cond/Chan it will be resumed here; double resumes are
	// harmless because killed procs unwind immediately. Any Cond entry it
	// leaves behind is invalidated by bumping the wait generation.
	p.waitGen++
	p.waiting = false
	p.wakeAt(p.K.now)
}

// Dead reports whether the proc has finished.
func (p *Proc) Dead() bool { return p.dead }

// Killed reports whether the proc was killed (it may not have unwound yet).
func (p *Proc) Killed() bool { return p.killed }

func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.Name) }

// beginWait opens a Cond wait and returns its generation tag.
func (p *Proc) beginWait() uint64 {
	p.waitGen++
	p.waiting = true
	p.waitWoken = false
	p.waitSignaled = false
	return p.waitGen
}

// endWait closes the wait and reports whether it ended by Signal/Broadcast
// (false = timeout). Closing bumps nothing: the generation only advances on
// the next beginWait, and stale queue entries are skipped via !waiting.
func (p *Proc) endWait() bool {
	p.waiting = false
	return p.waitSignaled
}

// waitActive reports whether p is still blocked in the wait tagged gen and
// has not yet been woken by anyone (signal or timeout).
func (p *Proc) waitActive(gen uint64) bool {
	return p.waiting && p.waitGen == gen && !p.waitWoken &&
		!p.dead && !p.killed
}

// Cond is a waiting list that procs can block on until signaled. Unlike
// sync.Cond there is no associated lock: the simulation is single-threaded,
// so state checked before Wait cannot change until the proc blocks.
//
// The queue uses lazy deletion: a wait that ends by timeout or kill leaves
// its entry behind, tagged with a generation that no longer matches, and
// Signal/Broadcast skip such entries when they surface. This makes the
// timeout path O(1) and leaves no per-Cond bookkeeping behind for procs
// that never wait again.
//
// The queue is consumed through a head index rather than re-slicing, so the
// backing array survives drain/refill cycles and steady-state Wait/Signal
// traffic never allocates.
type Cond struct {
	K       *Kernel
	head    int
	waiters []condEntry
}

// condEntry is one queued wait; gen guards against the proc having since
// timed out, been killed, or started a different wait.
type condEntry struct {
	p   *Proc
	gen uint64
}

// NewCond returns a Cond bound to kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{K: k} }

// enqueue appends a wait entry, first compacting a fully-consumed queue so
// the append reuses the existing backing array.
func (c *Cond) enqueue(e condEntry) {
	if c.head > 0 && c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	c.waiters = append(c.waiters, e)
}

// dequeue pops the head entry; ok is false when the queue is empty.
func (c *Cond) dequeue() (e condEntry, ok bool) {
	if c.head == len(c.waiters) {
		return condEntry{}, false
	}
	e = c.waiters[c.head]
	c.waiters[c.head] = condEntry{} // drop the proc reference
	c.head++
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	return e, true
}

// Wait blocks p until Signal or Broadcast. Spurious wakeups do not occur,
// but callers typically still re-check their predicate in a loop because
// another woken proc may consume the state first.
func (c *Cond) Wait(p *Proc) {
	gen := p.beginWait()
	c.enqueue(condEntry{p, gen})
	p.block()
	p.endWait()
}

// WaitTimeout blocks p until signaled or until d elapses. It reports whether
// the proc was signaled (false = timeout).
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) bool {
	gen := p.beginWait()
	c.enqueue(condEntry{p, gen})
	p.K.AfterFunc(d, func() {
		// Fires for every timed wait; a no-op unless p is still blocked
		// in this exact wait and unsignaled. The queue entry is left for
		// Signal to skip lazily.
		if p.waitActive(gen) {
			p.waitWoken = true
			p.wakeAt(p.K.now)
		}
	})
	p.block()
	return p.endWait()
}

// Signal wakes the longest-waiting proc, if any.
func (c *Cond) Signal() {
	for {
		e, ok := c.dequeue()
		if !ok {
			return
		}
		if !e.p.waitActive(e.gen) {
			continue // stale: timed out, killed, dead, or a later wait
		}
		e.p.waitWoken = true
		e.p.waitSignaled = true
		e.p.wakeAt(c.K.now)
		return
	}
}

// Broadcast wakes all waiting procs. Waking only schedules resume events —
// no proc runs inside the loop — so nothing can enqueue while it drains.
func (c *Cond) Broadcast() {
	for {
		e, ok := c.dequeue()
		if !ok {
			return
		}
		if !e.p.waitActive(e.gen) {
			continue
		}
		e.p.waitWoken = true
		e.p.waitSignaled = true
		e.p.wakeAt(c.K.now)
	}
}
