// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a priority queue of events ordered by virtual time,
// with ties broken by insertion sequence so that runs are exactly
// reproducible. Simulated "threads" (Proc) are coroutines: the kernel resumes
// a proc by switching straight onto its stack, and the proc switches back at
// its next blocking call. At most one proc runs at any instant and control
// passes synchronously, without the Go scheduler choosing who runs next, so
// the simulation is deterministic regardless of it.
//
// Virtual time is measured in integer nanoseconds (Time). All latencies in
// the PRDMA models are expressed as time.Duration and added to Time values.
//
// Engine performance: the scheduling hot path is allocation-free. Events are
// pooled on a per-kernel free list and recycled as soon as they fire; the
// cancel flag lives inside the event (no escaping *bool); and Timer handles
// use the event's unique sequence number as a generation tag so a recycled
// event can never be canceled through a stale handle. Callers that discard
// the Timer — the overwhelming majority of model code — should use Schedule
// or AfterFunc, which skip the Timer allocation entirely. See DESIGN.md
// "Engine performance".
package sim

import (
	"fmt"
	"time"
)

// event is a scheduled callback. Events are pooled: once fired (or popped
// after cancellation) they return to the kernel's free list and are reused.
// seq doubles as a generation tag — it is unique per scheduling and reset to
// zero while the event sits on the free list, so stale Timer handles cannot
// touch a recycled event.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// canceled events stay in the heap (lazy deletion) and are recycled
	// when they reach the top.
	canceled bool
}

// heapSlot is one entry of the event heap. The (at, seq) ordering key is
// stored inline next to the event pointer so heap comparisons read
// contiguous slice memory instead of chasing a pointer per compare — the
// sift paths were cache-miss-bound with a []*event layout. The key is
// immutable once pushed (cancellation flips flags inside the event, never
// its timestamp), so the copies cannot go stale.
type heapSlot struct {
	at  Time
	seq uint64
	ev  *event
}

// eventHeap is a hand-rolled d-ary min-heap ordered by (at, seq). A 4-ary
// layout beats both container/heap (interface-call overhead) and a binary
// layout of the same code (shallower tree, better cache locality on the
// sift-down path); see BenchmarkKernelEvents in bench_test.go and DESIGN.md
// for the measurements that picked it.
type eventHeap []heapSlot

// heapArity is the heap branching factor. 4 won the microbenchmark shootout
// against 2 (see DESIGN.md "Engine performance"); the code works for any
// arity >= 2 so the experiment is one constant away.
const heapArity = 8

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, heapSlot{at: ev.at, seq: ev.seq, ev: ev})
	h.up(len(*h) - 1)
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	ev := old[0].ev
	old[0] = old[n]
	old[n] = heapSlot{}
	*h = old[:n]
	if n > 1 {
		h.down(0)
	}
	return ev
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		m := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, m) {
				m = c
			}
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Kernel is a discrete-event simulation engine.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap
	// nowQ is the fast path for events scheduled at exactly the current
	// virtual time — Cond wakes, Yields, completion chains. They bypass the
	// heap on a FIFO ring consumed in (at, seq) order relative to the heap:
	// every heap entry at the same timestamp was scheduled earlier (lower
	// seq — a later same-time schedule lands here too, because the clock
	// cannot advance while the ring is non-empty), so draining the heap
	// first at equal timestamps reproduces the heap's total order exactly.
	nowQ    []*event
	nowHead int
	// monoQ is the monotone deadline lane: a FIFO for events whose
	// timestamps are scheduled in non-decreasing order (retransmit timers —
	// now + a constant interval). Entries are sorted by construction (ties
	// in seq order, since appends carry increasing seq), so the lane merges
	// into popNext by an exact (at, seq) head comparison instead of paying
	// heap sifts. Crucially it also keeps far-future timers out of the
	// heap: a 100 ms retry timer otherwise sits under every short-fuse
	// event for the rest of the run, growing the sift depth without bound.
	monoQ    []*event
	monoHead int
	// free is the event free list; dead counts canceled events still
	// parked in the heap awaiting lazy deletion.
	free []*event
	dead int
	// fired counts executed (non-canceled) events since New. Crash-point
	// sweeps use it as a stable coordinate: with identical inputs the i-th
	// fired event is the same across runs, so "crash after event i" is a
	// deterministic, enumerable injection point.
	fired uint64

	// current proc, nil while the kernel itself runs an event callback.
	cur *Proc

	procs int // live procs, for leak diagnostics
	// live registers every spawned proc until its coroutine finishes, so
	// Shutdown can reap procs parked in blocking calls (or never started).
	live    map[*Proc]struct{}
	stopped bool

	// eng/engID are set when the kernel is one partition of a multi-kernel
	// Engine (see engine.go); standalone kernels have eng nil, engID -1.
	eng   *Engine
	engID int
}

// New returns a fresh kernel at virtual time zero.
func New() *Kernel {
	return &Kernel{engID: -1, live: make(map[*Proc]struct{})}
}

// Engine returns the multi-kernel engine this kernel belongs to, or nil for
// a standalone kernel.
func (k *Kernel) Engine() *Engine { return k.eng }

// Partition returns the kernel's partition index within its engine, or -1
// for a standalone kernel.
func (k *Kernel) Partition() int { return k.engID }

// NextEventAt reports the timestamp of the earliest scheduled event, if any.
// Canceled events still parked in the heap count: popping them is progress.
func (k *Kernel) NextEventAt() (Time, bool) {
	if k.nowHead < len(k.nowQ) {
		return k.nowQ[k.nowHead].at, true // == now; nothing can be earlier
	}
	hOK, mOK := len(k.events) > 0, k.monoHead < len(k.monoQ)
	switch {
	case hOK && mOK:
		if m := k.monoQ[k.monoHead].at; m < k.events[0].at {
			return m, true
		}
		return k.events[0].at, true
	case hOK:
		return k.events[0].at, true
	case mOK:
		return k.monoQ[k.monoHead].at, true
	}
	return 0, false
}

// pendingAny reports whether any event (live or canceled) is queued.
func (k *Kernel) pendingAny() bool {
	return len(k.events) > 0 || k.nowHead < len(k.nowQ) || k.monoHead < len(k.monoQ)
}

// popRing pops the head of a FIFO ring, compacting it when it empties.
func popRing(q *[]*event, head *int) *event {
	ev := (*q)[*head]
	(*q)[*head] = nil
	*head++
	if *head == len(*q) {
		*q = (*q)[:0]
		*head = 0
	}
	return ev
}

// popNext removes and returns the earliest event in (at, seq) order across
// the heap, the monotone lane, and the now-queue. Heap and lane heads carry
// their seq and are compared exactly; a now-queue entry loses every same-
// timestamp tie because it was scheduled latest (see the nowQ invariant).
func (k *Kernel) popNext() *event {
	hOK, mOK := len(k.events) > 0, k.monoHead < len(k.monoQ)
	fromMono := false
	var bestAt Time
	switch {
	case hOK && mOK:
		m, h := k.monoQ[k.monoHead], &k.events[0]
		fromMono = m.at < h.at || (m.at == h.at && m.seq < h.seq)
		if fromMono {
			bestAt = m.at
		} else {
			bestAt = h.at
		}
	case hOK:
		bestAt = k.events[0].at
	case mOK:
		fromMono, bestAt = true, k.monoQ[k.monoHead].at
	default:
		return popRing(&k.nowQ, &k.nowHead)
	}
	if k.nowHead < len(k.nowQ) && k.nowQ[k.nowHead].at < bestAt {
		return popRing(&k.nowQ, &k.nowHead)
	}
	if fromMono {
		return popRing(&k.monoQ, &k.monoHead)
	}
	return k.events.pop()
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// runHead pops the single head event if it is at or before deadline,
// executing it when live and merely recycling it when canceled. It reports
// whether the head was consumed — the engine's serialized window stepping
// interleaves kernels one head event at a time to realize an exact global
// event order (see Engine.Serialize).
func (k *Kernel) runHead(deadline Time) bool {
	if !k.pendingAny() {
		return false
	}
	if at, _ := k.NextEventAt(); at > deadline {
		return false
	}
	ev := k.popNext()
	if ev.canceled {
		k.dead--
		k.recycle(ev)
		return true
	}
	if ev.at < k.now {
		panic("sim: event queue went backwards")
	}
	k.now = ev.at
	fn := ev.fn
	k.recycle(ev)
	k.fired++
	fn()
	return true
}

// Pending reports the number of live (not canceled) scheduled events.
func (k *Kernel) Pending() int {
	return len(k.events) + len(k.nowQ) - k.nowHead + len(k.monoQ) - k.monoHead - k.dead
}

// Procs reports the number of live procs.
func (k *Kernel) Procs() int { return k.procs }

// Fired reports how many events have executed since New.
func (k *Kernel) Fired() uint64 { return k.fired }

// schedule books fn at time t, drawing the event from the free list.
func (k *Kernel) scheduleEvent(t Time, fn func()) *event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.canceled = t, k.seq, fn, false
	if t == k.now {
		if k.nowHead > 0 && k.nowHead == len(k.nowQ) {
			k.nowQ = k.nowQ[:0]
			k.nowHead = 0
		}
		k.nowQ = append(k.nowQ, ev)
	} else {
		k.events.push(ev)
	}
	return ev
}

// recycle returns a popped event to the free list. seq 0 marks it free so
// stale Timer handles (whose saved seq is always >= 1) become no-ops.
func (k *Kernel) recycle(ev *event) {
	ev.seq, ev.fn, ev.canceled = 0, nil, false
	k.free = append(k.free, ev)
}

// Schedule runs fn at virtual time t. It is the allocation-free counterpart
// of At for the common case where the caller never cancels: no Timer handle
// is returned. Scheduling in the past panics: that is always a model bug.
func (k *Kernel) Schedule(t Time, fn func()) {
	k.scheduleEvent(t, fn)
}

// AfterFunc runs fn d from now; the allocation-free counterpart of After.
func (k *Kernel) AfterFunc(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.scheduleEvent(k.now.Add(d), fn)
}

// AfterFuncMonotonic is AfterFunc for deadlines drawn from a fixed offset —
// retransmit timers, lease refreshes — where successive calls on a kernel
// produce non-decreasing timestamps. Such events ride the monotone FIFO lane:
// O(1) to book and to pop, and they never inflate the heap (a long retry
// timer would otherwise deepen every sift for the rest of the run). Calls
// that arrive out of order are legal and simply fall back to the heap.
func (k *Kernel) AfterFuncMonotonic(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	t := k.now.Add(d)
	if t == k.now || (k.monoHead < len(k.monoQ) && k.monoQ[len(k.monoQ)-1].at > t) {
		k.scheduleEvent(t, fn) // now-queue, or out of order: heap fallback
		return
	}
	k.seq++
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.canceled = t, k.seq, fn, false
	if k.monoHead > 0 && k.monoHead == len(k.monoQ) {
		k.monoQ = k.monoQ[:0]
		k.monoHead = 0
	}
	k.monoQ = append(k.monoQ, ev)
}

// At schedules fn to run at virtual time t and returns a cancel handle.
// Callers that discard the handle should use Schedule instead.
func (k *Kernel) At(t Time, fn func()) *Timer {
	ev := k.scheduleEvent(t, fn)
	return &Timer{k: k, ev: ev, seq: ev.seq, at: t}
}

// After schedules fn to run d from now.
func (k *Kernel) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// Timer is a handle to a scheduled event that can be canceled. The handle
// pins the event's sequence number: once the event fires and is recycled the
// numbers no longer match and Stop becomes a no-op.
type Timer struct {
	k   *Kernel
	ev  *event
	seq uint64
	at  Time
}

// Stop cancels the timer. It is safe to call after the event fired (no-op).
func (t *Timer) Stop() {
	if t == nil || t.ev == nil {
		return
	}
	if t.ev.seq == t.seq && !t.ev.canceled {
		t.ev.canceled = true
		t.ev.fn = nil
		t.k.dead++
	}
}

// When returns the virtual time the timer fires at.
func (t *Timer) When() Time { return t.at }

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= deadline. The virtual clock is
// left at the timestamp of the last executed event (or the deadline if that
// is later and events remain).
func (k *Kernel) RunUntil(deadline Time) {
	k.stopped = false
	for k.pendingAny() && !k.stopped {
		if at, _ := k.NextEventAt(); at > deadline {
			k.now = deadline
			return
		}
		ev := k.popNext()
		if ev.canceled {
			k.dead--
			k.recycle(ev)
			continue
		}
		if ev.at < k.now {
			panic("sim: event queue went backwards")
		}
		k.now = ev.at
		fn := ev.fn
		// Recycle before firing so fn can schedule onto the freed slot.
		k.recycle(ev)
		k.fired++
		fn()
	}
}

// RunEvents executes at most n live events and reports how many ran (fewer
// only when the queue empties first). It stops the world at an exact event
// boundary: the crashcheck harness steps to event i, injects a crash from
// outside the event loop, and resumes with Run.
func (k *Kernel) RunEvents(n uint64) uint64 {
	k.stopped = false
	var ran uint64
	for ran < n && k.pendingAny() && !k.stopped {
		ev := k.popNext()
		if ev.canceled {
			k.dead--
			k.recycle(ev)
			continue
		}
		if ev.at < k.now {
			panic("sim: event queue went backwards")
		}
		k.now = ev.at
		fn := ev.fn
		k.recycle(ev)
		k.fired++
		ran++
		fn()
	}
	return ran
}

// Stop makes Run/RunUntil return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Shutdown kills every live proc and releases the kernel's event pools so a
// finished deployment stops pinning memory. Each proc's coroutine is
// suspended in a blocking call, or at spawn if it never started; Shutdown
// resumes it with the kill flag set, which unwinds it before control
// switches back — when Shutdown returns, no proc goroutine remains. A proc
// whose deferred cleanup blocks again is simply re-reaped on the next loop
// iteration. Must not be called from inside the simulation.
func (k *Kernel) Shutdown() {
	if k.cur != nil {
		panic("sim: Shutdown from inside the simulation")
	}
	for len(k.live) > 0 {
		var p *Proc
		for q := range k.live {
			p = q
			break
		}
		p.killed = true
		p.waitGen++
		p.waiting = false
		k.schedule(p) // resume → kill unwind → exit path removes p from live
	}
	k.events = nil
	k.nowQ = nil
	k.nowHead = 0
	k.monoQ = nil
	k.monoHead = 0
	k.free = nil
	k.dead = 0
	k.stopped = true
}

// RunFor runs for d of virtual time from now.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now.Add(d)) }
