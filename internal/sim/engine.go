package sim

import (
	"fmt"
	"math"
	"time"
)

// Engine runs several Kernels as one deterministic simulation using
// conservative time windows (classic conservative PDES with a global window
// barrier instead of per-link null messages).
//
// The deployment is partitioned: every simulated component lives on exactly
// one kernel, and all interaction between partitions goes through Post, which
// must target a timestamp at least one lookahead past the sender's clock. The
// lookahead is the minimum cross-partition latency the model guarantees — for
// the RDMA fabric, the wire propagation delay, since no message can arrive
// sooner than it.
//
// The window loop is:
//
//  1. deliver all cross-partition messages emitted by the previous window
//     (merged in canonical (time, source-partition, emission-index) order,
//     so destination sequence numbers — the tie-break — are reproducible),
//  2. find the earliest pending event across all kernels; call it T,
//  3. run every kernel with work up to the window edge T+lookahead-1,
//  4. barrier, go to 1.
//
// Step 3 is safe because a message sent at time s >= T arrives at
// s+lookahead > T+lookahead-1: nothing a peer does inside the window can
// affect this window. Step 1's canonical merge makes the result a function
// of the messages' data, not of the order kernels ran in: kernels are
// deterministic in isolation, and everything that crosses between them is
// ordered by data.
//
// Every window runs on the calling goroutine, kernel by kernel in creation
// order; the engine starts no goroutine. The simulated quantities are all
// virtual time, so host threads could only buy wall-clock speed, and a
// barrier worker pool measured slower per simulated op than this loop (see
// EXPERIMENTS.md). Idle kernels are never dispatched.
type Engine struct {
	kernels   []*Kernel
	lookahead Time

	// deadline is the inclusive edge of the window being executed.
	deadline Time
	// outboxes holds cross-partition messages: one slot per source kernel,
	// appended only by events running on that kernel.
	outboxes [][]crossMsg

	// serialized is a nesting counter: while positive, windows execute as an
	// exact global event merge (see stepMerged). Crash/recovery spans hold a
	// token per crashed replica so recovery procs see one global event
	// order. Changed only at a window barrier (driver context) or by an
	// event inside a serialized window.
	serialized int

	// hooks run at every window barrier's flush, with all kernels quiesced
	// (see AddFlushHook).
	hooks []func()

	stopped bool
	crossed uint64 // cross-partition messages delivered
	windows uint64 // windows executed; the partitioned crash coordinate

	// Coordination counters.
	idleSkips uint64 // kernel dispatches skipped because the kernel was idle
	barriers  uint64 // windows with more than one active kernel

	// flush scratch for the k-way outbox merge, reused across windows.
	mergeSrcs  []int
	mergeHeads []int
}

type crossMsg struct {
	dst *Kernel
	at  Time
	fn  func()
}

// NewEngine returns an engine with the given lookahead: the minimum
// cross-partition delay any Post will honor. Kernels are added with
// NewKernel.
func NewEngine(lookahead time.Duration) *Engine {
	if lookahead <= 0 {
		panic("sim: engine lookahead must be positive")
	}
	return &Engine{lookahead: Time(lookahead), deadline: -1}
}

// NewKernel adds a partition to the engine and returns its kernel. Create
// partitions during setup or at a window barrier (driver context, engine
// paused) — never from inside an event.
func (e *Engine) NewKernel() *Kernel {
	k := New()
	k.eng = e
	k.engID = len(e.kernels)
	e.kernels = append(e.kernels, k)
	e.outboxes = append(e.outboxes, nil)
	return k
}

// Kernels returns the partition kernels in creation order.
func (e *Engine) Kernels() []*Kernel { return e.kernels }

// Lookahead returns the engine's conservative lookahead.
func (e *Engine) Lookahead() time.Duration { return time.Duration(e.lookahead) }

// Fired reports the total events executed across all partitions.
func (e *Engine) Fired() uint64 {
	var n uint64
	for _, k := range e.kernels {
		n += k.Fired()
	}
	return n
}

// Switches reports the total proc switches across all partitions.
func (e *Engine) Switches() uint64 {
	var n uint64
	for _, k := range e.kernels {
		n += k.Switches()
	}
	return n
}

// Crossed reports how many cross-partition messages have been delivered.
func (e *Engine) Crossed() uint64 { return e.crossed }

// Windows reports how many conservative windows have executed. Every window
// boundary is a global barrier — no kernel is mid-event, every delivered
// cross message is in a destination queue — so the window index is a stable,
// enumerable coordinate for external intervention: with identical inputs the
// i-th window covers the same events in every run. The
// cluster crash sweep crashes "at window i" the way the single-server sweep
// crashes "after event i".
func (e *Engine) Windows() uint64 { return e.windows }

// IdleSkips reports how many per-window kernel dispatches were skipped
// because the kernel had no event inside the window.
func (e *Engine) IdleSkips() uint64 { return e.idleSkips }

// Barriers reports how many windows had more than one active kernel.
func (e *Engine) Barriers() uint64 { return e.barriers }

// AddFlushHook registers fn to run at every window barrier, immediately
// before buffered cross messages are delivered. Hooks run with all kernels
// quiesced, so they may touch any partition's state.
// The fabric uses this to recycle cross-transfer slabs whose envelopes were
// released by destination partitions. Register during setup, before Run.
func (e *Engine) AddFlushHook(fn func()) { e.hooks = append(e.hooks, fn) }

// Serialize forces subsequent windows to run as an exact global event merge
// (see stepMerged) — the same total order a single serial kernel would
// produce — until a matching Unserialize. Calls nest. Crash/recovery spans
// use it: with a replica down, recovery procs reach across kernels in
// patterns the conservative lookahead cannot order (reestablish, log replay,
// quiesce barriers), and a serialized window gives them that global order,
// while Post delivers cross messages directly instead of deferring them to
// the next barrier. Call only from a window barrier (driver context) or from
// an event already inside a serialized window.
func (e *Engine) Serialize() {
	e.serialized++
	e.syncClocks()
}

// syncClocks raises every kernel's clock to the engine-wide maximum. Legal
// whenever a global order holds (a window barrier, or mid-event in a merged
// window): every pending event is then at or past the maximum clock, so no
// kernel's queue can go backwards, and no event's timing changes. Driver
// actions at a barrier need it because they schedule onto kernels whose
// clocks lag the barrier (a crashed replica's clock froze at its crash; a
// kernel that went idle early in a run that since drained) — without the
// sync those events, and the messages they send, would land in other
// kernels' past. Run and RunWindows sync before handing the barrier back,
// and stepMerged re-syncs at every serialized barrier so the invariant
// holds for a serialized span's length.
func (e *Engine) syncClocks() {
	var max Time
	for _, k := range e.kernels {
		if k.now > max {
			max = k.now
		}
	}
	for _, k := range e.kernels {
		if k.now < max {
			k.now = max
		}
	}
}

// Unserialize releases one Serialize token.
func (e *Engine) Unserialize() {
	if e.serialized <= 0 {
		panic("sim: Unserialize without matching Serialize")
	}
	e.serialized--
}

// Serialized reports whether the engine is inside a serialized span.
func (e *Engine) Serialized() bool { return e.serialized > 0 }

// Post schedules fn at time `at` on the dst partition, from an event
// currently executing on src (or from setup code before Run). The timestamp
// must be beyond the current window edge; posts at src.Now() plus at least
// the lookahead always are. Messages are buffered per source and delivered
// at the next window barrier in canonical order.
//
// Inside a serialized span the window edge does not bind: events run in one
// global merge order, so the message is scheduled onto dst directly
// (clamped to dst's clock — recovery procs reach kernels whose clocks lag
// the window, exactly the interactions Serialize exists to legalize).
func (e *Engine) Post(src, dst *Kernel, at Time, fn func()) {
	if src == dst {
		src.Schedule(at, fn)
		return
	}
	if src.eng != e || dst.eng != e {
		panic("sim: Post across kernels that do not share this engine")
	}
	if e.serialized > 0 {
		if at < dst.now {
			at = dst.now
		}
		dst.Schedule(at, fn)
		return
	}
	if at <= e.deadline {
		panic(fmt.Sprintf("sim: cross-partition post at %v inside the current window (edge %v): lookahead violated", at, e.deadline))
	}
	e.outboxes[src.engID] = append(e.outboxes[src.engID], crossMsg{dst: dst, at: at, fn: fn})
}

// PostAfterLookahead schedules fn on dst exactly one lookahead past src's
// clock — the earliest always-legal cross-partition timestamp.
func (e *Engine) PostAfterLookahead(src, dst *Kernel, fn func()) {
	e.Post(src, dst, src.Now()+e.lookahead, fn)
}

// Stop makes Run return at the next window barrier. Safe to call from any
// partition's events.
func (e *Engine) Stop() { e.stopped = true }

// stepWindows executes up to budget conservative windows and reports how
// many ran (fewer only when the simulation went quiescent or was stopped).
// Each window: deliver the previous window's cross messages, open the window
// at the globally earliest event (idle stretches are jumped in one step,
// exactly like the serial kernel), run every kernel with work up to the
// inclusive edge in creation order, barrier.
func (e *Engine) stepWindows(budget int) int {
	ran := 0
	for ran < budget {
		if e.stopped {
			return ran
		}
		e.flush()
		next := Time(math.MaxInt64)
		for _, k := range e.kernels {
			if t, ok := k.NextEventAt(); ok && t < next {
				next = t
			}
		}
		if next == math.MaxInt64 {
			return ran
		}
		e.deadline = next + e.lookahead - 1
		e.windows++
		ran++
		if e.serialized > 0 {
			e.stepMerged()
			continue
		}
		actives := 0
		for _, k := range e.kernels {
			if t, ok := k.NextEventAt(); ok && t <= e.deadline {
				actives++
				k.RunUntil(e.deadline)
			}
		}
		e.idleSkips += uint64(len(e.kernels) - actives)
		if actives > 1 {
			e.barriers++
		}
	}
	return ran
}

// stepMerged runs one serialized window as an exact global event merge:
// repeatedly execute the globally earliest head event (ties broken by kernel
// creation order) until nothing at or before the window edge remains. No
// kernel ever runs ahead of the merge clock, so an event touching another
// kernel directly — or posting to it — always lands in that kernel's future,
// which is what makes recovery choreography legal inside a serialized span.
func (e *Engine) stepMerged() {
	for {
		var kmin *Kernel
		var tmin Time
		for _, k := range e.kernels {
			if t, ok := k.NextEventAt(); ok && t <= e.deadline && (kmin == nil || t < tmin) {
				tmin, kmin = t, k
			}
		}
		if kmin == nil {
			e.syncClocks()
			return
		}
		kmin.runHead(e.deadline)
	}
}

// Run executes windows until every partition is quiescent (no pending events
// and no undelivered cross messages) or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	const chunk = 1 << 30
	for e.stepWindows(chunk) == chunk {
	}
	e.syncClocks()
}

// RunWindows executes at most n windows and reports how many ran (fewer only
// when the simulation went quiescent or was stopped first). It pauses the
// world at an exact window barrier — no kernel mid-event, a global order over
// everything executed so far — which is where the partitioned crash sweep
// injects crashes; see Windows.
func (e *Engine) RunWindows(n int) int {
	e.stopped = false
	ran := e.stepWindows(n)
	e.syncClocks()
	return ran
}

// Shutdown tears the deployment down: reaps every kernel's parked procs and
// event pools. Back-to-back deployments in one process previously pinned
// ~100 MB each, because every proc goroutine left suspended in its last
// blocking call (plus the event free lists keeping payload buffers
// reachable) survived the deployment. The engine must be paused at a
// barrier (not running). A shut-down engine may be rescheduled and run
// again (kernel queues and free lists start empty, as after construction).
func (e *Engine) Shutdown() {
	e.stopped = true
	for _, k := range e.kernels {
		k.Shutdown()
	}
	for i := range e.outboxes {
		e.outboxes[i] = nil
	}
	e.mergeSrcs, e.mergeHeads = nil, nil
	e.hooks = nil
}

// runHooks fires the barrier flush hooks (kernels quiesced).
func (e *Engine) runHooks() {
	for _, h := range e.hooks {
		h()
	}
}

// deliverBox delivers one source's buffered messages in canonical order: the
// per-source box stable-sorted by timestamp preserves emission order within
// equal times, which for a single source is exactly the global (time,
// source, emission) order. Entries are zeroed after delivery so the box —
// scratch that persists across windows — never retains delivered closures or
// their captured transfer buffers.
func (e *Engine) deliverBox(src int) {
	box := e.outboxes[src]
	sortCrossStable(box)
	for i := range box {
		cm := &box[i]
		cm.dst.Schedule(cm.at, cm.fn)
		*cm = crossMsg{}
	}
	e.crossed += uint64(len(box))
	e.outboxes[src] = box[:0]
}

// flush delivers buffered cross messages into their destination kernels in
// canonical order: ascending timestamp, ties by (source partition, emission
// index). Destination Schedule assigns the tie-breaking sequence numbers in
// this order, so the resulting execution order is a pure function of the
// messages' data — independent of the order the kernels ran in. Each
// source box is nearly sorted already (FIFO egress per endpoint), so the
// boxes are insertion-sorted in place and k-way merged with ties going to
// the lowest source index — the same total order a global stable sort of the
// concatenation produces, without a shared scratch slice.
func (e *Engine) flush() {
	e.runHooks()
	srcs := e.mergeSrcs[:0]
	total := 0
	for i := range e.outboxes {
		if n := len(e.outboxes[i]); n > 0 {
			srcs = append(srcs, i)
			total += n
		}
	}
	e.mergeSrcs = srcs
	if total == 0 {
		return
	}
	if len(srcs) == 1 {
		e.deliverBox(srcs[0])
		return
	}
	heads := e.mergeHeads[:0]
	for _, s := range srcs {
		sortCrossStable(e.outboxes[s])
		heads = append(heads, 0)
	}
	e.mergeHeads = heads
	for n := 0; n < total; n++ {
		best := -1
		var bt Time
		for si, s := range srcs {
			h := heads[si]
			if h >= len(e.outboxes[s]) {
				continue
			}
			// Strict less keeps ties on the earliest source index, which the
			// ascending srcs scan visits first.
			if t := e.outboxes[s][h].at; best < 0 || t < bt {
				best, bt = si, t
			}
		}
		cm := &e.outboxes[srcs[best]][heads[best]]
		heads[best]++
		cm.dst.Schedule(cm.at, cm.fn)
		*cm = crossMsg{}
	}
	for _, s := range srcs {
		e.outboxes[s] = e.outboxes[s][:0]
	}
	e.crossed += uint64(total)
}

// sortCrossStable is a stable insertion/merge sort by timestamp. Cross
// batches per window are small (bounded by messages in flight), and each
// box is already sorted per endpoint, so insertion sort with a binary
// search beats the generic sort for the common sizes.
func sortCrossStable(m []crossMsg) {
	for i := 1; i < len(m); i++ {
		if m[i].at >= m[i-1].at {
			continue
		}
		// Binary search the insertion point in the sorted prefix; equal
		// timestamps insert after, preserving emission order (stability).
		lo, hi := 0, i
		for lo < hi {
			mid := (lo + hi) / 2
			if m[mid].at <= m[i].at {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		cm := m[i]
		copy(m[lo+1:i+1], m[lo:i])
		m[lo] = cm
	}
}
