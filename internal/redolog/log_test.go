package redolog

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"prdma/internal/pmem"
	"prdma/internal/sim"
)

func newLog(size int64) (*sim.Kernel, *pmem.Device, *Log) {
	k := sim.New()
	pm := pmem.New(k, pmem.DefaultParams())
	return k, pm, New(k, pm, 1<<20, size)
}

func payload(i, n int) []byte {
	b := bytes.Repeat([]byte{byte(i)}, n)
	copy(b, fmt.Sprintf("entry-%d", i))
	return b
}

func TestAppendConsumeRoundTrip(t *testing.T) {
	k, _, l := newLog(1 << 16)
	var seqs []uint64
	for i := 0; i < 10; i++ {
		seq, done, err := l.AppendNIC(k.Now(), 1, 100, payload(i, 100))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
		k.RunUntil(done)
	}
	if l.Outstanding() != 10 {
		t.Fatalf("outstanding = %d", l.Outstanding())
	}
	for _, s := range seqs {
		l.Consume(k.Now(), s)
	}
	k.Run()
	if l.Outstanding() != 0 || l.UsedBytes() != 0 {
		t.Fatalf("outstanding=%d used=%d after full consume", l.Outstanding(), l.UsedBytes())
	}
}

func TestRecoverReturnsUnconsumedFIFO(t *testing.T) {
	k, _, l := newLog(1 << 16)
	l.CtrlEvery = 1 // eager head persistence: exact replay set
	for i := 0; i < 6; i++ {
		_, done, err := l.AppendNIC(k.Now(), byte(i), 64, payload(i, 64))
		if err != nil {
			t.Fatal(err)
		}
		k.RunUntil(done)
	}
	// Consume the first two (FIFO), then crash.
	l.Consume(k.Now(), 1)
	l.Consume(k.Now(), 2)
	k.Run()
	// Simulate restart: fresh Log object over the same PM.
	l2 := New(k, l.PM, 1<<20, 1<<16)
	var got []Entry
	k.Go("recover", func(p *sim.Proc) { got = l2.Recover(p) })
	k.Run()
	if len(got) != 4 {
		t.Fatalf("recovered %d entries, want 4", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+3) {
			t.Fatalf("entry %d has seq %d, want %d (FIFO order)", i, e.Seq, i+3)
		}
		if !bytes.Equal(e.Payload, payload(i+2, 64)) {
			t.Fatalf("entry %d payload corrupted", i)
		}
		if e.Op != byte(i+2) {
			t.Fatalf("entry %d op = %d", i, e.Op)
		}
	}
}

// crashTornSecond commits one entry to a 1<<16-byte ring, then crashes just
// before a second, 4096-byte entry's persist completes.
func crashTornSecond(t testing.TB) (*sim.Kernel, *pmem.Device) {
	k, pm, l := newLog(1 << 16)
	_, done, err := l.AppendNIC(k.Now(), 1, 64, payload(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(done)
	// Second entry: crash mid-persist.
	_, done2, err := l.AppendNIC(k.Now(), 2, 4096, payload(1, 4096))
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(done2 - 1) // stop just before completion
	pm.Crash()
	k.Run()
	return k, pm
}

func TestTornEntryNotRecovered(t *testing.T) {
	k, pm := crashTornSecond(t)
	l2 := New(k, pm, 1<<20, 1<<16)
	var got []Entry
	k.Go("recover", func(p *sim.Proc) { got = l2.Recover(p) })
	k.Run()
	if len(got) != 1 {
		t.Fatalf("recovered %d entries, want 1 (torn second entry)", len(got))
	}
	if got[0].Seq != 1 {
		t.Fatalf("recovered seq %d", got[0].Seq)
	}
}

func TestDataBeforeOperatorInvariant(t *testing.T) {
	// Crash at every 10% of the persist window; whenever the commit word
	// is durable, the payload must be intact.
	for frac := 1; frac <= 10; frac++ {
		k, pm, l := newLog(1 << 16)
		want := payload(7, 1024)
		_, done, err := l.AppendNIC(k.Now(), 9, 1024, want)
		if err != nil {
			t.Fatal(err)
		}
		k.RunUntil(sim.Time(int64(done) * int64(frac) / 10))
		pm.Crash()
		k.Run()
		l2 := New(k, pm, 1<<20, 1<<16)
		var got []Entry
		k.Go("recover", func(p *sim.Proc) { got = l2.Recover(p) })
		k.Run()
		switch len(got) {
		case 0: // commit not durable: fine
		case 1:
			if !bytes.Equal(got[0].Payload, want) {
				t.Fatalf("frac=%d: committed entry has torn payload", frac)
			}
		default:
			t.Fatalf("frac=%d: recovered %d entries", frac, len(got))
		}
	}
}

func TestRingWrapAndReuse(t *testing.T) {
	k, _, l := newLog(4096 + ctrlBytes)
	// Entries of 512+24 bytes: ~7 per lap. Append and consume in lockstep
	// for several laps.
	for i := 0; i < 100; i++ {
		seq, done, err := l.AppendNIC(k.Now(), 1, 512, nil)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		k.RunUntil(done)
		l.Consume(k.Now(), seq)
		k.Run()
	}
	if l.UsedBytes() != 0 {
		t.Fatalf("used = %d after lockstep laps", l.UsedBytes())
	}
}

func TestRingFullThrottles(t *testing.T) {
	k, _, l := newLog(2048 + ctrlBytes)
	var lastErr error
	n := 0
	for i := 0; i < 100; i++ {
		_, _, err := l.AppendNIC(k.Now(), 1, 128, nil)
		if err != nil {
			lastErr = err
			break
		}
		n++
	}
	if lastErr == nil {
		t.Fatal("ring never filled")
	}
	if n == 0 {
		t.Fatal("no appends admitted")
	}
	// Consuming frees space — but only once the head advance is durable:
	// until the control persist lands, recovery may rescan the freed bytes,
	// so Reserve must keep refusing them (and expedite the persist).
	l.Consume(k.Now(), 1)
	if _, _, err := l.AppendNIC(k.Now(), 1, 128, nil); err == nil {
		t.Fatal("append admitted before the head advance was durable")
	}
	k.Run() // the expedited control persist completes
	if _, _, err := l.AppendNIC(k.Now(), 1, 128, nil); err != nil {
		t.Fatalf("append after durable consume: %v", err)
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	k, _, l := newLog(1024 + ctrlBytes)
	if _, _, err := l.AppendNIC(k.Now(), 1, 4096, nil); err == nil {
		t.Fatal("oversize entry accepted")
	}
}

func TestOutOfOrderConsumeReclaimsInOrder(t *testing.T) {
	k, _, l := newLog(1 << 16)
	var seqs []uint64
	for i := 0; i < 3; i++ {
		seq, done, _ := l.AppendNIC(k.Now(), 1, 64, nil)
		seqs = append(seqs, seq)
		k.RunUntil(done)
	}
	used := l.UsedBytes()
	// Consume the middle and last entries: no space reclaimed yet.
	l.Consume(k.Now(), seqs[1])
	l.Consume(k.Now(), seqs[2])
	if l.UsedBytes() != used {
		t.Fatal("space reclaimed before FIFO prefix consumed")
	}
	l.Consume(k.Now(), seqs[0])
	if l.UsedBytes() != 0 {
		t.Fatalf("used = %d after prefix consume", l.UsedBytes())
	}
}

func TestConsumeUnknownPanics(t *testing.T) {
	k, _, l := newLog(1 << 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Consume(k.Now(), 999)
}

func TestRecoverAfterWrap(t *testing.T) {
	k, pm, l := newLog(4096 + ctrlBytes)
	// Fill several laps with lockstep consumption, then leave a few live
	// entries straddling the wrap point and crash.
	i := 0
	for ; i < 9; i++ {
		seq, done, err := l.AppendNIC(k.Now(), 1, 512, payload(i, 512))
		if err != nil {
			t.Fatal(err)
		}
		k.RunUntil(done)
		l.Consume(k.Now(), seq)
		k.Run()
	}
	var liveSeqs []uint64
	var livePayloads [][]byte
	for j := 0; j < 4; j++ {
		pl := payload(100+j, 512)
		seq, done, err := l.AppendNIC(k.Now(), 1, 512, pl)
		if err != nil {
			t.Fatal(err)
		}
		liveSeqs = append(liveSeqs, seq)
		livePayloads = append(livePayloads, pl)
		k.RunUntil(done)
	}
	k.Run()
	pm.Crash() // nothing in flight; pure restart

	l2 := New(k, pm, 1<<20, 4096+ctrlBytes)
	var got []Entry
	k.Go("recover", func(p *sim.Proc) { got = l2.Recover(p) })
	k.Run()
	if len(got) != len(liveSeqs) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(liveSeqs))
	}
	for j, e := range got {
		if e.Seq != liveSeqs[j] {
			t.Fatalf("entry %d seq %d want %d", j, e.Seq, liveSeqs[j])
		}
		if !bytes.Equal(e.Payload, livePayloads[j]) {
			t.Fatalf("entry %d payload corrupted after wrap", j)
		}
	}
	// The recovered log must keep working.
	if _, _, err := l2.AppendNIC(k.Now(), 1, 512, nil); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestRecoveredLogContinuesSeq(t *testing.T) {
	k, pm, l := newLog(1 << 16)
	_, done, _ := l.AppendNIC(k.Now(), 1, 64, payload(0, 64))
	k.RunUntil(done)
	l2 := New(k, pm, 1<<20, 1<<16)
	k.Go("recover", func(p *sim.Proc) { l2.Recover(p) })
	k.Run()
	seq, _, err := l2.Reserve(64)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("post-recovery seq = %d, want 2", seq)
	}
}

func TestAppendCPUPath(t *testing.T) {
	k, pm, l := newLog(1 << 16)
	var addr int64
	k.Go("cpu", func(p *sim.Proc) {
		var err error
		_, addr, err = l.AppendCPU(p, 3, 256, payload(1, 256))
		if err != nil {
			t.Error(err)
		}
	})
	k.Run()
	// Entry is durable: header seq at addr.
	if pm.ReadBytes(addr, 1)[0] != 1 {
		t.Fatal("CPU-appended entry not durable")
	}
}

func TestSyntheticPayloadNotRecoverable(t *testing.T) {
	k, pm, l := newLog(1 << 16)
	_, done, _ := l.AppendNIC(k.Now(), 1, 4096, nil) // timing-only
	k.RunUntil(done)
	l2 := New(k, pm, 1<<20, 1<<16)
	var got []Entry
	k.Go("recover", func(p *sim.Proc) { got = l2.Recover(p) })
	k.Run()
	if len(got) != 0 {
		t.Fatal("synthetic entry should not recover (no commit word)")
	}
}

func TestEntrySizeAndEncode(t *testing.T) {
	if EntrySize(0) != 24 || EntrySize(1) != 32 || EntrySize(8) != 32 {
		t.Fatalf("EntrySize: %d %d %d", EntrySize(0), EntrySize(1), EntrySize(8))
	}
	b := Encode(5, 7, 16, bytes.Repeat([]byte{1}, 16))
	if int64(len(b)) != EntrySize(16) {
		t.Fatalf("encoded len %d", len(b))
	}
	if Encode(5, 7, 16, nil); len(Encode(5, 7, 16, nil)) != HeaderBytes {
		t.Fatal("nil-payload encode should be header-only")
	}
}

// crashHeadLagsAcrossWrap fills a 4096-byte ring, durably consumes four
// entries, lazily consumes two more and wraps an eighth entry to offset 0,
// then crashes with the durable head still on entry 5. It returns the
// payloads by seq-1.
func crashHeadLagsAcrossWrap(t testing.TB) (*sim.Kernel, *pmem.Device, [][]byte) {
	k, pm, l := newLog(4096 + ctrlBytes)
	l.CtrlEvery = 1
	// Lap 1: seven 536-byte entries fill the ring; durably consume four,
	// advancing the control words to (head=entry 5, floor=5).
	var payloads [][]byte
	for i := 1; i <= 7; i++ {
		pl := payload(i, 512)
		payloads = append(payloads, pl)
		_, done, err := l.AppendNIC(k.Now(), 1, 512, pl)
		if err != nil {
			t.Fatal(err)
		}
		k.RunUntil(done)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		l.Consume(k.Now(), seq)
		k.Run()
	}
	// Lazy window: consume 5 and 6 without a control persist (entry 7 keeps
	// the window non-empty, so the full-drain persist does not fire either).
	l.CtrlEvery = 100
	l.Consume(k.Now(), 5)
	l.Consume(k.Now(), 6)
	// Entry 8 does not fit the 344-byte tailroom: wrap slack plus a fresh
	// entry at offset 0, while the durable head still points at entry 5.
	pl8 := payload(8, 512)
	payloads = append(payloads, pl8)
	if _, done, err := l.AppendNIC(k.Now(), 1, 512, pl8); err != nil {
		t.Fatal(err)
	} else {
		k.RunUntil(done)
	}
	k.Run()
	pm.Crash()
	k.Run()
	return k, pm, payloads
}

// TestRecoverHeadLagsAcrossWrap batches control persists so the durable
// head stays several consumes behind while the writer wraps the ring.
// Recovery must replay at-least-once from the stale head: the two
// non-durably-consumed entries reappear, followed by the live tail and the
// wrapped entry — and never fewer.
func TestRecoverHeadLagsAcrossWrap(t *testing.T) {
	k, pm, payloads := crashHeadLagsAcrossWrap(t)
	l2 := New(k, pm, 1<<20, 4096+ctrlBytes)
	var got []Entry
	k.Go("recover", func(p *sim.Proc) { got = l2.Recover(p) })
	k.Run()
	want := []uint64{5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %v", len(got), want)
	}
	for i, e := range got {
		if e.Seq != want[i] {
			t.Fatalf("entry %d seq %d, want %d", i, e.Seq, want[i])
		}
		if !bytes.Equal(e.Payload, payloads[e.Seq-1]) {
			t.Fatalf("seq %d payload corrupted across wrap", e.Seq)
		}
	}
	if err := l2.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	// The rebuilt ring keeps working past the wrap.
	seq, _, err := l2.Reserve(512)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 9 {
		t.Fatalf("post-recovery seq = %d, want 9", seq)
	}
}

// crashHeadInWrapSlack durably consumes a full lap of a 4096-byte ring, so
// the durable head sits where the next append leaves wrap slack, wraps an
// eighth entry to offset 0 and crashes. It returns that entry's payload.
func crashHeadInWrapSlack(t testing.TB) (*sim.Kernel, *pmem.Device, []byte) {
	k, pm, l := newLog(4096 + ctrlBytes)
	l.CtrlEvery = 1
	for i := 1; i <= 7; i++ {
		seq, done, err := l.AppendNIC(k.Now(), 1, 512, payload(i, 512))
		if err != nil {
			t.Fatal(err)
		}
		k.RunUntil(done)
		l.Consume(k.Now(), seq)
		k.Run()
	}
	// Durable control words now read (head=3752, floor=8) — and 3752 is
	// about to become wrap slack.
	pl8 := payload(8, 512)
	if _, done, err := l.AppendNIC(k.Now(), 1, 512, pl8); err != nil {
		t.Fatal(err)
	} else {
		k.RunUntil(done)
	}
	k.Run()
	pm.Crash()
	k.Run()
	return k, pm, pl8
}

// TestRecoverHeadInWrapSlack drives the durable head into the ring-end wrap
// slack: every entry of a full lap is durably consumed (head = old tail),
// then the next append wraps. The recovery scan finds nothing at the head,
// probes offset 0, and must pick up the wrapped entry without charging
// phantom slack to the used span.
func TestRecoverHeadInWrapSlack(t *testing.T) {
	k, pm, pl8 := crashHeadInWrapSlack(t)
	l2 := New(k, pm, 1<<20, 4096+ctrlBytes)
	var got []Entry
	k.Go("recover", func(p *sim.Proc) { got = l2.Recover(p) })
	k.Run()
	if len(got) != 1 || got[0].Seq != 8 {
		t.Fatalf("recovered %v, want exactly seq 8", got)
	}
	if !bytes.Equal(got[0].Payload, pl8) {
		t.Fatal("wrapped entry payload corrupted")
	}
	if err := l2.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	if seq, _, err := l2.Reserve(512); err != nil || seq != 9 {
		t.Fatalf("post-recovery reserve: seq=%d err=%v", seq, err)
	}
}

// crashBetweenCtrlWords commits six entries to a 1<<14-byte ring, consumes
// the first, and crashes delta/8 of the way through the head-then-floor
// control persist. It returns the payloads by seq-1.
func crashBetweenCtrlWords(t testing.TB, delta int) (*sim.Kernel, *pmem.Device, [][]byte) {
	k, pm, l := newLog(1<<14 + ctrlBytes)
	l.CtrlEvery = 1
	var payloads [][]byte
	for i := 1; i <= 6; i++ {
		pl := payload(i, 64)
		payloads = append(payloads, pl)
		_, done, err := l.AppendNIC(k.Now(), 1, 64, pl)
		if err != nil {
			t.Fatal(err)
		}
		k.RunUntil(done)
	}
	start := k.Now()
	done := l.Consume(k.Now(), 1) // persists head then floor
	if done <= start {
		t.Fatal("control persist completed instantly; the sweep is vacuous")
	}
	k.RunUntil(start.Add(done.Sub(start) * time.Duration(delta) / 8))
	pm.Crash()
	k.Run()
	return k, pm, payloads
}

// TestCrashBetweenCtrlWordPersists crashes at every offset across the
// control-persist window, so recovery sees every split of {old,new} head ×
// {old,new} floor — including a fresh floor with a stale head, which forces
// the scan to walk over a durably-consumed entry. No split may lose an
// unconsumed durable entry.
func TestCrashBetweenCtrlWordPersists(t *testing.T) {
	for delta := 0; delta <= 8; delta++ {
		k, pm, payloads := crashBetweenCtrlWords(t, delta)
		l2 := New(k, pm, 1<<20, 1<<14+ctrlBytes)
		var got []Entry
		k.Go("recover", func(p *sim.Proc) { got = l2.Recover(p) })
		k.Run()
		// Entries 2..6 are durable and unconsumed: every split must return
		// them; entry 1 may also replay (at-least-once).
		seen := make(map[uint64][]byte)
		last := uint64(0)
		for _, e := range got {
			if e.Seq <= last {
				t.Fatalf("delta=%d: seq %d after %d breaks FIFO order", delta, e.Seq, last)
			}
			last = e.Seq
			seen[e.Seq] = e.Payload
		}
		for seq := uint64(2); seq <= 6; seq++ {
			pl, ok := seen[seq]
			if !ok {
				t.Fatalf("delta=%d: unconsumed durable seq %d lost", delta, seq)
			}
			if !bytes.Equal(pl, payloads[seq-1]) {
				t.Fatalf("delta=%d: seq %d payload corrupted", delta, seq)
			}
		}
		if err := l2.CheckAccounting(); err != nil {
			t.Fatalf("delta=%d: %v", delta, err)
		}
	}
}

// TestRecoverWithSeqGaps interleaves ring-less sequence allocations
// (NextSeq, the non-mutating request path) with real appends: the recovery
// scan must accept the gapped, strictly-increasing run and continue the
// sequence space above the highest allocation it can see.
func TestRecoverWithSeqGaps(t *testing.T) {
	k, pm, l := newLog(1 << 14)
	var want []uint64
	for i := 0; i < 4; i++ {
		seq, done, err := l.AppendNIC(k.Now(), 1, 64, payload(i, 64))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, seq)
		k.RunUntil(done)
		l.NextSeq() // a read slips between every two writes
	}
	pm.Crash()
	k.Run()

	l2 := New(k, pm, 1<<20, 1<<14)
	var got []Entry
	k.Go("recover", func(p *sim.Proc) { got = l2.Recover(p) })
	k.Run()
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Seq != want[i] {
			t.Fatalf("entry %d seq %d, want %d", i, e.Seq, want[i])
		}
	}
	// The trailing NextSeq allocation is invisible to the scan; continuing
	// from the highest logged sequence is correct (it was never acked with
	// a durability promise and owns no log bytes).
	if seq, _, err := l2.Reserve(64); err != nil || seq != want[len(want)-1]+1 {
		t.Fatalf("post-recovery reserve: seq=%d err=%v", seq, err)
	}
}

// Property: for a random schedule of appends, in-order consumes, and a crash
// at a random time, recovery returns exactly a contiguous FIFO range of
// committed entries — never a torn payload, never an entry that was durably
// consumed, never out of order — and every entry whose append completed
// before the crash and was not consumed IS recovered.
func TestCrashRecoveryProperty(t *testing.T) {
	type step struct {
		Size    uint8
		Consume bool
	}
	f := func(steps []step, crashAt uint16) bool {
		k, pm, l := newLog(8192 + ctrlBytes)
		type applied struct {
			seq  uint64
			done sim.Time
			data []byte
		}
		var appendedList []applied
		consumed := make(map[uint64]bool)
		nextConsume := 0
		for i, s := range steps {
			n := int(s.Size)%512 + 8
			data := payload(i, n)
			seq, done, err := l.AppendNIC(k.Now(), 1, n, data)
			if err == nil {
				appendedList = append(appendedList, applied{seq, done, data})
			}
			k.RunFor(time.Duration(int(s.Size)) * time.Microsecond)
			if s.Consume && nextConsume < len(appendedList) {
				a := appendedList[nextConsume]
				if k.Now() >= a.done { // only consume completed appends
					l.Consume(k.Now(), a.seq)
					consumed[a.seq] = true
					nextConsume++
				}
			}
		}
		crash := k.Now().Add(time.Duration(crashAt) * time.Microsecond / 4)
		k.RunUntil(crash)
		crashTime := k.Now()
		pm.Crash()
		k.Run()

		l2 := New(k, pm, 1<<20, 8192+ctrlBytes)
		var got []Entry
		k.Go("recover", func(p *sim.Proc) { got = l2.Recover(p) })
		k.Run()

		// 1. FIFO order, no duplicates.
		for i := 1; i < len(got); i++ {
			if got[i].Seq != got[i-1].Seq+1 {
				return false
			}
		}
		byseq := make(map[uint64]applied)
		for _, a := range appendedList {
			byseq[a.seq] = a
		}
		for _, e := range got {
			a, ok := byseq[e.Seq]
			if !ok {
				return false // recovered an entry that was never appended
			}
			// 2. Never a torn payload.
			if !bytes.Equal(e.Payload, a.data) {
				return false
			}
		}
		// 3. Every durably-appended, unconsumed entry is recovered.
		// (Consume persists lag, so recently consumed entries MAY also
		// appear — at-least-once is allowed.)
		gotSet := make(map[uint64]bool)
		for _, e := range got {
			gotSet[e.Seq] = true
		}
		for _, a := range appendedList {
			if a.done <= crashTime && !consumed[a.seq] && !gotSet[a.seq] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
