package redolog

import (
	"bytes"
	"encoding/binary"
	"testing"

	"prdma/internal/pmem"
	"prdma/internal/sim"
)

// fuzzMaxRegion caps the fuzzed log region (control block plus ring).
const fuzzMaxRegion = 1 << 16

// ringImage returns the durable bytes of the log region at [1<<20, +size),
// trailing zeros trimmed (unwritten PM reads as zero anyway).
func ringImage(pm *pmem.Device, size int64) []byte {
	return bytes.TrimRight(pm.ReadBytes(1<<20, int(size)), "\x00")
}

// FuzzRecover writes fuzzer-chosen bytes over the control block and ring of
// a small log and runs Recover on it. Whatever the bytes, recovery must not
// panic, must return strictly increasing seqs at or above the floor it
// honored, and must leave the ring accounting consistent. The seed corpus is
// the crashed PM of the torn-ring tests plus hand-built rings, so plain
// `go test` replays it.
func FuzzRecover(f *testing.F) {
	_, pm := crashTornSecond(f)
	f.Add(uint32(1<<16), ringImage(pm, 1<<16))
	_, pm, _ = crashHeadLagsAcrossWrap(f)
	f.Add(uint32(4096+ctrlBytes), ringImage(pm, 4096+ctrlBytes))
	_, pm, _ = crashHeadInWrapSlack(f)
	f.Add(uint32(4096+ctrlBytes), ringImage(pm, 4096+ctrlBytes))
	for delta := 0; delta <= 8; delta += 4 {
		_, pm, _ = crashBetweenCtrlWords(f, delta)
		f.Add(uint32(1<<14+ctrlBytes), ringImage(pm, 1<<14+ctrlBytes))
	}
	// A durably consumed entry between two live ones: recovery must stop
	// at it rather than splice seq 6 onto the window across a gap.
	f.Add(uint32(4096+ctrlBytes), craftRing(0, 5,
		craftEntry{0, 5, 8}, craftEntry{32, 2, 8}, craftEntry{64, 6, 8}))
	// A durably consumed entry left in the wrap slack behind the last
	// pre-wrap live entry: the slack must start where the live run ended,
	// not past the stale entry.
	f.Add(uint32(1000+ctrlBytes), craftRing(800, 10,
		craftEntry{800, 10, 64}, craftEntry{888, 3, 8}, craftEntry{0, 11, 64}, craftEntry{88, 12, 64}))

	f.Fuzz(func(t *testing.T, region uint32, img []byte) {
		size := min(max(int64(region), ctrlBytes+Overhead), fuzzMaxRegion)
		if int64(len(img)) > size {
			img = img[:size]
		}
		k := sim.New()
		pm := pmem.New(k, pmem.DefaultParams())
		pm.WriteRaw(1<<20, img)
		l := New(k, pm, 1<<20, size)
		var floor uint64
		l.OnRecover = func(ri RecoverInfo) { floor = ri.Floor }
		var got []Entry
		k.Go("recover", func(p *sim.Proc) { got = l.Recover(p) })
		k.Run()
		last := uint64(0)
		for i, e := range got {
			if e.Seq < floor {
				t.Fatalf("entry %d: seq %d below floor %d", i, e.Seq, floor)
			}
			if e.Seq <= last {
				t.Fatalf("entry %d: seq %d not above predecessor %d", i, e.Seq, last)
			}
			last = e.Seq
		}
		if err := l.CheckAccounting(); err != nil {
			t.Fatal(err)
		}
	})
}

// craftEntry is one committed entry of a hand-built ring image: n payload
// bytes with sequence seq at ring offset off.
type craftEntry struct {
	off int64
	seq uint64
	n   int
}

// craftRing returns a ring image whose durable control block holds head and
// floor, with the given committed entries laid out over zeroed media.
func craftRing(head int64, floor uint64, es ...craftEntry) []byte {
	img := make([]byte, ctrlBytes)
	binary.LittleEndian.PutUint64(img[0:], uint64(head))
	binary.LittleEndian.PutUint64(img[8:], floor)
	for _, e := range es {
		b := Encode(e.seq, 1, e.n, make([]byte, e.n))
		if end := ctrlBytes + int(e.off) + len(b); len(img) < end {
			img = append(img, make([]byte, end-len(img))...)
		}
		copy(img[ctrlBytes+e.off:], b)
	}
	return img
}
