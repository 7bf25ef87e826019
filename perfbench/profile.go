package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profile runtime/pprof writes (gzipped
// profile.proto) just far enough to walk each sample's stack, and
// attributes every sample to one bucket: a repo module by its innermost
// frame, or a slice of the Go runtime.

// profileStack is one sample: its count and its function names, leaf first
// (inlined callees before the function they were inlined into).
type profileStack struct {
	count int64
	funcs []string
}

// decodeProfile parses a gzipped pprof profile.
func decodeProfile(data []byte) ([]profileStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples   []sample
		locLines  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcNames = make(map[uint64]uint64)   // function id -> string index
		strs      []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					s.vals = appendVarints(s.vals, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profileStack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := profileStack{count: int64(s.vals[0])}
		for _, l := range s.locs {
			for _, fid := range locLines[l] {
				if si := funcNames[fid]; si < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[si])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for every field of one protobuf message. Varint
// fields pass their value in v; length-delimited fields pass their bytes.
func walkFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Profile buckets. Repo modules are named after their internal/ package,
// with cache and dram folded into host; "prdma" is the root API package,
// "bench" this benchmark's own code.
var profileBuckets = []string{
	"sim", "fabric", "rnic", "pmem", "host", "redolog", "rpc", "replicate",
	"cluster", "pmpool", "crashcheck", "prdma", "bench", "other",
	"runtime.sched", "runtime.gc", "runtime.alloc", "runtime.other",
}

// Go runtime functions that mark a sample's stack as garbage collection,
// allocation, or scheduling (goroutine park/ready, channels, locks).
var (
	gcFrames = []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.scanstack", "runtime.scanblock",
		"runtime.greyobject", "runtime.wbBuf", "runtime.(*gcWork)", "runtime.(*mspan).sweep",
		"runtime.(*sweepLocked).sweep", "runtime.(*mheap).reclaim", "runtime.findObject",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.makemap", "runtime.newarray", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mheap).alloc", "runtime.rawstring", "runtime.rawbyteslice",
	}
	schedFrames = []string{
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m", "runtime.schedule",
		"runtime.findRunnable", "runtime.mcall", "runtime.chansend", "runtime.chanrecv",
		"runtime.selectgo", "runtime.lock", "runtime.unlock", "runtime.futex", "runtime.notesleep",
		"runtime.notewakeup", "runtime.semasleep", "runtime.semawakeup", "runtime.wakep",
		"runtime.startm", "runtime.stopm", "runtime.handoffp", "runtime.runq", "runtime.casgstatus",
		"runtime.gosched", "runtime.goschedImpl", "runtime.gopreempt_m", "runtime.execute",
		"runtime.gogo", "runtime.goexit", "runtime.newproc", "runtime.procyield", "runtime.osyield",
		"runtime.usleep", "runtime.resetspinning", "runtime.netpoll", "runtime.checkTimers",
		"runtime.semacquire", "runtime.semrelease", "runtime.sysmon", "runtime.mPark",
		"runtime.stealWork", "runtime.goparkunlock", "runtime.send", "runtime.recv",
		"sync.", "internal/sync.", "runtime.notifyList",
	}
)

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// isRuntime reports whether fn belongs to the Go runtime or the sync
// primitives the runtime implements.
func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "sync.") ||
		strings.HasPrefix(fn, "sync/atomic.") || strings.HasPrefix(fn, "internal/sync.")
}

// repoModule maps a function name to its repo bucket, or "" when the
// function is outside the repo.
func repoModule(fn string) string {
	switch {
	case strings.HasPrefix(fn, "prdma/internal/"):
		mod := fn[len("prdma/internal/"):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		switch mod {
		case "cache", "dram":
			return "host"
		case "sim", "fabric", "rnic", "pmem", "host", "redolog", "rpc", "replicate",
			"cluster", "pmpool", "crashcheck":
			return mod
		}
		return "other"
	case strings.HasPrefix(fn, "prdma/perfbench.") || strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "prdma."):
		return "prdma"
	}
	return ""
}

// classify picks the bucket of one sample. A sample whose leaf is in the
// runtime counts as GC, allocation or scheduling when its stack says so;
// every other sample belongs to the innermost repo frame on its stack.
func classify(funcs []string) string {
	if len(funcs) == 0 {
		return "other"
	}
	if isRuntime(funcs[0]) {
		for _, fn := range funcs {
			if hasPrefixAny(fn, gcFrames) {
				return "runtime.gc"
			}
		}
		for _, fn := range funcs {
			if hasPrefixAny(fn, allocFrames) {
				return "runtime.alloc"
			}
		}
		if hasPrefixAny(funcs[0], schedFrames) {
			return "runtime.sched"
		}
		for _, fn := range funcs {
			if !isRuntime(fn) {
				break
			}
			if hasPrefixAny(fn, schedFrames) {
				return "runtime.sched"
			}
		}
	}
	for _, fn := range funcs {
		if m := repoModule(fn); m != "" {
			return m
		}
	}
	if isRuntime(funcs[0]) {
		return "runtime.other"
	}
	return "other"
}

// attribute returns each bucket's share of samples in percent, and the
// total sample count.
func attribute(stacks []profileStack) (map[string]float64, int64) {
	counts := make(map[string]int64)
	var total int64
	for _, s := range stacks {
		counts[classify(s.funcs)] += s.count
		total += s.count
	}
	pct := make(map[string]float64)
	for _, b := range profileBuckets {
		if total > 0 {
			pct[b] = 100 * float64(counts[b]) / float64(total)
		} else {
			pct[b] = 0
		}
	}
	return pct, total
}
