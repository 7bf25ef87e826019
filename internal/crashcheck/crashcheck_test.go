package crashcheck

import (
	"slices"
	"strings"
	"testing"

	"prdma/internal/rpc"
)

// sweepCleanReplays pins TestSweepClean's replay total per cell. Replays
// depend on where crashes land and on how recovery and the settle phase
// run, so a change there that moves them shows up in every mix, not only
// the readwrite mix the benchmark fingerprints.
var sweepCleanReplays = map[string]int{
	"S-RFlush-RPC/writes":    1109,
	"S-RFlush-RPC/readwrite": 745,
	"S-RFlush-RPC/batch":     624,
	"SFlush-RPC/writes":      998,
	"SFlush-RPC/readwrite":   679,
	"SFlush-RPC/batch":       591,
	"W-RFlush-RPC/writes":    1045,
	"W-RFlush-RPC/readwrite": 727,
	"W-RFlush-RPC/batch":     669,
	"WFlush-RPC/writes":      1084,
	"WFlush-RPC/readwrite":   697,
	"WFlush-RPC/batch":       599,
}

// TestSweepClean sweeps crash points across every durable RPC family and
// traffic mix and expects zero invariant violations: acked writes survive
// every crash placement, replay is ordered, torn entries are rejected,
// and accounting reconciles after recovery.
func TestSweepClean(t *testing.T) {
	for _, kind := range rpc.DurableKinds {
		for _, mix := range Mixes {
			kind, mix := kind, mix
			cell := kind.String() + "/" + mix.String()
			t.Run(cell, func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(kind, mix, 42)
				cfg.Points = 60
				cfg.TornPoints = 15
				res := Sweep(cfg)
				if res.Points < cfg.Points {
					t.Fatalf("swept %d points, want >= %d (reference run fired %d events)",
						res.Points, cfg.Points, res.Events)
				}
				for _, v := range res.Violations {
					t.Errorf("violation: %v", v)
				}
				if res.ViolationCount > len(res.Violations) {
					t.Errorf("%d further violations truncated", res.ViolationCount-len(res.Violations))
				}
				if res.Replayed == 0 {
					t.Errorf("no crash point led to a log replay; the sweep is not exercising recovery")
				}
				if want, ok := sweepCleanReplays[cell]; !ok {
					t.Errorf("no pinned replay count for this cell")
				} else if res.Replayed != want {
					t.Errorf("replayed %d entries, want %d", res.Replayed, want)
				}
			})
		}
	}
}

// TestSecondCrashDuringRecoveryClean arms a second crash at every point,
// so every recovery is itself interrupted and recovered again.
func TestSecondCrashDuringRecoveryClean(t *testing.T) {
	cfg := DefaultConfig(rpc.WFlushRPC, MixReadWrite, 7)
	cfg.Points = 40
	cfg.TornPoints = 10
	cfg.SecondCrashEvery = 1
	res := Sweep(cfg)
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if res.Replayed == 0 {
		t.Errorf("no replays despite double crashes at every point")
	}
}

// TestAckBeforeDurableCaught re-introduces the §2.4 premature-ack bug
// (flush ACK at DMA placement instead of the durability horizon) and
// requires the sweep to catch it as a lost acked write, with a
// reproducible (seed, point) pair.
func TestAckBeforeDurableCaught(t *testing.T) {
	for _, kind := range []rpc.Kind{rpc.WFlushRPC, rpc.SFlushRPC} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(kind, MixWrites, 11)
			// Large objects widen the placement→durability gap the bug
			// exposes, so event-boundary crashes land inside it.
			cfg.ObjSize = 16384
			cfg.Points = 120
			cfg.TornPoints = 40
			cfg.Mutant = "ackbug"
			res := Sweep(cfg)
			if res.ViolationCount == 0 {
				t.Fatalf("premature-ack bug not caught over %d points (%d events)", res.Points, res.Events)
			}
			min := res.Minimal()
			if min == nil {
				t.Fatal("violations counted but none recorded")
			}
			if !strings.Contains(min.Msg, "acked write") {
				t.Errorf("expected a lost/torn acked write, got: %v", min)
			}
			// The minimal reproduction must replay deterministically
			// from (seed, point) alone.
			r, _ := runPoint(cfg, min.Point, 0)
			repro := r.verify()
			found := false
			for _, msg := range repro {
				if msg == min.Msg {
					found = true
				}
			}
			if !found {
				t.Errorf("minimal point %v did not reproduce %q; got %q", min.Point, min.Msg, repro)
			}
		})
	}
}

// TestPointDeterminism runs the same crash point twice and requires
// byte-identical verification output — the property that makes a printed
// (seed, point) pair a real reproduction recipe.
func TestPointDeterminism(t *testing.T) {
	cfg := DefaultConfig(rpc.WRFlushRPC, MixBatch, 3)
	pt := Point{Event: 900, TornFrac: 0.5, SecondCrash: true}
	a, atA := runPoint(cfg, pt, 0)
	b, atB := runPoint(cfg, pt, 0)
	if atA != atB {
		t.Fatalf("crash times diverged: %v vs %v", atA, atB)
	}
	va, vb := a.verify(), b.verify()
	if len(va) != len(vb) {
		t.Fatalf("verification diverged: %q vs %q", va, vb)
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("verification diverged at %d: %q vs %q", i, va[i], vb[i])
		}
	}
	if a.replayed != b.replayed {
		t.Fatalf("replay counts diverged: %d vs %d", a.replayed, b.replayed)
	}
}

// TestSweepsRejectUnknownMutants pins that no sweep passes a mutant it does
// not implement: seeding nothing would report a clean sweep and let a
// detection check pass silently. Validate rejects the name, and the sweep
// itself refuses to run.
func TestSweepsRejectUnknownMutants(t *testing.T) {
	sweeps := []struct {
		name  string
		known []string
		setup func(mutant string) (validate func() error, sweep func())
	}{
		{"serial", []string{"ackbug"}, func(m string) (func() error, func()) {
			cfg := DefaultConfig(rpc.WFlushRPC, MixWrites, 1)
			cfg.Mutant = m
			return cfg.Validate, func() { Sweep(cfg) }
		}},
		{"pmpool", []string{"leak"}, func(m string) (func() error, func()) {
			cfg := DefaultPMPoolConfig(rpc.WFlushRPC, 1)
			cfg.Mutant = m
			return cfg.Validate, func() { PMPoolSweep(cfg) }
		}},
		{"cluster", []string{"ackbug", "resurrect"}, func(m string) (func() error, func()) {
			cfg := DefaultPartitionedConfig(1)
			cfg.Mutant = m
			return cfg.Validate, func() { PartitionedSweep(cfg) }
		}},
	}
	for _, s := range sweeps {
		for _, m := range []string{"", "ackbug", "resurrect", "leak", "typo"} {
			validate, sweep := s.setup(m)
			err := validate()
			if m == "" || slices.Contains(s.known, m) {
				if err != nil {
					t.Errorf("%s: mutant %q rejected: %v", s.name, m, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s: unimplemented mutant %q accepted", s.name, m)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: sweep ran with unimplemented mutant %q", s.name, m)
					}
				}()
				sweep()
			}()
		}
	}
}
