package crashcheck

import (
	"strings"
	"testing"

	"prdma/internal/rpc"
)

// TestPMPoolSweepClean sweeps crash points over the pool's alloc, write,
// free and lease path on every durable family and expects the pool's
// crash contract to hold at every point, with recovery exercised.
func TestPMPoolSweepClean(t *testing.T) {
	for _, kind := range rpc.DurableKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultPMPoolConfig(kind, 1)
			cfg.Points, cfg.TornPoints = 40, 10
			res := PMPoolSweep(cfg)
			if res.Points != cfg.Points+cfg.TornPoints {
				t.Fatalf("swept %d points, want %d (reference run fired %d events)",
					res.Points, cfg.Points+cfg.TornPoints, res.Events)
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
		})
	}
}

// TestPMPoolLeakMutantCaught plants the leak mutant (Free skips the
// durable owner-word clear) and requires the sweep to report the slots it
// leaks.
func TestPMPoolLeakMutantCaught(t *testing.T) {
	cfg := DefaultPMPoolConfig(rpc.WFlushRPC, 1)
	cfg.Points, cfg.TornPoints = 12, 4
	cfg.Mutant = "leak"
	res := PMPoolSweep(cfg)
	if res.ViolationCount == 0 {
		t.Fatalf("leak mutant not caught over %d points (%d events)", res.Points, res.Events)
	}
	leaked := false
	for _, v := range res.Violations {
		leaked = leaked || strings.Contains(v.Msg, "acked free leaked")
	}
	if !leaked {
		t.Errorf("no acked free reported leaked; first violation: %v", res.Violations[0])
	}
}
