package crashcheck

import (
	"testing"

	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// TestSettleBudget bounds the work a crash point does after its crash.
// Once the last crash is recovered the monitor has nothing left to wait
// for and exits, so a point's post-crash events — recovery, replay and the
// rest of the workload — stay within twice the crash-free reference run's.
// A monitor that polled on to the settle horizon ran about 8× that.
func TestSettleBudget(t *testing.T) {
	for _, kind := range rpc.DurableKinds {
		for _, mix := range Mixes {
			kind, mix := kind, mix
			t.Run(kind.String()+"/"+mix.String(), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(kind, mix, 42)
				cfg.Points, cfg.TornPoints, cfg.SecondCrashEvery = 4, 2, 2
				ref := newRun(cfg, false)
				ref.k.Run()
				events := ref.k.Fired()
				refSpan := ref.k.Now().Sub(sim.Time(0))
				ref.k.Shutdown()
				for _, pt := range pickPoints(cfg, eventSalt, events) {
					r, _ := runPoint(cfg, pt, refSpan)
					if post := r.k.Fired() - r.crashFired; post > 2*events {
						t.Errorf("point {%v}: %d events after the crash, want <= 2 × %d reference events", pt, post, events)
					}
					if !r.monitor.Dead() {
						t.Errorf("point {%v}: monitor still polling after settle", pt)
					}
					r.k.Shutdown()
				}
			})
		}
	}
}

// TestPMPoolSettleEndsMonitor requires the pool sweep's monitor to exit
// once the last crash is recovered. The lease renewer and reclaimer keep
// the settle phase running to its horizon, so the monitor's exit is what
// keeps that phase down to their sparse ticks.
func TestPMPoolSettleEndsMonitor(t *testing.T) {
	for _, kind := range rpc.DurableKinds {
		cfg := DefaultPMPoolConfig(kind, 1)
		for _, pt := range []Point{{Event: 300}, {Event: 1200, SecondCrash: true}, {Event: 2500, TornFrac: 0.5}} {
			r, _ := runPMPoolPoint(cfg, pt, 0)
			if !r.monitor.Dead() {
				t.Errorf("%v point {%v}: monitor still polling after settle", kind, pt)
			}
			for _, msg := range r.verify() {
				t.Errorf("%v point {%v}: %s", kind, pt, msg)
			}
			r.k.Shutdown()
		}
	}
}
