package crashcheck

import (
	"time"

	"prdma/internal/pmem"
	"prdma/internal/sim"
)

// crashDriver is the crash/recovery state machine shared by the serial and
// pmpool sweeps: it fails the server and schedules its restart, owns
// re-establishment through one monitor proc, parks workers while the
// server is down or reconnecting, and places a point's crashes. The
// harness supplies its own steps as functions.
type crashDriver struct {
	k          *sim.Kernel
	restart    time.Duration // server restart latency
	retransfer time.Duration // the workers' call timeout; they re-check at a quarter of it

	// fail crashes the server's host and engine; restore restarts the
	// host; reestablish recovers and replays, on the monitor proc, and
	// returns the replay count.
	fail        func()
	restore     func()
	reestablish func(p *sim.Proc) (int, error)

	serverUp     bool
	generation   int
	reestGen     int
	reconnecting bool
	// armed counts crashes scheduled by armCrash that have not fired yet.
	armed    int
	replayed int

	monitor *sim.Proc
	// crashFired is Kernel.Fired() when the point's first crash landed.
	crashFired uint64
}

// startMonitor spawns the proc that owns re-establishment, so replay is
// enqueued before any worker's retried or new requests. It polls every
// 20µs until the last crash has been recovered, then exits. A later tick
// would only read state, so exiting leaves every other event's relative
// (at, seq) order unchanged. The earlier ticks must stay: crash points
// are event indices counted in a run that has them.
func (d *crashDriver) startMonitor(name string) {
	d.monitor = d.k.Go(name, func(p *sim.Proc) {
		for !d.settled() {
			p.Sleep(20 * time.Microsecond)
			if d.serverUp && d.reestGen != d.generation {
				d.reconnecting = true
				replayed, err := d.reestablish(p)
				if err != nil {
					panic(err) // serial harness: reestablish cannot refuse
				}
				d.replayed += replayed
				d.reestGen = d.generation
				d.reconnecting = false
			}
		}
	})
}

// settled reports that the monitor has nothing left to wait for: the
// server has restarted at least once, no armed crash is pending, and the
// current generation is up and re-established. Nothing can crash the
// server after that.
func (d *crashDriver) settled() bool {
	return d.generation > 0 && d.armed == 0 && d.serverUp && d.reestGen == d.generation
}

// waitReady parks a worker while the server is down or reconnecting.
func (d *crashDriver) waitReady(p *sim.Proc) {
	for !d.serverUp || d.reconnecting || d.reestGen != d.generation {
		p.Sleep(d.retransfer / 4)
	}
}

// crash fails the server and schedules its restart, exactly as the §5.4
// failure driver does. Safe to call while already down (no-op).
func (d *crashDriver) crash() {
	if !d.serverUp {
		return
	}
	d.serverUp = false
	d.fail()
	d.k.AfterFunc(d.restart, func() {
		d.restore()
		d.serverUp = true
		d.generation++
	})
}

// armCrash schedules a crash after delay.
func (d *crashDriver) armCrash(delay time.Duration) {
	d.armed++
	d.k.AfterFunc(delay, func() {
		d.armed--
		d.crash()
	})
}

// crashAt runs the workload to pt on pm's host, crashes it, and arms pt's
// second crash. It returns the crash time.
func (d *crashDriver) crashAt(pt Point, pm *pmem.Device) sim.Time {
	d.k.RunEvents(pt.Event)
	if pt.TornFrac > 0 {
		// Aim inside an in-flight persist: advance the clock (executing
		// any earlier events) to the chosen fraction of its window.
		if ws := pm.InflightTornWindows(d.k.Now()); len(ws) > 0 {
			w := ws[int(pt.Event)%len(ws)]
			start := w.Start
			if now := d.k.Now(); start < now {
				start = now
			}
			t := start.Add(time.Duration(pt.TornFrac * float64(w.End.Sub(start))))
			if t > d.k.Now() {
				d.k.RunUntil(t)
			}
		}
	}
	at := d.k.Now()
	d.crashFired = d.k.Fired()
	d.crash()
	if pt.SecondCrash {
		// Land a second crash shortly after the restart, while the
		// recovery scan and replay are typically still in flight.
		delta := time.Duration(pt.Event%40) * time.Microsecond
		d.armCrash(d.restart + delta)
	}
	return at
}
