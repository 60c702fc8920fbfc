package main

import (
	"fmt"
	"sync"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/fleet"
)

// span accumulates the calls through one seam.
type span struct {
	n     int
	total time.Duration
}

func (s *span) add(d time.Duration) { s.n++; s.total += d }

// mean returns the mean call time in the given unit (0 for no calls).
func (s span) mean(unit time.Duration) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / float64(unit)
}

// fleetTrace times the fleet's public seams: Scheduler.Submit, the
// worker's fleet.Caller and Runner, and the scheduler-side PointStore.
// Its methods are safe on a nil receiver, which records nothing.
type fleetTrace struct {
	points int // per pass

	mu       sync.Mutex
	calls    map[string]*span // by request type
	submit   span
	point    span
	add      span
	lookup   span
	open     span
	leases   int // lease replies in the current pass
	waits    int // wait replies while points were still unleased
	requeues int
	passes   int
}

func newFleetTrace(points int) *fleetTrace {
	t := &fleetTrace{points: points, calls: map[string]*span{}}
	for _, k := range []string{fleet.MsgHello, fleet.MsgNext, fleet.MsgHeartbeat, fleet.MsgResult} {
		t.calls[k] = &span{}
	}
	return t
}

func (t *fleetTrace) submitted(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.submit.add(d)
	t.mu.Unlock()
}

// beginPass marks the start of a cold pass.
func (t *fleetTrace) beginPass() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.leases = 0
	t.mu.Unlock()
}

func (t *fleetTrace) opened(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.open.add(d)
	t.mu.Unlock()
}

// runner wraps a worker's Runner to time each simulated point.
func (t *fleetTrace) runner(run fleet.Runner) fleet.Runner {
	return func(b string, m core.Mechanisms, o core.Options) (core.Point, error) {
		start := time.Now()
		p, err := run(b, m, o)
		d := time.Since(start)
		t.mu.Lock()
		t.point.add(d)
		t.mu.Unlock()
		return p, err
	}
}

// tracedCaller times each protocol exchange by request type. A wait
// reply before every point of the pass is leased means a worker would
// sleep a poll interval with work still to hand out.
type tracedCaller struct {
	fleet.Caller
	t *fleetTrace
}

func (c *tracedCaller) Call(m fleet.Message) (fleet.Message, error) {
	start := time.Now()
	resp, err := c.Caller.Call(m)
	d := time.Since(start)
	c.t.mu.Lock()
	if s, ok := c.t.calls[m.Type]; ok {
		s.add(d)
	}
	switch resp.Type {
	case fleet.MsgLease:
		c.t.leases++
	case fleet.MsgWait:
		if c.t.leases < c.t.points {
			c.t.waits++
		}
	}
	c.t.mu.Unlock()
	return resp, err
}

// tracedStore times the scheduler-side PointStore: adds in the cold
// pass, lookups in the resume pass.
type tracedStore struct {
	core.PointStore
	t      *fleetTrace
	resume bool
}

func (s *tracedStore) Lookup(b string, m core.Mechanisms, o core.Options) (core.Point, bool) {
	start := time.Now()
	p, ok := s.PointStore.Lookup(b, m, o)
	d := time.Since(start)
	if s.resume {
		s.t.mu.Lock()
		s.t.lookup.add(d)
		s.t.mu.Unlock()
	}
	return p, ok
}

func (s *tracedStore) Add(rec core.PointRecord) error {
	start := time.Now()
	err := s.PointStore.Add(rec)
	d := time.Since(start)
	s.t.mu.Lock()
	s.t.add.add(d)
	s.t.mu.Unlock()
	return err
}

// report prints where a traced pass's time went and adds the fleet's
// per-layer metrics.
func (t *fleetTrace) report(o *outcome, untracedPps, tracedPps, entriesPerPoint float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	passes := float64(max(t.passes, 1))
	pass := float64(t.points) / tracedPps // seconds per traced pass (fastest)
	fmt.Printf("# traced cold passes: %d; fastest %.3f s for %d points\n", t.passes, pass, t.points)
	fmt.Printf("# %-24s %10s %12s %12s\n", "seam", "calls/pass", "mean", "s/pass")
	row := func(name string, s span, unit time.Duration, uname string) {
		fmt.Printf("# %-24s %10.0f %9.3f %-2s %12.4f\n", name, float64(s.n)/passes, s.mean(unit), uname, s.total.Seconds()/passes)
	}
	row("core.submit", t.submit, time.Microsecond, "us")
	for _, k := range []string{fleet.MsgHello, fleet.MsgNext, fleet.MsgHeartbeat, fleet.MsgResult} {
		row("fleet.call."+k, *t.calls[k], time.Microsecond, "us")
	}
	row("worker.point", t.point, time.Millisecond, "ms")
	row("store.add", t.add, time.Microsecond, "us")
	busy := t.point.total.Seconds() / passes / fleetWorkers
	fmt.Printf("# workers spent %.1f%% of a pass's worker time simulating (%.3f s each of %.3f s)\n", 100*busy/pass, busy, pass)
	fmt.Printf("# tracing overhead: points_per_s untraced %.1f, traced %.1f (%.2f%%)\n",
		untracedPps, tracedPps, 100*(untracedPps-tracedPps)/untracedPps)
	fmt.Println("# interaction: 2 workers share the CPUs with GC and the coordinator, so an allocation cut can save more than its own share.")

	o.add("core.submit_us", t.submit.mean(time.Microsecond), "us")
	for _, k := range []string{fleet.MsgHello, fleet.MsgNext, fleet.MsgHeartbeat, fleet.MsgResult} {
		o.add("fleet.call_us."+k, t.calls[k].mean(time.Microsecond), "us")
		o.add("fleet.calls."+k, float64(t.calls[k].n)/passes, "count")
	}
	o.add("fleet.wait_replies", float64(t.waits), "count")
	o.add("fleet.requeues", float64(t.requeues), "count")
	o.add("worker.point_ms", t.point.mean(time.Millisecond), "ms")
	o.add("store.add_us", t.add.mean(time.Microsecond), "us")
	o.add("journal.entries_per_point", entriesPerPoint, "count")
	o.add("store.open_ms", t.open.mean(time.Millisecond), "ms")
	o.add("store.lookup_us", t.lookup.mean(time.Microsecond), "us")
	o.add("fleet.untraced_points_per_s", untracedPps, "1/s")
	o.add("fleet.trace_overhead_pct", 100*(untracedPps-tracedPps)/untracedPps, "%")
}
