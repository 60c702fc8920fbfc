package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"cmpsim/internal/sim"
)

// TestSchedulerDeterminism is the scheduler's regression contract: the
// same study run serially (Workers: 1) and in parallel must produce
// bit-identical Points, proving the fan-out introduces no hidden shared
// state. Fresh schedulers keep the comparison honest — with a shared
// cache the second run would trivially return the first run's points.
func TestSchedulerDeterminism(t *testing.T) {
	o := tinyOptions()
	benches := []string{"zeus", "mgrid"}

	serial := NewScheduler(1)
	defer serial.Close()
	parallel := NewScheduler(4)
	defer parallel.Close()

	for _, b := range benches {
		for _, m := range []Mechanisms{Base, Compression, AdaptiveCompr} {
			ps := serial.Submit(b, m, o).MustWait()
			pp := parallel.Submit(b, m, o).MustWait()
			if !reflect.DeepEqual(ps, pp) {
				t.Fatalf("%s/%s: serial and parallel points differ\nserial:   %+v\nparallel: %+v",
					b, m.Label(), ps, pp)
			}
		}
	}

	rs := serial.PrefetchStudy(benches, o)
	rp := parallel.PrefetchStudy(benches, o)
	if !reflect.DeepEqual(rs, rp) {
		t.Fatalf("PrefetchStudy rows differ\nserial:   %+v\nparallel: %+v", rs, rp)
	}
}

func TestSchedulerCacheDedup(t *testing.T) {
	o := tinyOptions()
	s := NewScheduler(2)
	defer s.Close()

	p1 := s.Submit("zeus", Base, o).MustWait()
	p2 := s.Submit("zeus", Base, o).MustWait()
	if &p1.Runs[0] != &p2.Runs[0] {
		t.Fatal("second request did not hit the cache")
	}
	st := s.Stats()
	if st.Requests != 2 || st.Unique != 1 || st.Cached() != 1 || st.SeedRuns != uint64(o.Seeds) {
		t.Fatalf("stats = %+v", st)
	}

	// Scheduling-only and aliasing option differences share the entry.
	o2 := o
	o2.Workers = 7
	o2.PrefetcherKind = "stride"
	o2.DecompressionCycles = 99 // ignored: DecompressionSet is false
	o2.PointTimeout = time.Minute
	o2.MaxRetries = 5
	o2.RetryBackoff = time.Second
	s.Submit("zeus", Base, o2).MustWait()
	if got := s.Stats().Unique; got != 1 {
		t.Fatalf("canonicalization missed: unique = %d", got)
	}

	// Semantic differences do not collide.
	o3 := o
	o3.BandwidthGBps = 0
	s.Submit("zeus", Base, o3).MustWait()
	if got := s.Stats().Unique; got != 2 {
		t.Fatalf("distinct options shared an entry: unique = %d", got)
	}
}

func TestSchedulerErrorPoints(t *testing.T) {
	o := tinyOptions()
	s := NewScheduler(1)
	defer s.Close()

	if _, err := s.Submit("nosuch", Base, o).Wait(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	bad := o
	bad.Seeds = 0
	if _, err := s.Submit("zeus", Base, bad).Wait(); err == nil {
		t.Fatal("zero seeds accepted")
	}
	if got := s.Stats().SeedRuns; got != 0 {
		t.Fatalf("invalid submissions ran %d simulations", got)
	}
}

// TestStudiesShareBasePoints checks the cross-study memoization the
// scheduler exists for: AdaptiveStudy reuses the base/prefetch/adaptive
// points PrefetchStudy already simulated.
func TestStudiesShareBasePoints(t *testing.T) {
	o := tinyOptions()
	s := NewScheduler(0)
	defer s.Close()
	benches := []string{"zeus"}

	s.PrefetchStudy(benches, o) // base, prefetch, adaptive-pf
	u := s.Stats().Unique
	if u != 3 {
		t.Fatalf("PrefetchStudy simulated %d points, want 3", u)
	}
	s.AdaptiveStudy(benches, o) // adds only pf+compr and adaptive+compr
	if got := s.Stats().Unique - u; got != 2 {
		t.Fatalf("AdaptiveStudy simulated %d new points, want 2", got)
	}
}

// TestSchedulerObserver checks the progress-event contract: one
// PointStart and one PointFinish per unique point, PointCached for
// repeat submissions, an immediate PointFinish with the error for
// invalid ones, and a non-nil Point with positive wall-clock on
// successful finishes.
func TestSchedulerObserver(t *testing.T) {
	o := tinyOptions()
	s := NewScheduler(2)
	defer s.Close()

	var mu sync.Mutex
	var events []PointEvent
	finished := make(chan struct{}, 8)
	s.SetObserver(func(ev PointEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
		if ev.Kind == PointFinish {
			finished <- struct{}{}
		}
	})

	s.Submit("zeus", Base, o).MustWait()
	s.Submit("zeus", Base, o).MustWait() // cached
	s.Submit("zeus", Prefetch, o).MustWait()
	if _, err := s.Submit("nosuch", Base, o).Wait(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// PointFinish fires after the future resolves, so Wait returning
	// does not mean the event has been delivered yet.
	for i := 0; i < 3; i++ {
		select {
		case <-finished:
		case <-time.After(time.Minute):
			t.Fatalf("only %d of 3 finish events delivered", i)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	counts := make(map[PointEventKind]int)
	for _, ev := range events {
		counts[ev.Kind]++
		switch ev.Kind {
		case PointFinish:
			if ev.Err == nil {
				if ev.Point == nil {
					t.Errorf("%s/%s: finish event without point", ev.Benchmark, ev.Mechanisms.Label())
				}
				if ev.Wall <= 0 {
					t.Errorf("%s/%s: finish event with wall %v", ev.Benchmark, ev.Mechanisms.Label(), ev.Wall)
				}
			} else if ev.Point != nil {
				t.Errorf("%s: failed finish carries a point", ev.Benchmark)
			}
		case PointStart, PointCached:
			if ev.Seeds != o.Seeds {
				t.Errorf("%v event reports %d seeds, want %d", ev.Kind, ev.Seeds, o.Seeds)
			}
		}
	}
	// zeus/base + zeus/pf started and finished; nosuch finished with an
	// error but never started; the repeat submission was served cached.
	if counts[PointStart] != 2 || counts[PointFinish] != 3 || counts[PointCached] != 1 {
		t.Fatalf("event counts start/finish/cached = %d/%d/%d, want 2/3/1",
			counts[PointStart], counts[PointFinish], counts[PointCached])
	}
}

// TestSchedulerTelemetryPlumbing: Options.TelemetryInterval must reach
// the per-seed sim configs (every run carries a timeline) and its zero
// value must leave timelines off. The two variants are distinct cache
// entries — the interval changes the result payload.
func TestSchedulerTelemetryPlumbing(t *testing.T) {
	o := tinyOptions()
	s := NewScheduler(2)
	defer s.Close()

	plain := s.Submit("zeus", Base, o).MustWait()
	for i := range plain.Runs {
		if plain.Runs[i].Timeline != nil {
			t.Fatalf("seed %d has a timeline with telemetry disabled", i)
		}
	}

	o.TelemetryInterval = 30_000
	traced := s.Submit("zeus", Base, o).MustWait()
	if s.Stats().Unique != 2 {
		t.Fatalf("telemetry variant shared the plain cache entry: %+v", s.Stats())
	}
	for i := range traced.Runs {
		if len(traced.Runs[i].Timeline) == 0 {
			t.Fatalf("seed %d missing timeline samples", i)
		}
	}
	// Identical non-timeline metrics: sampling must not perturb the run.
	a, b := plain.Runs[0], traced.Runs[0]
	b.Timeline = nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("telemetry perturbed the simulation:\n%+v\nvs\n%+v", a, b)
	}
}

// blockingStore is a PointStore whose Add parks until released, so a
// test can observe what the scheduler lets escape while a point is
// still being persisted.
type blockingStore struct {
	adding  chan PointRecord // receives each record as Add starts
	release chan struct{}    // closed to let every Add return
}

func (b *blockingStore) Lookup(string, Mechanisms, Options) (Point, bool) { return Point{}, false }

func (b *blockingStore) Add(rec PointRecord) error {
	b.adding <- rec
	<-b.release
	return nil
}

// TestPersistBeforeResolve pins the durability order of a finished
// point on both execution paths: while the store's Add is still in
// flight, Wait must not have returned and PointFinish must not have
// fired; both follow once Add returns.
func TestPersistBeforeResolve(t *testing.T) {
	o := Options{Cores: 1, Seeds: 1, Warmup: 2000, Measure: 2000, BandwidthGBps: 10, L2MB: 1}
	for _, remote := range []bool{false, true} {
		name := "local"
		if remote {
			name = "remote"
		}
		t.Run(name, func(t *testing.T) {
			bs := &blockingStore{adding: make(chan PointRecord, 1), release: make(chan struct{})}
			var releaseOnce sync.Once
			release := func() { releaseOnce.Do(func() { close(bs.release) }) }
			t.Cleanup(release) // never strand a worker in Add on failure
			s := NewScheduler(1)
			t.Cleanup(s.Close)
			s.SetPointStore(bs)
			finished := make(chan struct{})
			s.SetObserver(func(ev PointEvent) {
				if ev.Kind == PointFinish {
					close(finished)
				}
			})
			if remote {
				s.SetPointRunner(func(bench string, m Mechanisms, o Options) (Point, error) {
					return Point{Benchmark: bench, Mechanisms: m, Runs: make([]sim.Metrics, o.Seeds)}, nil
				})
			}
			f := s.Submit("zeus", Base, o)
			resolved := make(chan struct{})
			go func() {
				f.Wait()
				close(resolved)
			}()

			select {
			case <-bs.adding:
			case <-resolved:
				t.Fatal("future resolved before the point reached the store")
			case <-time.After(time.Minute):
				t.Fatal("point never reached the store")
			}
			select {
			case <-resolved:
				t.Fatal("future resolved while the store Add was still in flight")
			case <-finished:
				t.Fatal("PointFinish fired while the store Add was still in flight")
			case <-time.After(50 * time.Millisecond):
			}

			release()
			for _, c := range []chan struct{}{resolved, finished} {
				select {
				case <-c:
				case <-time.After(time.Minute):
					t.Fatal("point never resolved after the store Add returned")
				}
			}
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
