package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/fleet"
	"cmpsim/internal/store"
)

// The fleet-sweep grid: 8 paper benchmarks × 8 mechanism combinations ×
// 5 pin bandwidths × 3 L2 sizes, one core and a few thousand
// instructions per point, so per-point fixed costs dominate.
const (
	fleetWorkers = 2
	fleetWarmup  = 2000 // plus seed mod 64, so each seed is its own grid
	fleetMeasure = 2000
	// resumeRounds fresh schedulers serve the grid back per timed resume
	// unit, which keeps the unit above a few hundred ms.
	resumeRounds = 5
	// fleetPoll spaces a worker's next requests when the queue is empty;
	// that happens only at the tail of a pass, after the timed window.
	fleetPoll = 5 * time.Millisecond
)

// fleetPinned is the sha256 over the grid's point keys and point
// digests at defaultSeed.
const fleetPinned = "2cc94dc170f0e2592c29d314694a72e1472e0a98137de145c9a756c9121c17a7"

type gridPoint struct {
	bench string
	mech  core.Mechanisms
	opts  core.Options
	key   string
}

// fleetGrid builds the seed's grid in a seed-shuffled submission order.
func fleetGrid(seed int64) []gridPoint {
	mechs := []core.Mechanisms{core.Base, core.CacheCompr, core.LinkCompr, core.Compression,
		core.Prefetch, core.AdaptivePf, core.PrefCompr, core.AdaptiveCompr}
	var grid []gridPoint
	for _, b := range core.Benchmarks() {
		for _, m := range mechs {
			for _, bw := range []float64{5, 10, 20, 40, 80} {
				for _, l2 := range []int{1, 2, 4} {
					o := core.Options{Cores: 1, Seeds: 1, Workers: 1,
						Warmup: fleetWarmup + uint64(seed)%64, Measure: fleetMeasure,
						BandwidthGBps: bw, L2MB: l2}
					grid = append(grid, gridPoint{b, m, o, core.PointKey(b, m, o)})
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	return grid
}

// pointDigest fingerprints a point's every field, cycles included.
func pointDigest(p core.Point) (string, error) {
	b, err := json.Marshal(p)
	if err != nil {
		return "", fmt.Errorf("encode point: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// gridDigest folds the per-point digests in key order.
func gridDigest(points map[string]string) string {
	keys := make([]string, 0, len(points))
	for k := range points {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, points[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fleetRig is one sweep deployment: the result store and journal in a
// fresh directory, the coordinator, the submitting scheduler and two
// pipe transports whose coordinator ends are already being served.
type fleetRig struct {
	dir     string
	store   *fleet.Store
	journal *fleet.Journal
	coord   *fleet.Coordinator
	sched   *core.Scheduler
	callers []fleet.Caller
	reqWs   []*io.PipeWriter // worker → coordinator request streams
	started bool
	tr      *fleetTrace // nil when untraced

	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
}

func (r *fleetRig) noteErr(err error) {
	r.mu.Lock()
	r.errs = append(r.errs, err)
	r.mu.Unlock()
}

// newFleetRig sets a deployment up. This is what setup_s times.
func newFleetRig(tr *fleetTrace) (*fleetRig, error) {
	dir, err := newWorkDir("fleet-")
	if err != nil {
		return nil, err
	}
	r := &fleetRig{dir: dir, tr: tr}
	if r.store, err = fleet.OpenStore(dir, 0); err != nil {
		return nil, err
	}
	if r.journal, err = fleet.OpenJournal(dir); err != nil {
		return nil, err
	}
	r.coord = fleet.NewCoordinator(fleet.Config{Store: r.store, Journal: r.journal})
	r.sched = core.NewScheduler(1)
	var ps core.PointStore = r.store
	if tr != nil {
		ps = &tracedStore{r.store, tr, false}
	}
	r.sched.SetPointStore(ps)
	r.sched.SetPointRunner(r.coord.RunPoint)
	for i := 0; i < fleetWorkers; i++ {
		reqR, reqW := io.Pipe()
		repR, repW := io.Pipe()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			if err := r.coord.ServePipe(reqR, repW); err != nil {
				r.noteErr(err)
			}
			repW.Close()
		}()
		var c fleet.Caller = fleet.NewPipeCaller(repR, reqW)
		if tr != nil {
			c = &tracedCaller{c, tr}
		}
		r.callers = append(r.callers, c)
		r.reqWs = append(r.reqWs, reqW)
	}
	return r, nil
}

// startWorkers runs the worker loops, each simulating through a private
// single-worker scheduler as a worker process does.
func (r *fleetRig) startWorkers() {
	r.started = true
	for i, c := range r.callers {
		ws := core.NewScheduler(1)
		run := func(b string, m core.Mechanisms, o core.Options) (core.Point, error) {
			return ws.Submit(b, m, o).Wait()
		}
		if r.tr != nil {
			run = r.tr.runner(run)
		}
		cfg := fleet.WorkerConfig{ID: fmt.Sprintf("w%d", i), Runner: run, PollInterval: fleetPoll}
		r.wg.Add(1)
		go func(c fleet.Caller, reqW *io.PipeWriter) {
			defer r.wg.Done()
			if err := fleet.RunWorker(cfg, c); err != nil {
				r.noteErr(err)
			}
			reqW.Close()
			ws.Close()
		}(c, r.reqWs[i])
	}
}

// close shuts the sweep down, waits for every goroutine of the rig and
// closes the journal and store. The directory stays for the resume pass.
func (r *fleetRig) close() error {
	r.coord.Shutdown()
	if !r.started {
		for _, w := range r.reqWs {
			w.Close()
		}
	}
	r.wg.Wait()
	r.sched.Close()
	errs := append([]error(nil), r.errs...)
	errs = append(errs, r.journal.Close(), r.store.Close())
	return errors.Join(errs...)
}

// fleetColdSetup times one set-up in a fresh process.
func fleetColdSetup() (time.Duration, error) {
	start := time.Now()
	r, err := newFleetRig(nil)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	err = r.close()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return d, err
}

// coldPass submits the whole grid, starts the workers once every point
// is queued at the coordinator, and waits for every future. It returns
// the time from the first Submit to the last resolved future.
func (r *fleetRig) coldPass(grid []gridPoint) (time.Duration, []core.Point, []error) {
	futs := make([]*core.PointFuture, len(grid))
	r.tr.beginPass()
	start := time.Now()
	for i, p := range grid {
		t := time.Now()
		futs[i] = r.sched.Submit(p.bench, p.mech, p.opts)
		r.tr.submitted(time.Since(t))
	}
	// Submit hands each point to the coordinator on its own goroutine;
	// workers that asked before the queue filled would sleep a poll.
	for r.coord.Stats().Points < len(grid) {
		time.Sleep(20 * time.Microsecond)
	}
	r.startWorkers()
	points := make([]core.Point, len(grid))
	errs := make([]error, len(grid))
	for i, f := range futs {
		points[i], errs[i] = f.Wait()
	}
	return time.Since(start), points, errs
}

// resume serves the grid back from the store through fresh schedulers,
// rounds times, each opening and scanning the store anew, and returns
// the time the rounds took. check sees each round's points after it.
func resume(dir string, grid []gridPoint, rounds int, tr *fleetTrace, check func([]core.Point, []error) error) (time.Duration, error) {
	points := make([]core.Point, len(grid))
	errs := make([]error, len(grid))
	var total time.Duration
	for round := 0; round < rounds; round++ {
		start := time.Now()
		st, err := fleet.OpenStore(dir, 0)
		if err != nil {
			return 0, err
		}
		tr.opened(time.Since(start))
		sched := core.NewScheduler(1)
		var ps core.PointStore = st
		if tr != nil {
			ps = &tracedStore{st, tr, true}
		}
		sched.SetPointStore(ps)
		futs := make([]*core.PointFuture, len(grid))
		for i, p := range grid {
			futs[i] = sched.Submit(p.bench, p.mech, p.opts)
		}
		for i, f := range futs {
			points[i], errs[i] = f.Wait()
		}
		total += time.Since(start)
		sched.Close()
		if err := st.Close(); err != nil {
			return 0, err
		}
		if n := sched.Stats().FromStore; n != uint64(len(grid)) {
			return 0, fmt.Errorf("resume served %d of %d points from the store", n, len(grid))
		}
		if err := check(points, errs); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// runFleet measures the fleet-sweep workload.
func runFleet(seed int64, budget time.Duration, trace bool, ref string) (*outcome, error) {
	setup, err := coldSetupSeconds("fleet-sweep", seed)
	if err != nil {
		return nil, err
	}
	grid := fleetGrid(seed)
	o := &outcome{}
	want := map[string]string{} // key → digest, from the warm rep
	tr := newFleetTrace(len(grid))
	var entries int

	// check compares one pass's points with the warm rep's (and fills
	// them in on the warm rep); each mismatch or error is one failure.
	check := func(pass string, points []core.Point, errs []error, warm bool) error {
		got := map[string]string{}
		for i, p := range grid {
			o.attempted++
			if errs[i] != nil {
				o.fail("%s: %s/%s %s: %v", pass, p.bench, p.mech.Label(), p.key, errs[i])
				continue
			}
			d, err := pointDigest(points[i])
			if err != nil {
				return err
			}
			got[p.key] = d
			if w, ok := want[p.key]; ok && w != d {
				o.fail("%s: point %s/%s %s digest %s differs from the first pass's %s", pass, p.bench, p.mech.Label(), p.key, d, w)
			}
		}
		if warm && len(want) == 0 {
			for k, v := range got {
				want[k] = v
			}
			pinned := fleetPinned
			if ref != "" {
				pinned = ref
			}
			if seed == defaultSeed || ref != "" {
				o.attempted++
				if g := gridDigest(got); g != pinned {
					o.fail("fleet-sweep seed %d: grid digest %s, pinned reference %s", seed, g, pinned)
				}
			}
		}
		return nil
	}

	// Cold passes. The warm pass's store is kept for the resume units;
	// a traced run alternates untraced and traced passes.
	var keep string
	var untraced, traced []sample
	n := 0
	coldPass := func(warm bool) (time.Duration, error) {
		isTraced := trace && !warm && n%2 == 1
		if !warm {
			n++
		}
		var t *fleetTrace
		if isTraced {
			t = tr
		}
		rig, err := newFleetRig(t)
		if err != nil {
			return 0, err
		}
		d, points, errs := rig.coldPass(grid)
		if isTraced {
			es, err := journalEntries(rig.dir)
			if err != nil {
				return 0, err
			}
			entries = es
			tr.requeues += rig.coord.Stats().Requeues
			tr.passes++
		}
		if err := rig.close(); err != nil {
			return 0, err
		}
		if err := check("cold pass", points, errs, warm); err != nil {
			return 0, err
		}
		switch {
		case warm:
			keep = rig.dir
			return d, nil
		case isTraced:
			traced = append(traced, sample{d: d})
		default:
			untraced = append(untraced, sample{d: d})
		}
		return d, os.RemoveAll(rig.dir)
	}
	minReps := 3
	if trace {
		minReps = 4
	}
	cold, err := repeat(budget*3/4, minReps, fleetWorkers, coldPass)
	if keep != "" {
		defer os.RemoveAll(keep)
	}
	if err != nil {
		return nil, err
	}

	// Resume units: fresh schedulers serve the kept store back.
	var resumeTrace *fleetTrace
	if trace {
		resumeTrace = tr
	}
	res, err := repeat(budget/4, 3, 1, func(bool) (time.Duration, error) {
		return resume(keep, grid, resumeRounds, resumeTrace, func(points []core.Point, errs []error) error {
			return check("resume pass", points, errs, false)
		})
	})
	if err != nil {
		return nil, err
	}

	points := float64(len(grid))
	if trace {
		tr.report(o, points/fastest(untraced).Seconds(), points/fastest(traced).Seconds(), float64(entries)/points)
		return o, nil
	}
	instr := 0.0
	for _, p := range grid {
		instr += float64(p.opts.Cores) * float64(p.opts.Warmup+p.opts.Measure)
	}
	med, medRes := medianScaled(cold), medianScaled(res)
	describe("cold passes", cold)
	describe("resume units", res)
	fmt.Printf("# %d cold passes of %d points (%.0f instructions): fastest %v as measured, median %v calibrated\n",
		len(cold), len(grid), instr, fastest(cold), med)
	fmt.Printf("# %d resume units of %d rounds: fastest %v as measured, median %v calibrated\n",
		len(res), resumeRounds, fastest(res), medRes)
	o.add("sim_ns_per_instr", float64(med.Nanoseconds())/instr, "ns")
	o.add("points_per_s", points/med.Seconds(), "1/s")
	o.add("resume_points_per_s", resumeRounds*points/medRes.Seconds(), "1/s")
	o.add("setup_s", setup, "s")
	o.add("peak_rss_mb", medianRSS(cold), "MB")
	return o, nil
}

// journalEntries counts the intact events in a sweep's journal.
func journalEntries(dir string) (int, error) {
	j, err := store.OpenJournal(filepath.Join(dir, fleet.JournalFile))
	if err != nil {
		return 0, err
	}
	n := len(j.Entries())
	return n, j.Close()
}
