package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"cmpsim/internal/coherence"
	"cmpsim/internal/core"
	"cmpsim/internal/fleet"
	"cmpsim/internal/sim"
)

// kernelSpec is one single-run kernel workload.
type kernelSpec struct {
	name      string
	bench     string
	cacheComp bool
	linkComp  bool
	adaptive  bool
	pfKind    string // prefetch registry name ("" is the paper's stride engine)
	// pinned is the sha256 of the rep's sim.Metrics (JSON) at defaultSeed.
	pinned string
}

// Run length per core. Each repetition simulates 8 × 800k instructions,
// a few hundred ms of host time.
const (
	kernelWarmup  = 400_000
	kernelMeasure = 400_000
	// kernelResumeRounds fresh schedulers serve the kernel's one point
	// back per timed resume unit.
	kernelResumeRounds = 3000
)

var (
	// zeusSpec is the paper's proposed system (Table 5 / Fig 9): FPC
	// cache and link compression with adaptive stride prefetching.
	zeusSpec = kernelSpec{
		name: "kernel-zeus", bench: "zeus", cacheComp: true, linkComp: true, adaptive: true,
		pinned: "45c0527aa46e8e5da995e92408cdb25d962abf6b41454c7a44bb43bf5b578f79",
	}
	// ptrchaseSpec runs data-dependent addresses through the markov
	// prefetcher, bypassing the stride engine, the adaptive counter and
	// both compression paths.
	ptrchaseSpec = kernelSpec{
		name: "kernel-ptrchase", bench: "ptrchase", pfKind: "markov",
		pinned: "450ab472c7ede36eb320221694bf5dad0d9aca5388b6fabba56a50d016a5c53c",
	}
	kernelSpecs = map[string]kernelSpec{zeusSpec.name: zeusSpec, ptrchaseSpec.name: ptrchaseSpec}
)

// config builds the workload's sim.Config for a seed. The audit tier is
// forced off so the environment cannot change what is measured.
func (k kernelSpec) config(seed int64) sim.Config {
	cfg := sim.NewConfig(k.bench).WithMechanisms(k.cacheComp, k.linkComp, true, k.adaptive)
	cfg.Seed = seed
	cfg.WarmupInstr = kernelWarmup
	cfg.MeasureInstr = kernelMeasure
	cfg.PrefetcherKind = k.pfKind
	cfg.CheckLevel = 0 // audit.Off
	return cfg
}

// instructions is the simulated work of one repetition, warmup included.
func instructions(cfg sim.Config) float64 {
	return float64(cfg.Cores) * float64(cfg.WarmupInstr+cfg.MeasureInstr)
}

// kernelColdSetup times the first sim.NewSystem of this process, which
// includes the data model's knob calibration.
func kernelColdSetup(k kernelSpec, seed int64) (time.Duration, error) {
	cfg := k.config(seed)
	start := time.Now()
	s, err := sim.NewSystem(cfg)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	s.Close()
	return d, nil
}

// metricsDigest fingerprints every field of a run's Metrics, cycles
// included; encoding/json writes each float in its shortest exact form.
func metricsDigest(m *sim.Metrics) (string, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("encode metrics: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// runKernel measures one kernel workload: cold set-up in child
// processes, then the median calibrated time of the timed repetitions
// (a traced run uses the fastest as measured, like its layers). Every rep's
// Metrics must equal the warm rep's, and at defaultSeed the pinned
// digest (or ref, when given).
func runKernel(k kernelSpec, seed int64, budget time.Duration, trace bool, ref string) (*outcome, error) {
	setup, err := coldSetupSeconds(k.name, seed)
	if err != nil {
		return nil, err
	}
	cfg := k.config(seed)
	o := &outcome{}
	var want string
	var model sim.Metrics
	check := func(m *sim.Metrics, warm bool) error {
		got, err := metricsDigest(m)
		if err != nil {
			return err
		}
		if warm {
			want, model = got, *m
			pinned := k.pinned
			if ref != "" {
				pinned = ref
			}
			if seed == defaultSeed || ref != "" {
				o.attempted++
				if got != pinned {
					o.fail("%s seed %d: metrics digest %s, pinned reference %s", k.name, seed, got, pinned)
				}
			}
			return nil
		}
		o.attempted++
		if got != want {
			o.fail("%s seed %d: rep metrics digest %s differs from the first rep's %s", k.name, seed, got, want)
		}
		return nil
	}
	rep := func(warm bool) (time.Duration, error) {
		start := time.Now()
		m, err := sim.Run(cfg)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		return d, check(&m, warm)
	}

	if !trace {
		ss, err := repeat(budget*3/4, 3, 1, rep)
		if err != nil {
			return nil, err
		}
		resumePps, err := kernelResume(k, budget/4, o)
		if err != nil {
			return nil, err
		}
		med := medianScaled(ss)
		describe("reps", ss)
		fmt.Printf("# %d timed reps of %.0f instructions; fastest %v as measured, median %v calibrated\n",
			len(ss), instructions(cfg), fastest(ss), med)
		o.add("sim_ns_per_instr", float64(med.Nanoseconds())/instructions(cfg), "ns")
		o.add("points_per_s", 1/med.Seconds(), "1/s")
		o.add("resume_points_per_s", resumePps, "1/s")
		o.add("setup_s", setup, "s")
		o.add("peak_rss_mb", medianRSS(ss), "MB")
		return o, nil
	}

	// Traced run: alternate untraced reps with reps that also read the
	// allocator's counters, so the tracing overhead is measured on the
	// same host moments; then time each layer by replay.
	var untraced, traced []sample
	var allocBytes, gcCycles float64
	i := 0
	_, err = repeat(budget/2, 4, 1, func(warm bool) (time.Duration, error) {
		if warm {
			return rep(true)
		}
		i++
		if i%2 == 1 {
			d, err := rep(false)
			untraced = append(untraced, sample{d: d})
			return d, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := rep(false)
		runtime.ReadMemStats(&after)
		traced = append(traced, sample{d: d})
		allocBytes = float64(after.TotalAlloc - before.TotalAlloc)
		gcCycles = float64(after.NumGC - before.NumGC)
		return d, err
	})
	if err != nil {
		return nil, err
	}
	whole := float64(fastest(untraced).Nanoseconds()) / instructions(cfg)
	tracedNs := float64(fastest(traced).Nanoseconds()) / instructions(cfg)
	layers, err := traceKernelLayers(k, cfg)
	if err != nil {
		return nil, err
	}
	reportLayers(o, whole, tracedNs, layers)
	o.add("host.alloc_bytes_per_instr", allocBytes/instructions(cfg), "B")
	o.add("host.gc_cycles", gcCycles, "count")
	addModel(o, &model)
	return o, nil
}

// point is the kernel run as a core data point: one seed of the same
// configuration.
func (k kernelSpec) point() gridPoint {
	m := core.Mechanisms{CacheCompression: k.cacheComp, LinkCompression: k.linkComp, Prefetching: true, Adaptive: k.adaptive}
	o := core.Options{Cores: 8, Seeds: 1, Workers: 1, Warmup: kernelWarmup, Measure: kernelMeasure,
		BandwidthGBps: 20, L2MB: 4, PrefetcherKind: k.pfKind}
	return gridPoint{k.bench, m, o, core.PointKey(k.bench, m, o)}
}

// kernelResume files the kernel's point in a fresh result store, then
// times fresh schedulers serving it back (kernelResumeRounds per timed
// unit) and returns points per second at the median calibrated unit time. Every served
// point must equal the simulated one.
func kernelResume(k kernelSpec, budget time.Duration, o *outcome) (float64, error) {
	dir, err := newWorkDir("kernel-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	grid := []gridPoint{k.point()}
	sched := core.NewScheduler(1)
	p, err := sched.Submit(grid[0].bench, grid[0].mech, grid[0].opts).Wait()
	sched.Close()
	if err != nil {
		return 0, err
	}
	want, err := pointDigest(p)
	if err != nil {
		return 0, err
	}
	st, err := fleet.OpenStore(dir, 0)
	if err != nil {
		return 0, err
	}
	if err := st.Add(core.NewPointRecord(grid[0].bench, grid[0].mech, grid[0].opts, p)); err != nil {
		return 0, err
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	check := func(points []core.Point, errs []error) error {
		o.attempted++
		if errs[0] != nil {
			o.fail("%s resume: %v", k.name, errs[0])
			return nil
		}
		got, err := pointDigest(points[0])
		if err != nil {
			return err
		}
		if got != want {
			o.fail("%s resume: served point digest %s differs from the simulated %s", k.name, got, want)
		}
		return nil
	}
	ss, err := repeat(budget, 3, 1, func(bool) (time.Duration, error) {
		return resume(dir, grid, kernelResumeRounds, nil, check)
	})
	if err != nil {
		return 0, err
	}
	return kernelResumeRounds / medianScaled(ss).Seconds(), nil
}

// addModel reports the deterministic model fingerprints of a rep: a
// simulator-speed change must leave every one of them identical.
func addModel(o *outcome, m *sim.Metrics) {
	perFetch := func(cycles float64) float64 {
		if m.MemFetches == 0 {
			return 0
		}
		return cycles / float64(m.MemFetches)
	}
	l2 := m.Engines[coherence.PfL2]
	o.add("model.ipc", m.IPC, "instr/cycle")
	o.add("model.l2_mpki", m.L2MissesPerKI, "1/kinstr")
	o.add("model.pf_l2_accuracy_pct", 100*l2.Accuracy(), "%")
	o.add("model.compr_ratio", m.CompressionRatio, "ratio")
	o.add("model.link_util_pct", 100*m.LinkUtilization, "%")
	o.add("model.link_queue_cycles_per_fetch", perFetch(m.LinkQueueDelay), "cycles")
	o.add("model.dram_queue_cycles_per_fetch", perFetch(m.DRAMQueueDelay), "cycles")
}

// reportLayers prints the reconciliation of the per-layer costs against
// the untraced whole-run figure and adds each layer's metrics.
func reportLayers(o *outcome, whole, traced float64, layers []layerCost) {
	fmt.Printf("# reconciliation against untraced sim_ns_per_instr = %.3f ns (fastest rep)\n", whole)
	fmt.Printf("# %-28s %14s %14s %12s %10s\n", "layer", "ns/call", "calls/instr", "ns/instr", "share")
	sum := 0.0
	for _, l := range layers {
		if l.skip != "" {
			fmt.Printf("# %-28s skipped: %s\n", l.name, l.skip)
			continue
		}
		sum += l.nsPerInstr
		fmt.Printf("# %-28s %14.3f %14.6f %12.3f %9.2f%%\n", l.name, l.perCall, l.callsPerInstr, l.nsPerInstr, 100*l.nsPerInstr/whole)
	}
	residual := whole - sum
	fmt.Printf("# %-28s %14s %14s %12.3f %9.2f%%\n", "unattributed (residual)", "", "", residual, 100*residual/whole)
	fmt.Printf("# %-28s %14s %14s %12.3f %9.2f%%\n", "total", "", "", whole, 100.0)
	fmt.Println("# the residual holds the step loop itself (core selection, cpu.Core issue, the in-flight map,")
	fmt.Println("# adaptive counters) and the host-cache misses layers suffer in the full run but not replayed alone.")
	overhead := traced - whole
	fmt.Printf("# tracing overhead: traced %.3f - untraced %.3f = %.3f ns/instr (%.2f%%)\n", traced, whole, overhead, 100*overhead/whole)
	fmt.Println("# interaction: nothing contends in a kernel run, so a faster layer saves at most its share above.")

	for _, l := range layers {
		o.add(l.metric, l.metricValue, l.metricUnit)
		o.add(l.name+".share_pct", 100*l.nsPerInstr/whole, "%")
	}
	o.add("kernel.unattributed_ns_per_instr", residual, "ns")
	o.add("kernel.untraced_ns_per_instr", whole, "ns")
	o.add("kernel.trace_overhead_pct", 100*overhead/whole, "%")
}
