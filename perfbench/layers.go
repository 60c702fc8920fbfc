package main

// Per-layer costs of a kernel run, timed from outside the simulator.
//
// A functional replay drives one reference stream from workload.NewSource
// through the layers' public APIs in the order sim's step loop calls
// them (L1 fast hit, coherent access, prefetch engines and their fills,
// line sizing, L2 banks, memory), recording each layer's calls. Each
// layer's recorded calls are then replayed alone on fresh state and
// timed as a whole, which gives a cost per call. A layer's share of the
// whole run is that cost times the real run's call count, read from the
// sim.Metrics of a run whose window covers warmup and measurement.
// Whatever the layers do not account for is the unattributed residual.

import (
	"fmt"
	"math/rand"
	"time"

	"cmpsim/internal/cache"
	"cmpsim/internal/codec"
	"cmpsim/internal/coherence"
	"cmpsim/internal/memory"
	"cmpsim/internal/prefetch"
	"cmpsim/internal/sim"
	"cmpsim/internal/timing"
	"cmpsim/internal/workload"
)

// layerCost is one layer's measured cost and its share of a real run.
type layerCost struct {
	name          string // module.layer, the prefix of its share metric
	metric        string // the per-call metric
	metricValue   float64
	metricUnit    string
	perCall       float64 // ns per call
	callsPerInstr float64 // calls per simulated instruction in the real run
	nsPerInstr    float64 // perCall × callsPerInstr
	skip          string  // why the layer is not measured on this workload
}

// Recorded calls. Ops are kept compact: a run records about a million
// coherence and engine calls.
const (
	opFast   uint8 = iota // coherence: FastHit that succeeded
	opAccess              // coherence: FastHit that failed, then Access
	opPfL1                // coherence: PrefetchL1
	opPfL2                // coherence: PrefetchL2

	opOnAccess // engine
	opOnMiss
	opTrigger

	opDirty // data model
	opSize

	opFetch // memory
	opWriteback
)

type cohOp struct {
	addr cache.BlockAddr
	core uint8
	kind coherence.Kind
	op   uint8
	src  coherence.PfSource
}

type engOp struct {
	addr   cache.BlockAddr
	stride int64
	eng    uint16
	op     uint8
	cap    int16
}

type dataOp struct {
	addr cache.BlockAddr
	op   uint8
}

type memOp struct {
	addr cache.BlockAddr
	now  timing.Tick
	segs uint8
	op   uint8
}

type bankOp struct {
	addr cache.BlockAddr
	now  timing.Tick
}

// recording is everything the functional replay captured.
type recording struct {
	refsPerCore []int
	coh         []cohOp
	cohSizes    []uint8 // Size results coherence asked for, in call order
	eng         []engOp
	data        []dataOp
	mem         []memOp
	bank        []bankOp
}

// kernelRig is the functional replay's state, mirroring sim's System.
type kernelRig struct {
	cfg   sim.Config
	prof  workload.Profile
	data  *workload.DataModel
	h     *coherence.Hierarchy
	engs  []prefetch.Prefetcher // per core: L1I, L1D, L2
	adL1I []*prefetch.Adaptive
	adL1D []*prefetch.Adaptive
	adL2  *prefetch.Adaptive
	rec   *recording
}

func newL2(cfg sim.Config) cache.L2 {
	if cfg.CacheCompression {
		return cache.NewCompressedL2(cfg.L2Bytes, cfg.L2TagsPerSet, cfg.L2SegsPerSet)
	}
	victims := 0
	if cfg.AdaptivePrefetch {
		victims = cfg.UncompressedVictimTags
	}
	return cache.NewUncompressedL2(cfg.L2Bytes, cfg.L2Ways, victims)
}

func newHierarchy(cfg sim.Config, size coherence.SizeFunc) *coherence.Hierarchy {
	return coherence.New(coherence.Config{
		Cores: cfg.Cores, L1Bytes: cfg.L1Bytes, L1Ways: cfg.L1Ways, L2: newL2(cfg), Size: size,
	})
}

// newEngines builds the per-core L1I, L1D and L2 engines as sim does.
func newEngines(cfg sim.Config) []prefetch.Prefetcher {
	newEngine := prefetch.MustByName(cfg.PrefetcherKind)
	var engs []prefetch.Prefetcher
	for c := 0; c < cfg.Cores; c++ {
		engs = append(engs, newEngine(prefetch.L1Config()), newEngine(prefetch.L1Config()), newEngine(prefetch.L2Config()))
	}
	return engs
}

// record runs refs references of cfg's workload through the layers,
// always stepping the core that has retired the fewest instructions,
// and records every layer call.
func record(cfg sim.Config, refs int) (*recording, error) {
	prof, err := workload.ByName(cfg.Benchmark)
	if err != nil {
		return nil, err
	}
	cdc, err := codec.ByName(cfg.Codec)
	if err != nil {
		return nil, err
	}
	r := &kernelRig{cfg: cfg, prof: prof, data: workload.NewDataModelCodec(prof, cfg.Seed, cdc), rec: &recording{}}
	r.h = newHierarchy(cfg, func(a cache.BlockAddr) uint8 {
		s := r.size(a)
		r.rec.cohSizes = append(r.rec.cohSizes, s)
		return s
	})
	r.engs = newEngines(cfg)
	for c := 0; c < cfg.Cores; c++ {
		r.adL1I = append(r.adL1I, prefetch.NewAdaptive(prefetch.L1Config().StartupDepth))
		r.adL1D = append(r.adL1D, prefetch.NewAdaptive(prefetch.L1Config().StartupDepth))
	}
	r.adL2 = prefetch.NewAdaptive(prefetch.L2Config().StartupDepth)

	srcs := make([]workload.RefSource, cfg.Cores)
	batch := make([][]workload.Ref, cfg.Cores)
	pos := make([]int, cfg.Cores)
	for c := range srcs {
		if srcs[c], err = workload.NewSource(cfg.RefSource, prof, c, cfg.Seed); err != nil {
			return nil, err
		}
		batch[c] = make([]workload.Ref, 256)
		pos[c] = len(batch[c])
	}
	r.rec.refsPerCore = make([]int, cfg.Cores)
	retired := make([]uint64, cfg.Cores)
	dirtyRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5EED))
	for i := 0; i < refs; i++ {
		c := 0
		for j := range retired {
			if retired[j] < retired[c] {
				c = j
			}
		}
		if pos[c] == len(batch[c]) {
			srcs[c].NextN(batch[c])
			pos[c] = 0
		}
		ref := batch[c][pos[c]]
		pos[c]++
		r.rec.refsPerCore[c]++
		retired[c] += uint64(ref.Gap)
		r.step(c, ref, timing.FromIntCycles(int64(retired[c])), dirtyRng)
	}
	return r.rec, nil
}

// size prices a line through the data model and records the call.
func (r *kernelRig) size(a cache.BlockAddr) uint8 {
	r.rec.data = append(r.rec.data, dataOp{a, opSize})
	return r.data.SizeOf(a)
}

// engineCall records one engine call and makes it, with the adaptive
// cap the engine would read.
func (r *kernelRig) engineCall(e int, op uint8, a cache.BlockAddr, stride int64) []cache.BlockAddr {
	capv := -1
	if r.cfg.AdaptivePrefetch {
		capv = r.capOf(e)
	}
	r.rec.eng = append(r.rec.eng, engOp{addr: a, stride: stride, eng: uint16(e), op: op, cap: int16(capv)})
	switch op {
	case opOnAccess:
		return r.engs[e].OnAccess(a)
	case opOnMiss:
		return r.engs[e].OnMiss(a)
	default:
		return r.engs[e].TriggerStream(a, stride)
	}
}

func (r *kernelRig) capOf(e int) int {
	c := e / 3
	switch e % 3 {
	case 0:
		return r.adL1I[c].Cap()
	case 1:
		return r.adL1D[c].Cap()
	}
	return r.adL2.Cap()
}

func (r *kernelRig) writebacks(now timing.Tick, wbs []cache.BlockAddr) {
	for _, wb := range wbs {
		segs := r.size(wb)
		r.rec.mem = append(r.rec.mem, memOp{wb, now, segs, opWriteback})
	}
}

// step mirrors sim's step loop for one reference, without its timing.
func (r *kernelRig) step(c int, ref workload.Ref, now timing.Tick, dirtyRng *rand.Rand) {
	kind, addr := ref.Kind, ref.Addr
	if kind == coherence.Store && dirtyRng.Float64() < r.prof.StoreDirtyProb {
		r.data.Dirty(addr)
		r.rec.data = append(r.rec.data, dataOp{addr, opDirty})
	}
	e, src, ad := 3*c+1, coherence.PfL1D, r.adL1D[c]
	if kind == coherence.IFetch {
		e, src, ad = 3*c, coherence.PfL1I, r.adL1I[c]
	}
	if r.h.FastHit(c, kind, addr) {
		r.rec.coh = append(r.rec.coh, cohOp{addr, uint8(c), kind, opFast, 0})
		if r.cfg.Prefetching {
			r.issueL1(c, kind, src, ad, now, r.engineCall(e, opOnAccess, addr, 0))
		}
		return
	}
	r.rec.coh = append(r.rec.coh, cohOp{addr, uint8(c), kind, opAccess, 0})
	res := r.h.Access(c, kind, addr)
	if res.L1PrefetchHit {
		ad.Useful()
	}
	if res.L2PrefetchHit {
		r.adL2.Useful()
	}
	for i := 0; i < res.L1UselessEvict; i++ {
		ad.Useless()
	}
	for i := 0; i < res.L2UselessEvict; i++ {
		r.adL2.Useless()
	}
	if res.L1Harmful {
		ad.Harmful()
	}
	if res.L2Harmful {
		r.adL2.Harmful()
	}
	if !res.L1Hit {
		r.rec.bank = append(r.rec.bank, bankOp{addr, now})
		if !res.L2Hit {
			r.rec.mem = append(r.rec.mem, memOp{addr, now, res.FetchSegs, opFetch})
		}
		r.writebacks(now, res.Writebacks)
	}
	if !r.cfg.Prefetching {
		return
	}
	reqs := r.engineCall(e, opOnAccess, addr, 0)
	if len(reqs) == 0 && !res.L1Hit {
		allocs := r.engs[e].Allocations()
		reqs = r.engineCall(e, opOnMiss, addr, 0)
		if r.engs[e].Allocations() > allocs {
			r.issueL2(c, now, r.engineCall(3*c+2, opTrigger, addr, r.engs[e].StreamStride()))
		}
	}
	r.issueL1(c, kind, src, ad, now, reqs)
	if !res.L1Hit {
		l2reqs := r.engineCall(3*c+2, opOnAccess, addr, 0)
		if len(l2reqs) == 0 && !res.L2Hit {
			l2reqs = r.engineCall(3*c+2, opOnMiss, addr, 0)
		}
		r.issueL2(c, now, l2reqs)
	}
}

func (r *kernelRig) issueL1(c int, kind coherence.Kind, src coherence.PfSource, ad *prefetch.Adaptive, now timing.Tick, reqs []cache.BlockAddr) {
	pfKind := coherence.Load
	if kind == coherence.IFetch {
		pfKind = coherence.IFetch
	}
	for _, a := range reqs {
		r.rec.coh = append(r.rec.coh, cohOp{a, uint8(c), pfKind, opPfL1, src})
		out := r.h.PrefetchL1(c, pfKind, a, src)
		if out.AlreadyPresent {
			continue
		}
		if out.L2PrefetchHit {
			r.adL2.Useful()
		}
		r.rec.bank = append(r.rec.bank, bankOp{a, now})
		if out.MemFetch {
			r.rec.mem = append(r.rec.mem, memOp{a, now, out.FetchSegs, opFetch})
		}
		r.writebacks(now, out.Writebacks)
		for i := 0; i < out.L1UselessEvict; i++ {
			ad.Useless()
		}
		for i := 0; i < out.L2UselessEvict; i++ {
			r.adL2.Useless()
		}
	}
}

func (r *kernelRig) issueL2(c int, now timing.Tick, reqs []cache.BlockAddr) {
	for _, a := range reqs {
		r.rec.coh = append(r.rec.coh, cohOp{a, uint8(c), coherence.Load, opPfL2, coherence.PfL2})
		out := r.h.PrefetchL2(c, a, coherence.PfL2)
		if out.AlreadyPresent {
			continue
		}
		r.rec.bank = append(r.rec.bank, bankOp{a, now})
		r.rec.mem = append(r.rec.mem, memOp{a, now, out.FetchSegs, opFetch})
		r.writebacks(now, out.Writebacks)
		for i := 0; i < out.L2UselessEvict; i++ {
			r.adL2.Useless()
		}
	}
}

// perCall divides a replay's time by its call count (0 for no calls).
func perCall(total time.Duration, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(calls)
}

// timeReplay runs prepare (untimed) then body (timed) at least three
// times and until 50 ms of body time has accumulated, and returns the
// fastest body time.
func timeReplay(prepare, body func()) time.Duration {
	var best, total time.Duration
	for n := 0; n < 3 || total < 50*time.Millisecond; n++ {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		body()
		d := time.Since(start)
		total += d
		if n == 0 || d < best {
			best = d
		}
	}
	return best
}

// traceKernelLayers measures every kernel layer for cfg and returns the
// costs scaled to the real run's call counts.
func traceKernelLayers(k kernelSpec, cfg sim.Config) ([]layerCost, error) {
	// The real run's call counts: the same run with its window widened
	// to cover warmup as well as measurement.
	whole := cfg
	whole.WarmupInstr, whole.MeasureInstr = 0, cfg.WarmupInstr+cfg.MeasureInstr
	m, err := sim.Run(whole)
	if err != nil {
		return nil, err
	}
	instr := float64(m.Instructions)
	refs := m.L1IAccesses + m.L1DAccesses
	l1Miss := m.L1IMisses + m.L1DMisses
	eI, eD, e2 := m.Engines[coherence.PfL1I], m.Engines[coherence.PfL1D], m.Engines[coherence.PfL2]

	rec, err := record(cfg, int(refs))
	if err != nil {
		return nil, err
	}
	prof, _ := workload.ByName(cfg.Benchmark) // validated by record
	cdc, _ := codec.ByName(cfg.Codec)
	var layers []layerCost
	add := func(name, metric, unit string, perCall, metricValue, calls float64, skip string) {
		l := layerCost{name: name, metric: metric, metricUnit: unit, skip: skip}
		if skip == "" {
			l.perCall, l.metricValue = perCall, metricValue
			l.callsPerInstr = calls / instr
			l.nsPerInstr = perCall * l.callsPerInstr
		}
		layers = append(layers, l)
	}

	// Generation: the same per-core reference counts, fresh sources.
	var srcs []workload.RefSource
	buf := make([]workload.Ref, 256)
	tGen := timeReplay(func() {
		srcs = srcs[:0]
		for c := 0; c < cfg.Cores; c++ {
			s, _ := workload.NewSource(cfg.RefSource, prof, c, cfg.Seed) // built once by record
			srcs = append(srcs, s)
		}
	}, func() {
		for c, s := range srcs {
			for n := 0; n < rec.refsPerCore[c]; n += len(buf) {
				s.NextN(buf)
			}
		}
	})
	genCalls := 0
	for _, n := range rec.refsPerCore {
		genCalls += (n + len(buf) - 1) / len(buf) * len(buf)
	}
	gen := perCall(tGen, genCalls)
	add("workload.gen", "workload.gen_ns_per_ref", "ns", gen, gen, float64(refs), "")

	// Coherence and L1: replay the recorded calls on a fresh hierarchy
	// fed the recorded line sizes, then time fast hits alone on the warm
	// result to split fast hits from the full access path.
	var h *coherence.Hierarchy
	nFast, nAccess, nPf := 0, 0, 0
	for _, op := range rec.coh {
		switch op.op {
		case opFast:
			nFast++
		case opAccess:
			nAccess++
		default:
			nPf++
		}
	}
	diverged := 0
	tCoh := timeReplay(func() {
		si := 0
		h = newHierarchy(cfg, func(cache.BlockAddr) uint8 { s := rec.cohSizes[si]; si++; return s })
		diverged = 0
	}, func() {
		for _, op := range rec.coh {
			c := int(op.core)
			switch op.op {
			case opFast:
				if !h.FastHit(c, op.kind, op.addr) {
					diverged++
				}
			case opAccess:
				if !h.FastHit(c, op.kind, op.addr) {
					h.Access(c, op.kind, op.addr)
				}
			case opPfL1:
				h.PrefetchL1(c, op.kind, op.addr, op.src)
			case opPfL2:
				h.PrefetchL2(c, op.addr, op.src)
			}
		}
	})
	if diverged > 0 {
		return nil, fmt.Errorf("coherence replay diverged from its recording (%d fast hits missed)", diverged)
	}
	var fastOps []cohOp
	for i := len(rec.coh) - 1; i >= 0 && len(fastOps) < 1<<16; i-- {
		if rec.coh[i].op == opFast {
			fastOps = append(fastOps, rec.coh[i])
		}
	}
	tFast := timeReplay(nil, func() {
		for _, op := range fastOps {
			h.FastHit(int(op.core), op.kind, op.addr)
		}
	})
	fast := perCall(tFast, len(fastOps))
	access := (float64(tCoh.Nanoseconds()) - fast*float64(nFast+nAccess)) / float64(max(nAccess+nPf, 1))
	accessCalls := l1Miss + m.StoreUpgrades + eI.PrefetchHits + eI.PartialHits + eD.PrefetchHits + eD.PartialHits +
		eI.Prefetches + eI.Redundant + eD.Prefetches + eD.Redundant + e2.Prefetches + e2.Redundant
	add("coherence.fasthit", "coherence.fasthit_ns", "ns", fast, fast, float64(refs), "")
	add("coherence.access", "coherence.access_ns", "ns", max(access, 0), max(access, 0), float64(accessCalls), "")

	// Prefetch engines: the recorded calls on fresh engines, each call
	// seeing the adaptive cap it saw when recorded.
	var engs []prefetch.Prefetcher
	curCap := 0
	tEng := timeReplay(func() {
		engs = newEngines(cfg)
		if cfg.AdaptivePrefetch {
			for _, e := range engs {
				e.SetCap(func() int { return curCap })
			}
		}
	}, func() {
		for _, op := range rec.eng {
			curCap = int(op.cap)
			e := engs[op.eng]
			switch op.op {
			case opOnAccess:
				e.OnAccess(op.addr)
			case opOnMiss:
				e.OnMiss(op.addr)
			default:
				e.TriggerStream(op.addr, op.stride)
			}
		}
	})
	nMiss := 0
	for _, op := range rec.eng {
		if op.op == opOnMiss {
			nMiss++
		}
	}
	misses := float64(l1Miss + m.L2Misses) // OnMiss follows a miss whose OnAccess issued nothing
	engCalls := float64(refs+l1Miss+eI.StreamAllocs+eD.StreamAllocs) + misses
	engine := prefetch.Canonical(cfg.PrefetcherKind)
	strideSkip, markovSkip := "", ""
	if engine != "stride" {
		strideSkip = "the run's prefetcher is " + engine + ", not the stride engine"
	}
	if engine != "markov" {
		markovSkip = "the run's prefetcher is " + engine + ", not markov"
	}
	stride := perCall(tEng, len(rec.eng))
	markov := perCall(tEng, nMiss)
	add("prefetch.stride", "prefetch.stride_ns_per_access", "ns", stride, stride, engCalls, strideSkip)
	add("prefetch.markov", "prefetch.markov_ns_per_miss", "ns", markov, markov, misses, markovSkip)

	// Line sizing: the recorded SizeOf and Dirty calls on a fresh data
	// model; the codec's share is timed on the lines the memo missed.
	var dm *workload.DataModel
	tData := timeReplay(func() { dm = workload.NewDataModelCodec(prof, cfg.Seed, cdc) }, func() {
		for _, op := range rec.data {
			if op.op == opDirty {
				dm.Dirty(op.addr)
			} else {
				dm.SizeOf(op.addr)
			}
		}
	})
	memo := map[cache.BlockAddr]bool{}
	var lines [][cache.LineBytes]byte
	nSize, nCodec := 0, 0
	for _, op := range rec.data {
		switch {
		case op.op == opDirty:
			delete(memo, op.addr)
		case !memo[op.addr]:
			memo[op.addr] = true
			nCodec++
			if len(lines) < 1<<14 {
				var l [cache.LineBytes]byte
				dm.FillLine(op.addr, l[:])
				lines = append(lines, l)
			}
			fallthrough
		default:
			nSize++
		}
	}
	tCodec := timeReplay(nil, func() {
		for i := range lines {
			cdc.CompressedSizeSegments(lines[i][:])
		}
	})
	codecNs := perCall(tCodec, len(lines))
	sizeCalls := float64(m.MemFetches + m.MemWritebacks)
	codecShare := float64(nCodec) / float64(max(nSize, 1))
	sizeofSelf := max(perCall(tData, nSize)-codecNs*codecShare, 0)
	add("workload.sizeof", "workload.sizeof_ns", "ns", sizeofSelf, sizeofSelf, sizeCalls, "")
	add("codec.size", "codec.size_ns_per_line", "ns", codecNs, codecNs, sizeCalls*codecShare, "")

	// Memory: fetches and writebacks at the recorded times.
	memCfg := cfg.Memory
	memCfg.LinkCompression = cfg.LinkCompression
	var mem *memory.System
	tMem := timeReplay(func() { mem = memory.New(memCfg) }, func() {
		for _, op := range rec.mem {
			if op.op == opFetch {
				mem.Fetch(op.now, op.addr, op.segs)
			} else {
				mem.Writeback(op.now, op.addr, op.segs)
			}
		}
	})
	memNs := perCall(tMem, len(rec.mem))
	add("memory.fetch", "memory.fetch_ns", "ns", memNs, memNs, float64(m.MemFetches+m.MemWritebacks), "")

	// L2 banks: one acquire per L2 demand access and per issued fill.
	var banks *timing.Banks
	tBank := timeReplay(func() {
		banks, err = timing.NewBanks(cfg.L2Banks, timing.FromCycles(cfg.L2BankOccupancy))
	}, func() {
		for _, op := range rec.bank {
			banks.Acquire(uint64(op.addr), op.now)
		}
	})
	if err != nil {
		return nil, err
	}
	bank := perCall(tBank, len(rec.bank))
	add("timing.bank_acquire", "timing.bank_acquire_ns", "ns", bank, bank, float64(l1Miss+eI.Prefetches+eD.Prefetches+e2.Prefetches), "")

	// System construction: once per repetition, calibration memoized.
	tNew := timeReplay(nil, func() {
		if s, err := sim.NewSystem(cfg); err == nil {
			s.Close()
		}
	})
	nsNew := float64(tNew.Nanoseconds())
	add("sim.newsystem", "sim.newsystem_ms", "ms", nsNew, nsNew/1e6, instr/instructions(cfg), "")
	return layers, nil
}
