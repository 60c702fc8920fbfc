// Command perfbench is the repository benchmark. One run measures one
// workload and prints its metrics by name with their units; the last
// line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	kernel-zeus      one sim.Run of zeus on the paper's 8-core system with
//	                 FPC cache+link compression and adaptive stride prefetching
//	kernel-ptrchase  the same system running ptrchase with the markov
//	                 prefetcher, adaptive throttling and compression off
//	fleet-sweep      a 960-point Fig-11-style grid through core.Scheduler, an
//	                 in-process fleet.Coordinator and two io.Pipe workers,
//	                 then served back from the result store
//
// Every host-time metric is the median of several timed units, each
// scaled to a nominal host speed by the calibration kernel that brackets
// it (calibrate.go): each run is a fresh process, one untimed warm unit
// comes first, a GC runs before each unit and each unit starts from
// fresh state. With --trace 1 the run reports per-layer metrics instead
// of the end-to-end ones, timed as measured. --steady N runs N fresh processes of one
// workload and prints each metric's median, quartiles and max/min ratio.
//
// Build and run from the repository root with perfbench/run.sh, which
// builds this package into .bench_build and passes its arguments on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// defaultSeed is the seed the pinned reference digests were made with.
// Other seeds are checked for self-consistency only.
const defaultSeed = 1

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is what one run reports: the correctness tally and the metrics.
type outcome struct {
	attempted int
	failed    int
	metrics   []metric
}

func (o *outcome) add(name string, v float64, unit string) {
	o.metrics = append(o.metrics, metric{name, v, unit})
}

// fail counts one failed operation and prints why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Printf("# FAILED: "+format+"\n", args...)
}

// layerMetrics lists, with their units, the per-layer metrics a traced
// run reports. A workload without one of these layers reports it as 0.
var layerMetrics = []struct{ name, unit string }{
	{"workload.gen_ns_per_ref", "ns"}, {"workload.gen.share_pct", "%"},
	{"coherence.fasthit_ns", "ns"}, {"coherence.fasthit.share_pct", "%"},
	{"coherence.access_ns", "ns"}, {"coherence.access.share_pct", "%"},
	{"prefetch.stride_ns_per_access", "ns"}, {"prefetch.stride.share_pct", "%"},
	{"prefetch.markov_ns_per_miss", "ns"}, {"prefetch.markov.share_pct", "%"},
	{"workload.sizeof_ns", "ns"}, {"workload.sizeof.share_pct", "%"},
	{"codec.size_ns_per_line", "ns"}, {"codec.size.share_pct", "%"},
	{"memory.fetch_ns", "ns"}, {"memory.fetch.share_pct", "%"},
	{"timing.bank_acquire_ns", "ns"}, {"timing.bank_acquire.share_pct", "%"},
	{"sim.newsystem_ms", "ms"}, {"sim.newsystem.share_pct", "%"},
	{"kernel.unattributed_ns_per_instr", "ns"}, {"kernel.untraced_ns_per_instr", "ns"},
	{"kernel.trace_overhead_pct", "%"},
	{"host.alloc_bytes_per_instr", "B"}, {"host.gc_cycles", "count"},
	{"model.ipc", "instr/cycle"}, {"model.l2_mpki", "1/kinstr"}, {"model.pf_l2_accuracy_pct", "%"},
	{"model.compr_ratio", "ratio"}, {"model.link_util_pct", "%"},
	{"model.link_queue_cycles_per_fetch", "cycles"}, {"model.dram_queue_cycles_per_fetch", "cycles"},
	{"core.submit_us", "us"},
	{"fleet.call_us.hello", "us"}, {"fleet.call_us.next", "us"},
	{"fleet.call_us.heartbeat", "us"}, {"fleet.call_us.result", "us"},
	{"fleet.calls.hello", "count"}, {"fleet.calls.next", "count"},
	{"fleet.calls.heartbeat", "count"}, {"fleet.calls.result", "count"},
	{"fleet.wait_replies", "count"}, {"fleet.requeues", "count"},
	{"worker.point_ms", "ms"}, {"store.add_us", "us"}, {"journal.entries_per_point", "count"},
	{"store.open_ms", "ms"}, {"store.lookup_us", "us"},
	{"fleet.untraced_points_per_s", "1/s"}, {"fleet.trace_overhead_pct", "%"},
}

// completeLayers checks a traced run's metrics against layerMetrics and
// reports every layer the workload does not have as 0.
func completeLayers(o *outcome) error {
	have := map[string]string{}
	for _, m := range o.metrics {
		have[m.Name] = m.Unit
	}
	known := map[string]bool{}
	var absent []string
	for _, l := range layerMetrics {
		known[l.name] = true
		u, ok := have[l.name]
		switch {
		case !ok:
			absent = append(absent, l.name)
			o.add(l.name, 0, l.unit)
		case u != l.unit:
			return fmt.Errorf("metric %s has unit %s, want %s", l.name, u, l.unit)
		}
	}
	for _, m := range o.metrics {
		if !known[m.Name] {
			return fmt.Errorf("traced metric %s is not in the per-layer list", m.Name)
		}
	}
	if len(absent) > 0 {
		fmt.Printf("# not on this workload (reported as 0): %s\n", strings.Join(absent, " "))
	}
	return nil
}

// workloadRunner runs one workload for the given time budget.
type workloadRunner func(seed int64, budget time.Duration, trace bool, ref string) (*outcome, error)

var workloads = map[string]workloadRunner{
	"kernel-zeus": func(s int64, b time.Duration, t bool, r string) (*outcome, error) {
		return runKernel(zeusSpec, s, b, t, r)
	},
	"kernel-ptrchase": func(s int64, b time.Duration, t bool, r string) (*outcome, error) {
		return runKernel(ptrchaseSpec, s, b, t, r)
	},
	"fleet-sweep": runFleet,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: kernel-zeus, kernel-ptrchase or fleet-sweep")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	ref := flag.String("reference", "", "replace the pinned reference digest (checks that the correctness gate fires)")
	steady := flag.Int("steady", 0, "run N fresh processes of the workload and print the spread of each metric")
	probe := flag.Bool("probe-setup", false, "child mode: time one cold set-up and print it")
	flag.Parse()

	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want kernel-zeus, kernel-ptrchase or fleet-sweep)\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if *probe {
		return probeSetup(*name, *seed)
	}
	if *steady > 0 {
		return steadiness(*name, *seed, *seconds, *trace, *steady)
	}

	printProvenance(*name, *seed)
	o, err := workloads[*name](*seed, time.Duration(*seconds)*time.Second, *trace == 1, strings.ToLower(*ref))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if *trace == 1 {
		if err := completeLayers(o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, m := range o.metrics {
		fmt.Printf("# %-44s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if err := printSummary(o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if o.failed > 0 {
		return 1
	}
	return 0
}

// printSummary writes the JSON summary line.
func printSummary(o *outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(o.metrics))
	for _, m := range o.metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
	if err != nil {
		return fmt.Errorf("encode summary: %w", err)
	}
	fmt.Println(string(b))
	return nil
}
