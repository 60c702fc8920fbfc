package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workRoot holds everything a run writes: result stores and journals.
// It is relative to the working directory, the repository root.
const workRoot = ".bench_build"

// setupProbes is how many child processes time the cold set-up; the
// run reports their median.
const setupProbes = 11

// sample is one timed unit: its measured time, that time scaled to the
// calibration's nominal host speed, and the process's peak resident set
// during the unit.
type sample struct {
	d      time.Duration
	scaled time.Duration
	rssMB  float64
}

// repeat runs fn once untimed (the warm unit), then timed units until
// budget is spent and at least minReps have run. Each timed unit sits
// between two calibrations on par goroutines (see calibrate.go). Before
// each unit the heap is collected and returned to the OS and the
// peak-RSS mark is reset, so each sample's peak is its own. fn times its
// own measured section and returns it, so work it does outside that
// section (tear-down, checks) is not counted.
func repeat(budget time.Duration, minReps, par int, fn func(warm bool) (time.Duration, error)) ([]sample, error) {
	if _, err := fn(true); err != nil {
		return nil, err
	}
	var ss []sample
	start := time.Now()
	before := calibrate(par)
	for len(ss) < minReps || time.Since(start) < budget {
		debug.FreeOSMemory() // runs a GC first
		resetPeakRSS()
		d, err := fn(false)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		after := calibrate(par)
		scaled := time.Duration(float64(d) * float64(2*calNominal) / float64(before+after))
		ss = append(ss, sample{d, scaled, rss})
		before = after
	}
	return ss, nil
}

// describe prints each unit's measured and calibrated time.
func describe(what string, ss []sample) {
	fmt.Printf("# %s, measured/calibrated ms:", what)
	for _, s := range ss {
		fmt.Printf(" %.0f/%.0f", float64(s.d)/1e6, float64(s.scaled)/1e6)
	}
	fmt.Println()
}

// fastest returns the smallest measured time.
func fastest(ss []sample) time.Duration {
	best := ss[0].d
	for _, s := range ss[1:] {
		best = min(best, s.d)
	}
	return best
}

// medianScaled returns the median of the samples' calibrated times.
func medianScaled(ss []sample) time.Duration {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.scaled)
	}
	return time.Duration(median(xs))
}

// medianRSS returns the median of the samples' peak RSS.
func medianRSS(ss []sample) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = s.rssMB
	}
	return median(xs)
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

var resetOnce sync.Once

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) to the current
// resident set. Where that is refused, peaks stay process-lifetime
// peaks, and the run says so once.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		resetOnce.Do(func() { fmt.Printf("# peak RSS is the process-lifetime peak: %v\n", err) })
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// probeSetup is the child side of the set-up measurement: time one cold
// set-up in this fresh process and print it in seconds.
func probeSetup(name string, seed int64) int {
	var d time.Duration
	var err error
	if name == "fleet-sweep" {
		d, err = fleetColdSetup()
	} else {
		d, err = kernelColdSetup(kernelSpecs[name], seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up probe: %v\n", err)
		return 1
	}
	fmt.Printf("%.9f\n", d.Seconds())
	return 0
}

// coldSetupSeconds runs setupProbes child processes of this binary, each
// timing one cold set-up, and returns the median in seconds. Each child
// is waited for before the next starts.
func coldSetupSeconds(name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locate own binary: %w", err)
	}
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--probe-setup", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe output %q: %w", out, err)
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// newWorkDir makes a fresh private directory under workRoot.
func newWorkDir(prefix string) (string, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return "", fmt.Errorf("create %s: %w", workRoot, err)
	}
	return os.MkdirTemp(workRoot, prefix)
}

// printProvenance stamps the output with what produced it: build,
// toolchain, host, and the workload seed.
func printProvenance(name string, seed int64) {
	rev := "unknown (binary carries no VCS stamp)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var r, mod string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				r = s.Value
			case "vcs.modified":
				mod = s.Value
			}
		}
		if r != "" {
			rev = r
			if mod == "true" {
				rev += "+modified"
			}
		}
	}
	fmt.Printf("# provenance: workload=%s seed=%d rev=%s go=%s cpu=%q nproc=%d gomaxprocs=%d storefs=%s\n",
		name, seed, rev, runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), filesystemOf(workRoot))
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem holding dir (or its nearest
// existing parent), from the statfs magic number.
func filesystemOf(dir string) string {
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlay",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	for d := dir; ; d = filepath.Dir(d) {
		var st syscall.Statfs_t
		if err := syscall.Statfs(d, &st); err == nil {
			if n, ok := names[int64(st.Type)]; ok {
				return n
			}
			return fmt.Sprintf("0x%x", st.Type)
		}
		if d == filepath.Dir(d) {
			return "unknown"
		}
	}
}

// steadiness runs n fresh processes of one workload, each with its own
// seed (seed, seed+1, ...), and prints for every metric the median, the
// quartiles, the interquartile spread as a share of the median, and the
// max/min ratio, so bounds can be set from measured spread.
func steadiness(name string, seed int64, seconds, trace, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: locate own binary: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var sum struct {
			Correct bool
			Failed  int
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if jerr := json.Unmarshal(lines[len(lines)-1], &sum); jerr != nil || err != nil || !sum.Correct {
			fmt.Printf("# run %d (seed %d): failed (exit %v)\n", i, s, err)
			failed++
			continue
		}
		for k, v := range sum.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
		fmt.Printf("# run %d (seed %d) done\n", i, s)
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-44s %6s %14s %14s %14s %9s %8s\n", "metric", "runs", "q1", "median", "q3", "iqr/med", "max/min")
	for _, k := range keys {
		xs := append([]float64(nil), values[k]...)
		sort.Float64s(xs)
		q1, med, q3 := quartiles(xs)
		spread, ratio := math.NaN(), math.NaN()
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		if xs[0] != 0 {
			ratio = xs[len(xs)-1] / xs[0]
		}
		fmt.Printf("%-44s %6d %14.6g %14.6g %14.6g %9.4f %8.4f %s\n", k, len(xs), q1, med, q3, spread, ratio, units[k])
		fmt.Printf("    runs in order: %v\n", values[k])
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (exclusive
// method) for sorted xs with at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
