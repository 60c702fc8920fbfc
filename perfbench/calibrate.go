package main

// Host-speed calibration.
//
// On a shared host, co-tenant load slows the CPU itself for stretches of
// seconds to minutes: CPU time tracks wall time, so neither taking CPU
// time nor the fastest of many repetitions removes it. Each timed unit
// is therefore bracketed by a fixed calibration kernel that competes for
// the same resources the simulator does: a set-associative tag array
// well beyond a core's private caches plus a churning Go map, all of it
// this file's own code, so no change to the repository can move it. A
// unit's time is scaled by calNominal over the mean of the calibrations
// before and after it, which reports it at the host speed where the
// calibration takes calNominal.

import (
	"runtime"
	"sync"
	"time"
)

const (
	calSets = 1 << 16 // 8 ways: 4 MB of tags, 2 MB of stamps
	calOps  = 1_500_000
	calSide = 100_000 // map entries kept; preallocated, so timing allocates nothing
	// calNominal is the calibration time the scaled figures refer to,
	// about its time on an idle 2-vCPU Xeon host.
	calNominal = 50 * time.Millisecond
)

// calModel is one calibration kernel's state.
type calModel struct {
	tags  []uint64
	stamp []uint32
	side  map[uint64]uint32
}

func newCalModel() *calModel {
	return &calModel{
		tags:  make([]uint64, calSets*8),
		stamp: make([]uint32, calSets*8),
		side:  make(map[uint64]uint32, calSide),
	}
}

// run drives ops lookups of a skewed xorshift address stream through an
// 8-way LRU tag array, inserting every sixteenth address into the map.
func (m *calModel) run(ops int) uint64 {
	x := uint64(88172645463325252)
	var clock uint32
	var hits uint64
	for i := 0; i < ops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a := x % (1 << 21)
		if x&7 < 5 {
			a %= 1 << 15
		}
		s := (a % calSets) * 8
		clock++
		lru, hit := s, false
		for w := s; w < s+8; w++ {
			if m.tags[w] == a {
				m.stamp[w] = clock
				hit = true
				break
			}
			if m.stamp[w] < m.stamp[lru] {
				lru = w
			}
		}
		if hit {
			hits++
		} else {
			m.tags[lru], m.stamp[lru] = a, clock
		}
		if x&15 == 0 {
			m.side[a]++
			if len(m.side) > calSide {
				delete(m.side, a^1)
			}
		}
	}
	return hits
}

// calibrate times the calibration kernel on par goroutines at once (one
// per CPU the unit keeps busy) and returns the wall time of the slowest.
// The models are built and warmed after a GC and before timing, so no
// collection runs while it is timed, and dropped after, so the unit that
// follows sees none of their memory.
func calibrate(par int) time.Duration {
	runtime.GC()
	models := make([]*calModel, par)
	for i := range models {
		models[i] = newCalModel()
		models[i].run(calOps / 4)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, m := range models {
		wg.Add(1)
		go func(m *calModel) {
			defer wg.Done()
			m.run(calOps)
		}(m)
	}
	wg.Wait()
	return time.Since(start)
}
