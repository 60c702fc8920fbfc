package fleet

import (
	"reflect"
	"testing"

	"cmpsim/internal/core"
)

// openStore opens a result store over dir, failing the test on error.
func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreResume interrupts a real-simulation sweep and resumes it from
// the result store: the stored points come back bit-identical without
// simulating, and only the missing point runs.
func TestStoreResume(t *testing.T) {
	o := simOpts()
	dir := t.TempDir()

	// First process: simulate a subset, then "die".
	st1 := openStore(t, dir)
	s1 := core.NewScheduler(2)
	s1.SetPointStore(st1)
	p1 := s1.Submit("zeus", core.Base, o).MustWait()
	p2 := s1.Submit("zeus", core.CacheCompr, o).MustWait()
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second process: resume.
	st2 := openStore(t, dir)
	defer st2.Close()
	if st2.Loaded() != 2 || st2.Skipped() != 0 {
		t.Fatalf("loaded %d skipped %d, want 2/0", st2.Loaded(), st2.Skipped())
	}
	s2 := core.NewScheduler(2)
	defer s2.Close()
	s2.SetPointStore(st2)
	r1 := s2.Submit("zeus", core.Base, o).MustWait()
	r2 := s2.Submit("zeus", core.CacheCompr, o).MustWait()
	r3 := s2.Submit("zeus", core.Prefetch, o).MustWait() // not in the store

	if !reflect.DeepEqual(r1, p1) || !reflect.DeepEqual(r2, p2) {
		t.Fatal("restored points are not bit-identical to the original run")
	}
	fresh := core.NewScheduler(2)
	defer fresh.Close()
	if want := fresh.Submit("zeus", core.Prefetch, o).MustWait(); !reflect.DeepEqual(r3, want) {
		t.Fatal("resumed run's simulated point differs from a fresh run")
	}
	st := s2.Stats()
	if st.FromStore != 2 || st.Unique != 1 || st.SeedRuns != uint64(o.Seeds) {
		t.Fatalf("resume stats = %+v (want 2 from store, 1 simulated)", st)
	}
}

// TestStoreStudyEquivalence resumes a whole study whose first run was
// interrupted after one benchmark: the resumed rows must equal a fresh
// run's exactly while only the missing benchmark's points simulate.
func TestStoreStudyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full study round trip")
	}
	o := simOpts()
	benches := []string{"zeus", "mgrid"}
	dir := t.TempDir()

	fresh := func() []core.CompressionRow {
		s := core.NewScheduler(2)
		defer s.Close()
		return s.CompressionStudy(benches, o)
	}()

	// Interrupted run: only zeus's points land in the store.
	st1 := openStore(t, dir)
	s1 := core.NewScheduler(2)
	s1.SetPointStore(st1)
	s1.CompressionStudy(benches[:1], o)
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := core.NewScheduler(2)
	defer s2.Close()
	s2.SetPointStore(st2)
	resumed := s2.CompressionStudy(benches, o)

	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("resumed study differs from fresh run:\nfresh   %+v\nresumed %+v", fresh, resumed)
	}
	if st := s2.Stats(); st.FromStore != 4 || st.Unique != 4 {
		t.Fatalf("stats = %+v (want 4 zeus points from store, 4 simulated mgrid points)", st)
	}
}
