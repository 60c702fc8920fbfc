// Result-store adapter: wraps internal/store's content-addressed
// key→value store with the core.PointRecord schema, implementing
// core.PointStore so a scheduler (or coordinator) restores finished
// points from disk instead of re-simulating them.
package fleet

import (
	"encoding/json"
	"fmt"

	"cmpsim/internal/core"
	"cmpsim/internal/store"
)

// Store files finished points in a shared store directory under their
// canonical point key. It implements core.PointStore.
type Store struct {
	s *store.Store
}

// OpenStore opens (creating if needed) a result-store directory for
// reading and writing. At most one writing process per directory.
func OpenStore(dir string, shards int) (*Store, error) {
	s, err := store.Open(dir, shards)
	if err != nil {
		return nil, err
	}
	return &Store{s: s}, nil
}

// OpenStoreRead opens a result-store directory read-only (it need not
// exist yet). Adds are refused.
func OpenStoreRead(dir string) (*Store, error) {
	s, err := store.OpenRead(dir)
	if err != nil {
		return nil, err
	}
	return &Store{s: s}, nil
}

// Lookup returns the stored point for a request, if an intact record
// with a matching seed count exists. Never trusts a record that fails
// validation.
func (st *Store) Lookup(bench string, m core.Mechanisms, o core.Options) (core.Point, bool) {
	return st.LookupKey(core.PointKey(bench, m, o), core.CanonicalOptions(o).Seeds)
}

// LookupKey is Lookup for callers that already hold the canonical key.
// seeds is the expected run count (0 skips that check).
func (st *Store) LookupKey(key string, seeds int) (core.Point, bool) {
	raw, ok := st.s.Get(key)
	if !ok {
		return core.Point{}, false
	}
	var rec core.PointRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return core.Point{}, false
	}
	if rec.Validate() != nil || rec.Key() != key {
		return core.Point{}, false
	}
	if seeds > 0 && rec.Options.Seeds != seeds {
		return core.Point{}, false
	}
	return rec.Point, true
}

// Add files one finished point under its canonical key. A key already
// present is a no-op that skips the record encode (results are
// deterministic, so first write wins): in a fleet run the coordinator
// files each point before the scheduler's own Add reaches it.
func (st *Store) Add(rec core.PointRecord) error {
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("fleet: refusing to store invalid record: %w", err)
	}
	key := rec.Key()
	if _, ok := st.s.Get(key); ok {
		return nil
	}
	val, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet: encode point record: %w", err)
	}
	return st.s.Put(key, val)
}

// Len returns how many distinct points this process's view holds.
func (st *Store) Len() int { return st.s.Len() }

// Loaded returns how many intact records the open call restored.
func (st *Store) Loaded() int { return st.s.Loaded() }

// Skipped returns how many corrupt records the open call ignored.
func (st *Store) Skipped() int { return st.s.Skipped() }

// Reload rescans the directory (read-only stores picking up appends).
func (st *Store) Reload() error { return st.s.Reload() }

// Dir returns the backing directory.
func (st *Store) Dir() string { return st.s.Dir() }

// Close releases the underlying append handles.
func (st *Store) Close() error { return st.s.Close() }
