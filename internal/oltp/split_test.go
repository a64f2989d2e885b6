package oltp

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"robustconf/internal/topology"
	"robustconf/internal/tpcc"
)

// loadedStore starts the delegated engine on smallCfg (one domain per
// warehouse), loads it through a fresh store and returns both.
func loadedStore(t *testing.T) (*Engine, *SessionStore) {
	t.Helper()
	m, _ := topology.Restricted(1)
	e, err := NewEngine(smallCfg, newFPTree, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	store, err := e.NewStore(0, 14)
	if err != nil {
		t.Fatal(err)
	}
	loader, _ := tpcc.NewLoader(smallCfg, 1)
	if err := loader.Load(store); err != nil {
		t.Fatal(err)
	}
	return e, store
}

// TestSplitPartsBothInFlight: the home part blocks on a signal only the
// remote part sends, so RunSplit can finish without the timeout only if it
// posts both tasks before it awaits either. Then a terminal whose every
// Payment and New-Order crosses warehouses runs its parts concurrently on
// the two domains' workers; run it under -race, since the parts share the
// terminal.
func TestSplitPartsBothInFlight(t *testing.T) {
	_, store := loadedStore(t)
	defer store.Close()

	errTimeout := errors.New("home part: the remote part never ran")
	for i := 0; i < 20; i++ {
		signal := make(chan struct{})
		home := func(local tpcc.Store) error {
			select {
			case <-signal:
				return nil
			case <-time.After(5 * time.Second):
				return errTimeout
			}
		}
		remote := func(local tpcc.Store) error {
			close(signal)
			return nil
		}
		if err := store.RunSplit(1, home, 2, remote); err != nil {
			t.Fatalf("split %d: %v", i, err)
		}
	}

	term, err := tpcc.NewTerminal(smallCfg, store, 1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := term.NextTransaction(); err != nil {
			t.Fatalf("cross-warehouse txn %d: %v", i, err)
		}
	}
	if term.NewOrders == 0 || term.Payments == 0 {
		t.Fatalf("mix ran %d New-Orders and %d Payments, want both", term.NewOrders, term.Payments)
	}
}

// TestSplitPartErrors: each part's error reaches the caller, the home
// part's first, and a failing part does not stop the other from running.
func TestSplitPartErrors(t *testing.T) {
	_, store := loadedStore(t)
	defer store.Close()
	errHome, errRemote := errors.New("home"), errors.New("remote")
	var ran atomic.Int32 // the parts run concurrently
	fail := func(err error) func(tpcc.Store) error {
		return func(tpcc.Store) error { ran.Add(1); return err }
	}
	for _, c := range []struct{ home, remote, want error }{
		{nil, nil, nil},
		{nil, errRemote, errRemote},
		{errHome, nil, errHome},
		{errHome, errRemote, errHome},
	} {
		ran.Store(0)
		if err := store.RunSplit(1, fail(c.home), 2, fail(c.remote)); err != c.want || ran.Load() != 2 {
			t.Errorf("home %v, remote %v: got %v after %d parts, want %v after 2", c.home, c.remote, err, ran.Load(), c.want)
		}
	}
}
