package lock

import (
	"testing"

	"mmdb/internal/wal"
)

func mustGrant(t *testing.T, m *Manager, txn wal.TxnID, res uint64, mode Mode) []wal.TxnID {
	t.Helper()
	var deps []wal.TxnID
	granted := m.Acquire(txn, res, mode, func(d []wal.TxnID) { deps = d })
	if !granted {
		t.Fatalf("txn %d should get resource %d immediately", txn, res)
	}
	return deps
}

func TestExclusiveConflictAndFIFOGrant(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, 1, 10, Exclusive)
	var order []wal.TxnID
	if m.Acquire(2, 10, Exclusive, func([]wal.TxnID) { order = append(order, 2) }) {
		t.Fatal("conflicting acquire granted")
	}
	if m.Acquire(3, 10, Exclusive, func([]wal.TxnID) { order = append(order, 3) }) {
		t.Fatal("conflicting acquire granted")
	}
	if w := m.Waiting(10); len(w) != 2 || w[0] != 2 || w[1] != 3 {
		t.Fatalf("waiters %v", w)
	}
	m.PreCommit(1)
	// Only txn 2 can hold the X lock now; 3 still waits.
	if len(order) != 1 || order[0] != 2 {
		t.Fatalf("grant order %v", order)
	}
	m.PreCommit(2)
	if len(order) != 2 || order[1] != 3 {
		t.Fatalf("grant order %v", order)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedCompatibility(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, 1, 5, Shared)
	mustGrant(t, m, 2, 5, Shared)
	if h := m.Holders(5); len(h) != 2 {
		t.Fatalf("holders %v", h)
	}
	granted := m.Acquire(3, 5, Exclusive, func([]wal.TxnID) {})
	if granted {
		t.Fatal("X granted alongside S holders")
	}
	// A later S request must not jump the queued X (no starvation).
	if m.Acquire(4, 5, Shared, func([]wal.TxnID) {}) {
		t.Fatal("S request overtook a queued X request")
	}
}

func TestDependencyListFromPreCommitted(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, 1, 7, Exclusive)
	m.PreCommit(1)
	if pc := m.PreCommitted(7); len(pc) != 1 || pc[0] != 1 {
		t.Fatalf("pre-committed %v", pc)
	}
	// §5.2: "when a transaction is granted a lock, it becomes dependent on
	// the pre-committed transactions that formerly held the lock."
	deps := mustGrant(t, m, 2, 7, Exclusive)
	if len(deps) != 1 || deps[0] != 1 {
		t.Fatalf("deps = %v", deps)
	}
	m.Finish(1)
	m.PreCommit(2)
	deps = mustGrant(t, m, 3, 7, Exclusive)
	if len(deps) != 1 || deps[0] != 2 {
		t.Fatalf("deps after finish = %v (txn 1 must be gone)", deps)
	}
}

func TestReacquireAndUpgrade(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, 1, 3, Shared)
	mustGrant(t, m, 1, 3, Shared)    // re-acquire
	mustGrant(t, m, 1, 3, Exclusive) // sole holder upgrade
	if !m.Acquire(2, 3, Shared, func([]wal.TxnID) {}) == false {
		t.Fatal("S granted under X")
	}
	// Upgrade blocked when another S holder exists.
	m2 := NewManager()
	mustGrant(t, m2, 1, 3, Shared)
	mustGrant(t, m2, 2, 3, Shared)
	upgraded := false
	if m2.Acquire(1, 3, Exclusive, func([]wal.TxnID) { upgraded = true }) {
		t.Fatal("upgrade granted with two S holders")
	}
	m2.PreCommit(2)
	if !upgraded {
		t.Fatal("upgrade not granted after other holder released")
	}
}

func TestReleaseAllAbortPath(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, 1, 1, Exclusive)
	mustGrant(t, m, 1, 2, Exclusive)
	granted := false
	m.Acquire(2, 1, Exclusive, func([]wal.TxnID) { granted = true })
	m.ReleaseAll(1)
	if !granted {
		t.Fatal("waiter not granted after abort release")
	}
	// Aborted transaction leaves no pre-committed residue.
	if pc := m.PreCommitted(1); len(pc) != 0 {
		t.Fatalf("pre-committed residue %v", pc)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAllRemovesQueuedRequests(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, 1, 9, Exclusive)
	m.Acquire(2, 9, Exclusive, func([]wal.TxnID) { t.Fatal("aborted waiter granted") })
	granted3 := false
	m.Acquire(3, 9, Exclusive, func([]wal.TxnID) { granted3 = true })
	m.ReleaseAll(2) // 2 aborts while waiting
	m.PreCommit(1)
	if !granted3 {
		t.Fatal("txn 3 should be granted after 2's queued request was removed")
	}
}

func TestFinishClearsAllPreCommittedEntries(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, 1, 1, Exclusive)
	mustGrant(t, m, 1, 2, Exclusive)
	m.PreCommit(1)
	m.Finish(1)
	for _, res := range []uint64{1, 2} {
		if pc := m.PreCommitted(res); len(pc) != 0 {
			t.Fatalf("resource %d still lists %v", res, pc)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseFreesLockState is the lock-table leak regression: every
// resource ever locked used to keep its state after the last release.
// After acquire/release cycles over N distinct resources — granted at
// once, queued behind a holder, and queued then abandoned — the table is
// empty again.
func TestReleaseFreesLockState(t *testing.T) {
	m := NewManager()
	const n = 500
	for i := 0; i < n; i++ {
		res := uint64(i)
		txn := wal.TxnID(3 * i)
		mustGrant(t, m, txn+1, res, Exclusive)
		m.Acquire(txn+2, res, Shared, func([]wal.TxnID) {})
		m.Acquire(txn+3, res, Exclusive, func([]wal.TxnID) { t.Fatal("abandoned request granted") })
		m.ReleaseAll(txn + 3)
		m.ReleaseAll(txn + 1) // grants txn+2
		if h := m.Holders(res); len(h) != 1 || h[0] != txn+2 {
			t.Fatalf("resource %d holders %v", res, h)
		}
		m.ReleaseAll(txn + 2)
	}
	if got := m.Len(); got != 0 {
		t.Fatalf("%d lock states left after %d released resources", got, n)
	}
	if len(m.held) != 0 || len(m.queued) != 0 {
		t.Fatalf("held %d, queued %d transactions after release", len(m.held), len(m.queued))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseSteadyStateAllocs: a released state is recycled, so
// re-acquiring a resource by a fresh transaction allocates nothing.
func TestReleaseSteadyStateAllocs(t *testing.T) {
	m := NewManager()
	grant := func([]wal.TxnID) {}
	txn := wal.TxnID(0)
	cycle := func() {
		txn++
		m.Acquire(txn, 42, Exclusive, grant)
		m.Acquire(txn, 43, Shared, grant)
		m.ReleaseAll(txn)
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("acquire/release cycle allocates %.1f times", allocs)
	}
	if got := m.Len(); got != 0 {
		t.Fatalf("%d lock states left", got)
	}
}
