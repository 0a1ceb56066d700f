package agg

// Parallel aggregation determinism: spilled hash partitions aggregated at
// Parallelism=8 must produce the same groups and bit-identical counters as
// the serial run (the partitions hold disjoint keys and counter addition
// commutes). Run under -race this also exercises the worker pool against
// the shared clock and disk.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"mmdb/internal/cost"
)

func spillRows(n, groups int64) [][2]int64 {
	var rows [][2]int64
	for i := int64(0); i < n; i++ {
		rows = append(rows, [2]int64{i % groups, i})
	}
	return rows
}

func sortGroups(gs []Group) {
	sort.Slice(gs, func(i, j int) bool { return gs[i].Key.I < gs[j].Key.I })
}

func TestParallelSpillMatchesSerialExactly(t *testing.T) {
	rows := spillRows(3000, 700)

	run := func(parallelism int) (*Result, cost.Counters) {
		disk := env()
		f := load(t, disk, "r", rows)
		before := disk.Clock().Counters()
		res, err := Hash(Spec{Input: f, GroupCol: 0, ValueCol: 1, M: 2, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return res, disk.Clock().Counters().Sub(before)
	}

	serial, serialCounters := run(1)
	parallel, parallelCounters := run(8)

	if serial.Passes < 2 {
		t.Fatalf("workload did not spill: passes=%d", serial.Passes)
	}
	if parallel.Passes != serial.Passes || parallel.Partitions != serial.Partitions {
		t.Errorf("shape diverges: parallel passes=%d parts=%d, serial passes=%d parts=%d",
			parallel.Passes, parallel.Partitions, serial.Passes, serial.Partitions)
	}
	if parallelCounters != serialCounters {
		t.Errorf("counters diverge:\n  parallel %v\n  serial   %v", parallelCounters, serialCounters)
	}
	checkGroups(t, parallel.Groups, rows)

	sortGroups(serial.Groups)
	sortGroups(parallel.Groups)
	for i := range serial.Groups {
		if serial.Groups[i] != parallel.Groups[i] {
			t.Fatalf("group %d diverges: parallel %+v, serial %+v", i, parallel.Groups[i], serial.Groups[i])
		}
	}
}

func TestParallelDistinctMatchesSerial(t *testing.T) {
	rows := spillRows(2000, 900)

	run := func(parallelism int) []int64 {
		disk := env()
		f := load(t, disk, "r", rows)
		vals, err := Distinct(f, 0, 2, 1.2, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(vals))
		for i, v := range vals {
			out[i] = v.I
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	serial := run(1)
	parallel := run(8)
	if len(serial) != 900 || len(parallel) != len(serial) {
		t.Fatalf("distinct counts: serial %d, parallel %d, want 900", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("value %d diverges: %d vs %d", i, parallel[i], serial[i])
		}
	}
}

// TestSpilledGroupByPinned pins a spilled GROUP BY's counters, shape and
// groups (an FNV-64a over the key-ordered group rows) to the values the
// engine produced with both the allocating and the allocation-free hasher
// in production, so a change to the hash or the partitioning shows up as
// a drift here at every width.
func TestSpilledGroupByPinned(t *testing.T) {
	rows := spillRows(3000, 700)
	want := cost.Counters{Comps: 2300, Hashes: 101500, Moves: 99200, SeqIOs: 13180}
	const wantHash = 0x6fcba30dc2014949
	for _, parallelism := range []int{1, 4} {
		disk := env()
		f := load(t, disk, "r", rows)
		before := disk.Clock().Counters()
		res, err := Hash(Spec{Input: f, GroupCol: 0, ValueCol: 1, M: 2, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		if c := disk.Clock().Counters().Sub(before); c != want {
			t.Errorf("parallelism=%d: counters drifted:\ngot  %#v\nwant %#v", parallelism, c, want)
		}
		if res.Passes != 70 || res.Partitions != 69 || len(res.Groups) != 700 {
			t.Errorf("parallelism=%d: passes=%d partitions=%d groups=%d, want 70/69/700",
				parallelism, res.Passes, res.Partitions, len(res.Groups))
		}
		sortGroups(res.Groups)
		h := fnv.New64a()
		for _, g := range res.Groups {
			fmt.Fprintf(h, "%d %d %d %d %d\n", g.Key.I, g.Count, g.Sum, g.Min, g.Max)
		}
		if got := h.Sum64(); got != wantHash {
			t.Errorf("parallelism=%d: group digest = %#x, want %#x", parallelism, got, wantHash)
		}
	}
}
