package hashjoin

import (
	"encoding/binary"
	"hash/fnv"

	"mmdb/internal/cost"
	"mmdb/internal/tuple"
)

// The classic chained hash table and the hash/fnv-based hash are the
// references KernelTable and Hasher.Hash are checked against: the §3.3
// accounting in its most direct form, kept in the tests so the production
// layout has an oracle.

// referenceHash is Hasher.Hash's value computed through hash/fnv: FNV-1a
// over the 4 big-endian salt bytes followed by key, finalized with fmix64.
func referenceHash(level uint32, key []byte) uint64 {
	f := fnv.New64a()
	var salt [4]byte
	binary.BigEndian.PutUint32(salt[:], level+0x9e3779b9)
	f.Write(salt[:])
	f.Write(key)
	return fmix64(f.Sum64())
}

type entry struct {
	hash uint64
	tup  tuple.Tuple
}

// Table is a chained hash table over tuples keyed by one column. Inserts
// charge one move; probes charge one comparison per candidate examined
// (the paper's F*comp expected probe cost).
type Table struct {
	clock   *cost.Clock
	schema  *tuple.Schema
	col     int
	buckets [][]entry
	mask    uint64
	n       int
}

// NewTable creates a table sized for the expected number of tuples.
func NewTable(clock *cost.Clock, schema *tuple.Schema, col int, expected int) *Table {
	nb := 16
	for nb < expected {
		nb <<= 1
	}
	return &Table{
		clock:   clock,
		schema:  schema,
		col:     col,
		buckets: make([][]entry, nb),
		mask:    uint64(nb - 1),
	}
}

// Len returns the number of stored tuples.
func (t *Table) Len() int { return t.n }

// Insert stores tup (whose key hashed to h), charging one move.
func (t *Table) Insert(h uint64, tup tuple.Tuple) {
	t.clock.Moves(1)
	b := h & t.mask
	t.buckets[b] = append(t.buckets[b], entry{hash: h, tup: tup})
	t.n++
}

// Probe calls fn with every stored tuple whose key equals key (which hashed
// to h). Each candidate whose full key is compared charges one comparison.
func (t *Table) Probe(h uint64, key []byte, fn func(tuple.Tuple)) {
	for _, e := range t.buckets[h&t.mask] {
		if e.hash != h {
			continue
		}
		t.clock.Comps(1)
		if string(t.schema.KeyBytes(e.tup, t.col)) == string(key) {
			fn(e.tup)
		}
	}
}

// chainedSharded is the chained reference for ShardedTable: one chained
// Table per shard, routed by the same top hash bits.
type chainedSharded struct {
	shards []*Table
	shift  uint
}

func newChainedSharded(clock *cost.Clock, schema *tuple.Schema, col int, expected, nshards int) *chainedSharded {
	ns, k := 1, uint(0)
	for ns < nshards {
		ns <<= 1
		k++
	}
	cs := &chainedSharded{shards: make([]*Table, ns), shift: 64 - k}
	for i := range cs.shards {
		cs.shards[i] = NewTable(clock, schema, col, ceilDiv(expected, ns))
	}
	return cs
}

func (cs *chainedSharded) Insert(h uint64, tup tuple.Tuple) {
	cs.shards[h>>cs.shift].Insert(h, tup)
}

func (cs *chainedSharded) Probe(h uint64, key []byte, fn func(tuple.Tuple)) {
	cs.shards[h>>cs.shift].Probe(h, key, fn)
}
