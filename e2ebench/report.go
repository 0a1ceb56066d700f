package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mmdb"
)

// report collects one run's figures. EndToEnd and PerLayer hold exactly
// the metrics BENCHMARK.json names; Detail holds the rest (per statement
// kind, per workload-specific layer, sample counts), which only the
// result file and the printed table carry.
type report struct {
	Meta      meta              `json:"meta"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Detail    map[string]metric `json:"detail"`
	Layers    []layerRow        `json:"self_time,omitempty"`

	spans  []span
	warm   []int // per connection: statements before the measured window
	counts []int // per connection: statements sent
	tcpP50 time.Duration
}

func newReport() *report {
	return &report{Correct: true, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}, Detail: map[string]metric{}}
}

func (r *report) oracle(err error) {
	r.Correct = false
	r.Errors = append(r.Errors, err.Error())
}

func (r *report) count(t *tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed()
	if t.firstErr != nil {
		r.oracle(t.firstErr)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sorted(ds []time.Duration) []time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s
}

// tcpRun drives the TCP closed loop on a set-up system, runs the
// end-of-run oracles and fills the end-to-end metrics.
func (r *report) tcpRun(w *workload, e *env, dur time.Duration) error {
	tallies, elapsed := runTCP(w, e, dur/10, dur)
	var all, reads, writes []time.Duration
	byKind := map[string][]time.Duration{}
	var measured int
	var rowsWritten int64
	for _, t := range tallies {
		r.count(t)
		r.warm = append(r.warm, t.warm)
		r.counts = append(r.counts, t.executed)
		for kind, ls := range t.lat {
			all = append(all, ls...)
			byKind[kind] = append(byKind[kind], ls...)
			if isWrite(kind) {
				writes = append(writes, ls...)
			} else {
				reads = append(reads, ls...)
			}
		}
		measured += t.measured
		rowsWritten += t.rows
	}
	if measured == 0 || elapsed <= 0 {
		return fmt.Errorf("no statement completed in the measured window")
	}
	if _, err := e.finish(w, func(text string) (int64, error) {
		res, err := e.clients[0].Query(text)
		if err != nil {
			return 0, err
		}
		return res.Rows[0][0].I, nil
	}); err != nil {
		r.oracle(err)
	}
	all = sorted(all)
	r.tcpP50 = quantile(all, 0.5)
	r.EndToEnd["stmts_per_s"] = metric{float64(measured) / elapsed.Seconds(), "1/s"}
	r.EndToEnd["stmt_p50_ms"] = metric{ms(r.tcpP50), "ms"}
	r.EndToEnd["stmt_p95_ms"] = metric{ms(quantile(all, 0.95)), "ms"}
	r.Detail["stmt_samples"] = metric{float64(len(all)), "count"}
	for _, side := range []struct {
		name string
		lat  []time.Duration
	}{{"read", reads}, {"write", writes}} {
		if len(side.lat) == 0 {
			continue
		}
		s := sorted(side.lat)
		r.Detail[side.name+"_p50_ms"] = metric{ms(quantile(s, 0.5)), "ms"}
		r.Detail[side.name+"_p95_ms"] = metric{ms(quantile(s, 0.95)), "ms"}
		r.Detail[side.name+"_samples"] = metric{float64(len(s)), "count"}
	}
	for kind, ls := range byKind {
		r.Detail["tcp."+kind+"_p50_ms"] = metric{ms(quantile(sorted(ls), 0.5)), "ms"}
	}
	if len(writes) > 0 {
		r.Detail["rows_written_per_s"] = metric{float64(rowsWritten) / elapsed.Seconds(), "1/s"}
	}
	r.Detail["error_ratio"] = metric{float64(r.Failed) / float64(r.Attempted), "ratio"}
	r.PerLayer["session.rejected"] = metric{float64(e.db.SessionMetrics().Rejected), "count"}
	amp, err := e.spaceAmp()
	if err != nil {
		return err
	}
	r.EndToEnd["space_amp"] = metric{amp, "x"}
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.EndToEnd["live_heap_mb"] = metric{float64(mem.HeapAlloc) / 1e6, "MB"}
	return nil
}

// replayRun is one in-process replay and the layer probes taken after
// the traced one.
type replayRun struct {
	workers  []*worker
	wall     time.Duration
	sortRuns uint64
	scan     time.Duration // median Relation.Scan over emp
	lookup   time.Duration // mean Relation.Lookup on emp.id
	pages1k  float64
	lag      []uint64 // replica lag samples, in ops
	catchup  time.Duration
	applied  uint64
}

// runReplay replays the TCP run's statements in process on a fresh
// system and runs the end-of-run oracles on it.
func (r *report) runReplay(w *workload, e *env, traced bool) (*replayRun, error) {
	rr := &replayRun{}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if e.cluster != nil && traced {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					for _, rm := range e.cluster.Metrics().Replicas {
						rr.lag = append(rr.lag, rm.Lag)
					}
				}
			}
		}()
	}
	sortsBefore := e.db.SessionMetrics().SortRuns
	rr.workers, rr.wall = replay(w, e, r.counts, traced)
	close(stop)
	sampler.Wait()
	rr.sortRuns = e.db.SessionMetrics().SortRuns - sortsBefore
	for _, wk := range rr.workers {
		r.count(&wk.tally)
	}
	if traced {
		if err := r.probe(w, e, rr); err != nil {
			return nil, err
		}
	}
	catchup, err := e.finish(w, func(text string) (int64, error) {
		res, err := e.db.Query(text)
		if err != nil {
			return 0, err
		}
		return res.Values()[0][0].I, nil
	})
	if err != nil {
		r.oracle(err)
	}
	rr.catchup = catchup
	if e.cluster != nil {
		for _, rm := range e.cluster.Metrics().Replicas {
			rr.applied += rm.Ops
		}
	}
	return rr, nil
}

// probe times the storage layers directly: a full Relation.Scan of emp
// and, where emp.id has a B+-tree, Relation.Lookup on base ids.
func (r *report) probe(w *workload, e *env, rr *replayRun) error {
	emp, err := e.db.Relation("emp")
	if err != nil {
		return err
	}
	rr.pages1k = float64(emp.NumPages()) * 1000 / float64(emp.NumTuples())
	var scans []time.Duration
	for i := 0; i < 3; i++ {
		n := int64(0)
		t0 := time.Now()
		if err := emp.Scan(func(mmdb.Tuple) bool { n++; return true }); err != nil {
			return err
		}
		scans = append(scans, time.Since(t0))
		if n != emp.NumTuples() {
			r.oracle(fmt.Errorf("Relation.Scan saw %d rows, emp holds %d", n, emp.NumTuples()))
		}
	}
	rr.scan = quantile(sorted(scans), 0.5)
	if !w.IndexID {
		return nil
	}
	rng := rand.New(rand.NewPCG(w.seed, 0xb7))
	const lookups = 2000
	var total time.Duration
	for i := 0; i < lookups; i++ {
		id := rng.Int64N(int64(w.EmpRows))
		t0 := time.Now()
		rows, err := emp.Lookup("id", mmdb.IntValue(id))
		total += time.Since(t0)
		if err != nil {
			return err
		}
		if len(rows) != 1 || !slices.Equal(intRows([][]mmdb.Value{emp.Schema().Decode(rows[0])})[0], w.empRow(id)) {
			r.oracle(fmt.Errorf("Relation.Lookup(id=%d) returned %d rows", id, len(rows)))
		}
	}
	rr.lookup = total / lookups
	return nil
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Layer   string  `json:"layer"`
	Kind    string  `json:"kind"`
	N       int     `json:"n"`
	MeanUS  float64 `json:"mean_us"`
	P50US   float64 `json:"p50_us"`
	SharePc float64 `json:"share_pct"` // of the statements' summed span time
}

// kindStats sums the traced replay's statements of one kind.
type kindStats struct {
	n      int
	c      mmdb.Counters
	rows   int64
	queued []time.Duration
}

// layers turns the two replays into the per-layer metrics and the
// self-time table. Self time is a span's duration minus the part its
// child spans cover; the engine's Session.Query parses and binds again
// internally, so its self time (exec) subtracts the separately timed
// Parse and Bind of the same statement.
func (r *report) layers(w *workload, off, on *replayRun) {
	type key struct{ layer, kind string }
	self := map[key][]time.Duration{}
	var stmts, textBytes, wireBytes, grants, rowsOut float64
	var counters mmdb.Counters
	kinds := map[string]*kindStats{}
	var total time.Duration
	var offLat []time.Duration
	for i, wk := range off.workers {
		for k, rec := range wk.records {
			if k >= r.warm[i] {
				offLat = append(offLat, rec.lat)
			}
		}
	}
	for i, wk := range on.workers {
		for k, rec := range wk.records {
			b := rec.spans
			root := len(r.spans)
			r.spans = append(r.spans, span{Name: spStmt, Stmt: rec.id, Parent: -1, Start: b[0], End: b[7]})
			for j, name := range childSpans {
				r.spans = append(r.spans, span{Name: name, Stmt: rec.id, Parent: root, Start: b[j], End: b[j+1]})
			}
			if k < r.warm[i] {
				continue
			}
			dur := func(j int) time.Duration { return time.Duration(b[j+1] - b[j]) }
			parse, bind := dur(0), dur(1)
			for j, name := range childSpans {
				d := dur(j)
				kind := ""
				if name == spQuery {
					name, kind, d = "exec", rec.kind, d-parse-bind
				}
				self[key{name, kind}] = append(self[key{name, kind}], d)
			}
			total += time.Duration(b[7] - b[0])
			stmts++
			textBytes += float64(rec.textLen)
			wireBytes += float64(rec.bytes)
			grants += float64(rec.grant)
			rowsOut += float64(rec.rows)
			counters.Add(rec.counters)
			ks := kinds[rec.kind]
			if ks == nil {
				ks = &kindStats{}
				kinds[rec.kind] = ks
			}
			ks.n++
			ks.c.Add(rec.counters)
			ks.rows += rec.rows
			ks.queued = append(ks.queued, rec.queued)
		}
	}
	if stmts == 0 {
		r.oracle(fmt.Errorf("traced replay measured no statements"))
		return
	}
	keys := make([]key, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].kind < keys[j].kind
	})
	meanOf := func(layer string) float64 {
		var sum time.Duration
		for k, ds := range self {
			if k.layer == layer {
				for _, d := range ds {
					sum += d
				}
			}
		}
		return us(sum) / stmts
	}
	for _, k := range keys {
		ds := self[k]
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		r.Layers = append(r.Layers, layerRow{
			Layer: k.layer, Kind: k.kind, N: len(ds),
			MeanUS: us(sum) / float64(len(ds)), P50US: us(quantile(sorted(ds), 0.5)),
			SharePc: 100 * float64(sum) / float64(total),
		})
	}
	offP50 := quantile(sorted(offLat), 0.5)
	pl := r.PerLayer
	pl["sql.parse_us"] = metric{meanOf(spParse), "us"}
	pl["sql.bind_us"] = metric{meanOf(spBind), "us"}
	pl["sql.stmt_bytes"] = metric{textBytes / stmts, "B"}
	pl["session.admit_us"] = metric{meanOf(spAdmit), "us"}
	pl["session.release_us"] = metric{meanOf(spRelease), "us"}
	pl["session.grant_pages"] = metric{grants / stmts, "pages"}
	pl["exec.self_us"] = metric{meanOf("exec"), "us"}
	pl["exec.comps_per_stmt"] = metric{float64(counters.Comps) / stmts, "count"}
	pl["exec.hashes_per_stmt"] = metric{float64(counters.Hashes) / stmts, "count"}
	pl["exec.moves_per_stmt"] = metric{float64(counters.Moves) / stmts, "count"}
	pl["exec.swaps_per_stmt"] = metric{float64(counters.Swaps) / stmts, "count"}
	pl["exec.seq_ios_per_stmt"] = metric{float64(counters.SeqIOs) / stmts, "count"}
	pl["exec.rand_ios_per_stmt"] = metric{float64(counters.RandIOs) / stmts, "count"}
	pl["exec.comps_per_row"] = metric{float64(counters.Comps) / max(rowsOut, 1), "count"}
	pl["exec.sort_runs_per_stmt"] = metric{float64(on.sortRuns) / float64(on.statements()), "count"}
	pl["heap.scan_ms"] = metric{ms(on.scan), "ms"}
	pl["heap.pages_per_1k_rows"] = metric{on.pages1k, "pages"}
	pl["wire.encode_us"] = metric{meanOf(spEncode), "us"}
	pl["wire.decode_us"] = metric{meanOf(spDecode), "us"}
	pl["wire.bytes_per_stmt"] = metric{wireBytes / stmts, "B"}
	pl["wire.overhead_p50_us"] = metric{us(r.tcpP50 - offP50), "us"}
	pl["trace.overhead_pct"] = metric{100 * (on.wall.Seconds()/off.wall.Seconds() - 1), "%"}

	d := r.Detail
	d["direct_p50_ms"] = metric{ms(offP50), "ms"}
	names := make([]string, 0, len(kinds))
	for kind := range kinds {
		names = append(names, kind)
	}
	sort.Strings(names)
	for _, kind := range names {
		ks := kinds[kind]
		n := float64(ks.n)
		p := "exec." + kind
		d[p+".comps"] = metric{float64(ks.c.Comps) / n, "count"}
		d[p+".hashes"] = metric{float64(ks.c.Hashes) / n, "count"}
		d[p+".moves"] = metric{float64(ks.c.Moves) / n, "count"}
		d[p+".swaps"] = metric{float64(ks.c.Swaps) / n, "count"}
		d[p+".seq_ios"] = metric{float64(ks.c.SeqIOs) / n, "count"}
		d[p+".rand_ios"] = metric{float64(ks.c.RandIOs) / n, "count"}
		d[p+".comps_per_row"] = metric{float64(ks.c.Comps) / max(float64(ks.rows), 1), "count"}
		for _, row := range r.Layers {
			if row.Layer == "exec" && row.Kind == kind {
				d[p+"_us"] = metric{row.MeanUS, "us"}
			}
		}
		if kind == kTopK {
			// The sort-run delta covers the warm-up statements too.
			topk := 0
			for _, wk := range on.workers {
				for _, rec := range wk.records {
					if rec.kind == kTopK {
						topk++
					}
				}
			}
			d["exec.topk.sort_runs"] = metric{float64(on.sortRuns) / float64(topk), "count"}
		}
	}
	var queued []time.Duration
	for _, ks := range kinds {
		queued = append(queued, ks.queued...)
	}
	d["session.queued_p95_us"] = metric{us(quantile(sorted(queued), 0.95)), "us"}
	if w.IndexID {
		d["btree.lookup_us"] = metric{us(on.lookup), "us"}
	}
	if w.Replicas > 0 {
		lag := slices.Clone(on.lag)
		slices.Sort(lag)
		p95 := uint64(0)
		if len(lag) > 0 {
			p95 = lag[min(int(0.95*float64(len(lag))), len(lag)-1)]
		}
		d["repl.lag_p95_ops"] = metric{float64(p95), "ops"}
		d["repl.lag_samples"] = metric{float64(len(lag)), "count"}
		d["repl.catchup_ms"] = metric{ms(on.catchup), "ms"}
		d["repl.applied_ops"] = metric{float64(on.applied), "ops"}
	}
}

func (rr *replayRun) statements() int {
	n := 0
	for _, wk := range rr.workers {
		n += len(wk.records)
	}
	return max(n, 1)
}

// write saves the full record, and for a traced run its spans, under dir.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "0"
	if r.Meta.Trace {
		mode = "1"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%s", r.Meta.Workload, r.Meta.Seed, mode))
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	if len(r.spans) == 0 {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print writes the human-readable report, every line prefixed with '#'
// so the result line stays the only JSON object line.
func (r *report) print(w io.Writer) {
	m, _ := json.Marshal(r.Meta) // plain fields only: cannot fail
	fmt.Fprintf(w, "# meta %s\n", m)
	section := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "# %s\n", title)
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "#   %-28s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
		}
	}
	section("end to end (TCP, closed loop, tracing off)", r.EndToEnd)
	if r.Meta.Trace {
		section("per layer", r.PerLayer)
		fmt.Fprintf(w, "# self time by layer (traced in-process replay)\n")
		fmt.Fprintf(w, "#   %-16s %-8s %7s %12s %12s %8s\n", "layer", "kind", "n", "mean_us", "p50_us", "share%")
		for _, row := range r.Layers {
			fmt.Fprintf(w, "#   %-16s %-8s %7d %12.2f %12.2f %8.2f\n", row.Layer, row.Kind, row.N, row.MeanUS, row.P50US, row.SharePc)
		}
	}
	section("detail", r.Detail)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# error: %s\n", strings.ReplaceAll(e, "\n", " "))
	}
}
