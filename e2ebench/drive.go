package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mmdb"
	sqlfront "mmdb/internal/sql"
	"mmdb/internal/tuple"
	"mmdb/internal/wire"
)

// tally is one connection's (or replay worker's) record of a run.
type tally struct {
	executed  int // statements sent, warm-up included: the replay length
	warm      int // statements started before the measured window
	attempted int
	errors    int // statement errors, overloads excluded
	overloads int
	wrong     int // answers an oracle rejected
	firstErr  error

	// Measured window only (statements started after warm-up).
	lat      map[string][]time.Duration // by kind
	measured int
	rows     int64 // rows inserted plus deleted
	last     time.Time
}

func newTally() *tally { return &tally{lat: map[string][]time.Duration{}} }

func (t *tally) fail(err error, overload, wrong bool) {
	switch {
	case overload:
		t.overloads++
	case wrong:
		t.wrong++
	default:
		t.errors++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) failed() int { return t.errors + t.overloads + t.wrong }

// runTCP drives the workload over the wire in a closed loop: each
// connection sends its next statement only after the previous reply.
// Statements started in the first warm interval are checked but not
// measured; the measured window then lasts dur.
func runTCP(w *workload, e *env, warm, dur time.Duration) ([]*tally, time.Duration) {
	tallies := make([]*tally, len(e.clients))
	start := time.Now()
	measureFrom, end := start.Add(warm), start.Add(warm+dur)
	var wg sync.WaitGroup
	for i, c := range e.clients {
		t := newTally()
		tallies[i] = t
		next := w.stream(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				st := next()
				t0 := time.Now()
				res, err := c.Query(st.text)
				lat := time.Since(t0)
				t.executed++
				t.attempted++
				measured := !t0.Before(measureFrom)
				if !measured {
					t.warm++
				}
				if err != nil {
					t.fail(fmt.Errorf("%s %q: %w", st.kind, abbrev(st.text), err), errors.Is(err, mmdb.ErrOverloaded), false)
					continue
				}
				if err := st.check(answer{rows: intRows(res.Rows), affected: res.Affected, counters: res.Counters}); err != nil {
					t.fail(fmt.Errorf("%s %q: wrong answer: %w", st.kind, abbrev(st.text), err), false, true)
					continue
				}
				if !measured {
					continue
				}
				t.lat[st.kind] = append(t.lat[st.kind], lat)
				t.measured++
				if isWrite(st.kind) {
					t.rows += res.Affected
				}
				t.last = t0.Add(lat)
			}
		}()
	}
	wg.Wait()
	last := measureFrom
	for _, t := range tallies {
		if t.last.After(last) {
			last = t.last
		}
	}
	return tallies, last.Sub(measureFrom)
}

func abbrev(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

// Span names. A statement's root span covers its child spans end to end.
const (
	spStmt    = "stmt"
	spParse   = "sql.parse"
	spBind    = "sql.bind"
	spAdmit   = "session.admit"
	spQuery   = "session.query"
	spRelease = "session.release"
	spEncode  = "wire.encode"
	spDecode  = "wire.decode"
)

// The boundaries of one in-process statement, in order; consecutive
// boundaries delimit the child spans.
var childSpans = []string{spParse, spBind, spAdmit, spQuery, spRelease, spEncode, spDecode}

// span is one recorded interval. Parent indexes the written span list
// (-1 for a root); times are nanoseconds since the replay began.
type span struct {
	Name   string `json:"name"`
	Stmt   int64  `json:"stmt"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// stmtRecord is what the traced replay keeps per statement besides its
// spans.
type stmtRecord struct {
	id       int64
	kind     string
	bytes    int // wire bytes of the request and response frames
	textLen  int
	rows     int64 // rows returned, or affected for writes
	counters mmdb.Counters
	grant    int
	queued   time.Duration
	lat      time.Duration // admission to decoded result, as over TCP
	spans    [8]int64      // boundaries, ns since replay start (traced only)
}

// worker is one replay goroutine's state; nothing in it is shared.
type worker struct {
	tally
	base    time.Time
	traced  bool
	records []stmtRecord
}

// catalogOf adapts a database to the binder's resolver, the same
// adaptation Session.Query makes internally.
type catalogOf struct{ db *mmdb.Database }

func (c catalogOf) Table(name string) (*tuple.Schema, bool) {
	r, err := c.db.Relation(name)
	if err != nil {
		return nil, false
	}
	return r.Schema(), true
}

// replay runs counts[i] statements of connection i's stream in process,
// one goroutine per connection, through the same calls the wire server
// and client make: Parse and Bind (timed separately, as the engine
// re-parses inside Session.Query), admission, Session.Query, Close, and
// the wire encoding and decoding of request and result. With traced set
// every call boundary is recorded as a span; otherwise only each
// statement's latency is taken, so the two replays differ by tracing
// alone.
func replay(w *workload, e *env, counts []int, traced bool) ([]*worker, time.Duration) {
	workers := make([]*worker, len(counts))
	start := time.Now()
	var wg sync.WaitGroup
	for i, n := range counts {
		wk := &worker{tally: *newTally(), base: start, traced: traced}
		workers[i] = wk
		next := w.stream(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				st := next()
				wk.executed++
				wk.attempted++
				a, err := wk.exec(e, st, int64(i)<<32|int64(k))
				if err != nil {
					wk.fail(fmt.Errorf("%s %q: %w", st.kind, abbrev(st.text), err), errors.Is(err, mmdb.ErrOverloaded), false)
					continue
				}
				if err := st.check(a); err != nil {
					wk.fail(fmt.Errorf("%s %q: wrong answer: %w", st.kind, abbrev(st.text), err), false, true)
				}
			}
		}()
	}
	wg.Wait()
	return workers, time.Since(start)
}

func (wk *worker) mark(b *[8]int64, i int) {
	if wk.traced {
		b[i] = int64(time.Since(wk.base))
	}
}

// exec runs one statement in process and records it.
func (wk *worker) exec(e *env, st stmt, id int64) (answer, error) {
	rec := stmtRecord{id: id, kind: st.kind, textLen: len(st.text)}
	b := &rec.spans
	wk.mark(b, 0)
	parsed, err := sqlfront.Parse(st.text)
	if err != nil {
		return answer{}, err
	}
	wk.mark(b, 1)
	if _, err := sqlfront.Bind(parsed, catalogOf{e.db}); err != nil {
		return answer{}, err
	}
	wk.mark(b, 2)
	t0 := time.Now()
	sess, err := e.newSession(st.text)
	if err != nil {
		return answer{}, err
	}
	wk.mark(b, 3)
	res, err := sess.Query(st.text)
	rec.grant = sess.GrantedPages()
	rec.queued = sess.QueuedFor()
	wk.mark(b, 4)
	sess.Close()
	wk.mark(b, 5)
	if err != nil {
		return answer{}, err
	}
	frames := encode(st.text, res)
	wk.mark(b, 6)
	a, err := decode(frames)
	if err != nil {
		return answer{}, err
	}
	wk.mark(b, 7)
	rec.lat = time.Since(t0)
	for _, f := range frames {
		rec.bytes += 5 + len(f) // u32 length + type byte + payload
	}
	rec.rows = int64(len(res.Rows))
	if res.Schema == nil {
		rec.rows = res.Affected
	}
	rec.counters = res.Counters
	wk.records = append(wk.records, rec)
	return a, nil
}

// encode renders the frames a statement puts on the wire: the client's
// QUERY, then the server's RESULT, ROWS batches and DONE.
func encode(text string, res *mmdb.SQLResult) [][]byte {
	frames := [][]byte{wire.EncodeQuery(wire.Query{Class: wire.ClassDefault, SQL: text})}
	head := wire.Result{Affected: res.Affected}
	if res.Schema != nil {
		for i := 0; i < res.Schema.NumFields(); i++ {
			f := res.Schema.Field(i)
			head.Fields = append(head.Fields, wire.FieldDesc{Name: f.Name, Kind: f.Kind, Size: uint16(f.Size)})
		}
	}
	frames = append(frames, wire.EncodeResult(head))
	for i := 0; i < len(res.Rows); i += wire.RowBatch {
		frames = append(frames, wire.EncodeRows(res.Rows[i:min(i+wire.RowBatch, len(res.Rows))]))
	}
	c := res.Counters
	return append(frames, wire.EncodeDone(wire.Done{
		RowCount: uint32(len(res.Rows)),
		Counters: [6]int64{c.Comps, c.Hashes, c.Moves, c.Swaps, c.SeqIOs, c.RandIOs},
	}))
}

// decode parses the frames back the way the server and client do.
func decode(frames [][]byte) (answer, error) {
	if _, err := wire.DecodeQuery(frames[0]); err != nil {
		return answer{}, err
	}
	head, err := wire.DecodeResult(frames[1])
	if err != nil {
		return answer{}, err
	}
	schema, err := head.Schema()
	if err != nil {
		return answer{}, err
	}
	a := answer{affected: head.Affected}
	for _, f := range frames[2 : len(frames)-1] {
		rows, err := wire.DecodeRows(f, schema)
		if err != nil {
			return answer{}, err
		}
		for _, t := range rows {
			a.rows = append(a.rows, intRows([][]mmdb.Value{schema.Decode(t)})[0])
		}
	}
	done, err := wire.DecodeDone(frames[len(frames)-1])
	if err != nil {
		return answer{}, err
	}
	d := done.Counters
	a.counters = mmdb.Counters{Comps: d[0], Hashes: d[1], Moves: d[2], Swaps: d[3], SeqIOs: d[4], RandIOs: d[5]}
	return a, nil
}
