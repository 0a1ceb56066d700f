package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"mmdb"
	"mmdb/internal/wire"
	"mmdb/sqlclient"
)

// env is one set-up system: the database (or cluster front door), and
// for the TCP run an in-process wire server with its client connections.
type env struct {
	db      *mmdb.Database // the primary
	cluster *mmdb.Cluster
	srv     *wire.Server
	served  chan error
	clients []*sqlclient.Client
}

// open builds the system a workload runs on: open, load, build indexes
// and, when withTCP is set, listen and dial one client per connection.
// Everything it does is what setup_s times.
func open(w *workload, withTCP bool) (*env, error) {
	opts := mmdb.Options{MemoryPages: w.MemoryPages, MaxConcurrentQueries: w.Slots}
	e := &env{}
	if w.Replicas > 0 {
		c, err := mmdb.OpenCluster(opts, w.Replicas)
		if err != nil {
			return nil, err
		}
		e.cluster, e.db = c, c.Primary()
	} else {
		db, err := mmdb.Open(opts)
		if err != nil {
			return nil, err
		}
		e.db = db
	}
	if err := e.load(w); err != nil {
		e.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	if !withTCP {
		return e, nil
	}
	e.srv = &wire.Server{DB: e.db, Cluster: e.cluster, Name: "e2ebench"}
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve() }()
	for i := 0; i < w.Conns; i++ {
		c, err := sqlclient.Dial(addr.String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

func (e *env) load(w *workload) error {
	d := w.data
	emp, err := e.db.CreateRelation("emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "dept", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64}))
	if err != nil {
		return err
	}
	for id := range d.deptOf {
		if err := emp.Insert(mmdb.IntValue(int64(id)), mmdb.IntValue(d.deptOf[id]), mmdb.IntValue(d.salary[id])); err != nil {
			return err
		}
	}
	if err := emp.Flush(); err != nil {
		return err
	}
	if w.IndexID {
		if err := emp.CreateIndex("id", mmdb.BTree); err != nil {
			return err
		}
	}
	if w.DeptRows > 0 {
		dept, err := e.db.CreateRelation("dept", mmdb.MustSchema(
			mmdb.Field{Name: "id", Kind: mmdb.Int64},
			mmdb.Field{Name: "budget", Kind: mmdb.Int64}))
		if err != nil {
			return err
		}
		for id, b := range d.budget {
			if err := dept.Insert(mmdb.IntValue(int64(id)), mmdb.IntValue(b)); err != nil {
				return err
			}
		}
		if err := dept.Flush(); err != nil {
			return err
		}
	}
	if w.ProjRows > 0 {
		proj, err := e.db.CreateRelation("proj", mmdb.MustSchema(
			mmdb.Field{Name: "emp", Kind: mmdb.Int64},
			mmdb.Field{Name: "hours", Kind: mmdb.Int64}))
		if err != nil {
			return err
		}
		for i, emp := range d.projEmp {
			if err := proj.Insert(mmdb.IntValue(emp), mmdb.IntValue(d.projHours[i])); err != nil {
				return err
			}
		}
		if err := proj.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// close stops the server, its connections and the cluster's appliers,
// and waits for each to end. Closing twice is harmless.
func (e *env) close() error {
	var errs []error
	for _, c := range e.clients {
		errs = append(errs, c.Close())
	}
	if e.srv != nil {
		errs = append(errs, e.srv.Close())
		if e.served != nil {
			errs = append(errs, <-e.served)
		}
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
	e.clients, e.srv, e.served = nil, nil, nil
	return errors.Join(errs...)
}

// newSession admits a session the way the wire server does for text.
func (e *env) newSession(text string) (*mmdb.Session, error) {
	if e.cluster != nil {
		return e.cluster.SessionFor(context.Background(), text)
	}
	return e.db.NewSession(context.Background())
}

// spaceAmp is heap bytes over live tuple bytes across the primary's user
// relations.
func (e *env) spaceAmp() (float64, error) {
	var heapBytes, tupleBytes float64
	for _, name := range e.db.Relations() {
		if strings.HasPrefix(name, "sql.tmp.") {
			continue
		}
		r, err := e.db.Relation(name)
		if err != nil {
			return 0, err
		}
		heapBytes += float64(r.NumPages()) * float64(e.db.Options().PageSize)
		tupleBytes += float64(r.NumTuples()) * float64(r.Schema().Width())
	}
	if tupleBytes == 0 {
		return 0, fmt.Errorf("no live tuples")
	}
	return heapBytes / tupleBytes, nil
}

// finish runs the end-of-run oracles on a quiesced system: replicas
// caught up and byte-identical to the primary, and the write ledger
// matching what the primary holds. It returns the replica catch-up time.
func (e *env) finish(w *workload, count func(text string) (int64, error)) (time.Duration, error) {
	var catchup time.Duration
	if e.cluster != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		t0 := time.Now()
		err := e.cluster.WaitCaughtUp(ctx)
		catchup = time.Since(t0)
		cancel()
		if err != nil {
			return 0, fmt.Errorf("WaitCaughtUp: %w", err)
		}
		if err := e.cluster.VerifyReplicas(); err != nil {
			return 0, fmt.Errorf("VerifyReplicas: %w", err)
		}
	}
	l := w.ledger
	l.mu.Lock()
	inserted, deleted := l.inserted, l.deleted
	l.mu.Unlock()
	fresh, err := count(fmt.Sprintf("SELECT COUNT(*) FROM emp WHERE id >= %d", w.EmpRows))
	if err != nil {
		return 0, err
	}
	if deleted+fresh != inserted {
		return 0, fmt.Errorf("write ledger: %d deleted + %d fresh rows left != %d inserted", deleted, fresh, inserted)
	}
	emp, err := e.db.Relation("emp")
	if err != nil {
		return 0, err
	}
	if n := emp.NumTuples(); n != int64(w.EmpRows)+fresh {
		return 0, fmt.Errorf("emp holds %d rows, want %d base + %d fresh", n, w.EmpRows, fresh)
	}
	return catchup, nil
}
