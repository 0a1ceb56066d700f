// Command e2ebench drives the SQL front door the way mmdserver's users
// do — an in-process wire server on loopback, sqlclient connections in a
// closed loop — and reports end-to-end metrics for one named workload.
// With -trace 1 it instead replays the same seeded statement stream in
// process, with spans off and then on, and reports per-layer metrics.
//
//	e2ebench -workload oltp -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A wrong answer, a
// failed statement or a failed end-of-run oracle makes the command exit
// with status 1 after printing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the command's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta records the host, build and configuration a result came from.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Config     spec    `json:"config"`
}

type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	scale    int // divides data sizes (smoke test); 0 or 1 = full size
	out      string
	commit   string
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: oltp, analytic or ingest")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the data and statement streams")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced in-process replay with per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "e2ebench-results"), "directory for result and span files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit the program was built from")
	flag.Parse()
	cfg.dur = time.Duration(seconds) * time.Second
	cfg.trace = trace != 0
	os.Exit(run(cfg, os.Stdout))
}

// run executes one benchmark run, writes its result and span files under
// cfg.out, prints the report and the result line to stdout, and returns
// the exit status.
func run(cfg config, stdout io.Writer) int {
	s, ok := specs[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want oltp, analytic or ingest)\n", cfg.workload)
		return 2
	}
	s = s.scaled(cfg.scale)
	m := meta{
		Workload: s.Name, Seed: cfg.seed, Seconds: cfg.dur.Seconds(), Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: cfg.commit, Config: s,
	}
	w := newWorkload(s, cfg.seed)
	var rep *report
	var err error
	if cfg.trace {
		rep, err = traced(w, cfg.dur)
	} else {
		rep, err = measure(w, cfg.dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", s.Name, err)
		return 1
	}
	rep.Meta = m
	if err := rep.write(cfg.out); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	rep.print(stdout)
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.EndToEnd}
	if cfg.trace {
		res.Metrics = rep.PerLayer
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// measure is the untraced run: set up Setups times (setup_s is their
// median), then drive the last set-up system over TCP for dur.
func measure(w *workload, dur time.Duration) (*report, error) {
	rep := newReport()
	var setups []float64
	var e *env
	for i := 0; i < w.Setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = open(w, true); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	sort.Float64s(setups)
	rep.EndToEnd["setup_s"] = metric{setups[len(setups)/2], "s"}
	if err := rep.tcpRun(w, e, dur); err != nil {
		return nil, err
	}
	return rep, e.close()
}

// traced drives the TCP run once for its latency, then replays the same
// statements in process on fresh set-ups: with spans off, then on.
func traced(w *workload, dur time.Duration) (*report, error) {
	rep := newReport()
	e, err := open(w, true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	err = rep.tcpRun(w, e, dur)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var off, on *replayRun
	for _, tracedRun := range []bool{false, true} {
		w.ledger = newLedger()
		runtime.GC()
		e, err := open(w, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r, err := rep.runReplay(w, e, tracedRun)
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if tracedRun {
			on = r
		} else {
			off = r
		}
	}
	rep.layers(w, off, on)
	return rep, nil
}
