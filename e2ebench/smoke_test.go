package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json at tiny sizes, untraced
// and traced, and checks that every oracle passes and that the result
// line carries exactly the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, wl := range bf.Workloads {
		for _, seed := range []uint64{1, 2} {
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				cfg := config{workload: wl.Name, seed: seed, dur: 300 * time.Millisecond, trace: trace,
					scale: 50, out: t.TempDir(), commit: "test"}
				if code := run(cfg, &out); code != 0 {
					t.Fatalf("%s seed %d trace %v: exit %d\n%s", wl.Name, seed, trace, code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				for _, l := range lines[:len(lines)-1] {
					if !strings.HasPrefix(l, "#") {
						t.Errorf("%s: report line %q is not a comment", wl.Name, l)
					}
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("%s: last line: %v", wl.Name, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("%s seed %d trace %v: correct=%v failed=%d attempted=%d\n%s",
						wl.Name, seed, trace, res.Correct, res.Failed, res.Attempted, out.String())
				}
				if len(res.Metrics) != len(want[trace]) {
					t.Errorf("%s trace %v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want[trace]))
				}
				for name, unit := range want[trace] {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("%s trace %v: metric %s missing", wl.Name, trace, name)
					} else if m.Unit != unit {
						t.Errorf("%s trace %v: metric %s unit %q, want %q", wl.Name, trace, name, m.Unit, unit)
					}
				}
			}
		}
	}
}

// TestOraclesRejectWrongAnswers feeds each statement kind a corrupted
// answer; every oracle must refuse it.
func TestOraclesRejectWrongAnswers(t *testing.T) {
	oltp := newWorkload(specs["oltp"].scaled(50), 1)
	analytic := newWorkload(specs["analytic"].scaled(50), 1)
	point := oltp.point(3)
	rng := oltp.rangeSel(5)
	var rangeRows [][]int64
	for id := int64(5); id < 5+int64(oltp.RangeWidth); id++ {
		rangeRows = append(rangeRows, oltp.empRow(id))
	}
	join := analytic.join(analytic.windows[0])
	group := analytic.groupBy(analytic.floors[0])
	top := analytic.topK(analytic.topDepts[0])
	topRows := func(salaryDelta int64) [][]int64 {
		var rows [][]int64
		for _, s := range analytic.topRef[analytic.topDepts[0]] {
			for id, sal := range analytic.data.salary {
				if sal == s && analytic.data.deptOf[id] == analytic.topDepts[0] {
					rows = append(rows, []int64{int64(id), analytic.topDepts[0], sal + salaryDelta})
					break
				}
			}
		}
		return rows
	}
	cases := []struct {
		name  string
		st    stmt
		right answer
		wrong answer
	}{
		{"point", point, answer{rows: [][]int64{oltp.empRow(3)}}, answer{rows: [][]int64{{3, 0, 0}}}},
		{"range", rng, answer{rows: rangeRows}, answer{rows: rangeRows[1:]}},
		{"insert", oltp.insert([][3]int64{{1, 2, 3}}), answer{affected: 1}, answer{affected: 0}},
		{"groupby", group, answer{rows: analytic.groupRef[analytic.floors[0]]}, answer{rows: analytic.groupRef[analytic.floors[0]][1:]}},
		{"topk", top, answer{rows: topRows(0)}, answer{rows: topRows(1)}},
		{"join", join, answer{}, answer{rows: [][]int64{{-1, -1, -1}}}},
	}
	for _, c := range cases {
		if c.name != "join" {
			if err := c.st.check(c.right); err != nil {
				t.Errorf("%s: right answer refused: %v", c.name, err)
			}
		}
		if err := c.st.check(c.wrong); err == nil {
			t.Errorf("%s: wrong answer accepted", c.name)
		}
	}
	// A repeated analytic statement must bill the same counters.
	g := analytic.groupBy(analytic.floors[1])
	ok := answer{rows: analytic.groupRef[analytic.floors[1]]}
	ok.counters.Comps = 10
	if err := g.check(ok); err != nil {
		t.Fatal(err)
	}
	ok.counters.Comps = 11
	if err := g.check(ok); err == nil {
		t.Error("changed counters for a repeated statement accepted")
	}
}
