package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func readTestCatalogue(t *testing.T) *catalogue {
	t.Helper()
	cat, err := readCatalogue("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestSmoke runs every workload BENCHMARK.json names at its tiny scale,
// timed and traced: every named metric must come out with its unit, and no
// run may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	cat := readTestCatalogue(t)
	for _, d := range append(cat.EndToEnd, cat.PerLayer...) {
		if metricDocs[d.Name] == "" {
			t.Errorf("metric %s has no description for --list", d.Name)
		}
	}
	for _, cw := range cat.Workloads {
		w, err := workloadByName(cw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			defs := cat.defs(traced)
			rec, err := measure(w, w.Tiny, defs, traced, time.Millisecond)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			var out bytes.Buffer
			if err := rec.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%t: last line: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%t: metric %s missing or not in %s", w.Name, traced, d.Name, d.Unit)
				}
			}
		}
	}
}

// TestSummarizeMatchesPython pins the quartiles to Python's
// statistics.quantiles(data, n=4).
func TestSummarizeMatchesPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		s := summarize(c.in)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.in, s, c.q1, c.m, c.q3)
		}
	}
}

// TestCompareVerdicts checks the compare mode's verdicts on saved records,
// and that held-out runs at another scale are not pooled with the rest.
func TestCompareVerdicts(t *testing.T) {
	cat := readTestCatalogue(t)
	dir := t.TempDir()
	write := func(name string, scale int, walls ...float64) string {
		var b bytes.Buffer
		for _, v := range walls {
			line, _ := json.Marshal(record{Workload: "suite", Scale: scale, CapacityOK: true, Metrics: map[string]float64{
				"wall_s": v, "setup_s": 1, "siminsts_per_s": 1000 / v, "cpu_s": 2 * v, "alloc_mb": 100, "peak_rss_mb": 20,
			}})
			b.WriteString("record " + string(line) + "\n")
		}
		path := filepath.Join(dir, name)
		old, _ := os.ReadFile(path)
		if err := os.WriteFile(path, append(old, b.Bytes()...), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", 2, 10, 10.1, 10.2, 9.9, 10)
	for i, c := range []struct {
		walls, heldOut []float64
		want           string
	}{
		{[]float64{10, 10.1, 9.9, 10.05, 10}, nil, "unchanged"},
		{[]float64{14, 14.1, 13.9, 14, 14}, nil, "WORSE"},
		{[]float64{8, 8.1, 7.9, 8, 8}, nil, "better"},
		{[]float64{5, 15, 10, 20, 2}, nil, "unresolved"},
		{[]float64{10, 10.1, 9.9}, []float64{30, 31, 32, 33, 34}, "unchanged"},
	} {
		name := fmt.Sprintf("new%d", i)
		write(name, 3, c.heldOut...)
		var out bytes.Buffer
		if err := compareRecords(&out, cat, base, write(name, 2, c.walls...)); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out.String(), "scale=3") {
			t.Errorf("held-out runs compared without a base at their scale:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "wall_s") && !strings.Contains(line, c.want) {
				t.Errorf("walls %v: %q, want %s", c.walls, line, c.want)
			}
		}
	}
}
