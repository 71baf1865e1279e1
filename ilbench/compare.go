package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareRecords compares two saved outputs (each the concatenated
// standard output of one or more runs) per (workload, scale, end-to-end
// metric): both medians and quartiles over their runs, the ratio to the
// base, and a verdict against the metric's bound in BENCHMARK.json.
// Held-out runs are compared only with runs at the same scale.
func compareRecords(w io.Writer, cat *catalogue, basePath, newPath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	next, err := readRecords(newPath)
	if err != nil {
		return err
	}
	var keys []runKey
	for k := range base {
		if _, ok := next[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("no workload has untraced records at the same scale in both %s and %s", basePath, newPath)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Workload != keys[j].Workload {
			return keys[i].Workload < keys[j].Workload
		}
		return keys[i].Scale < keys[j].Scale
	})
	for _, k := range keys {
		b, n := base[k], next[k]
		fmt.Fprintf(w, "%s scale=%d: base %d runs, new %d runs\n", k.Workload, k.Scale, len(b), len(n))
		for _, rec := range append(b, n...) {
			if !rec.CapacityOK {
				fmt.Fprintf(w, "  warning: a record was taken with host capacity %.2f of %d cores; parallel speed-ups cannot be read from it\n",
					rec.HostCapacity, rec.Nproc)
				break
			}
		}
		for _, d := range cat.EndToEnd {
			bs, ns := column(b, d.Name), column(n, d.Name)
			if len(bs) == 0 || len(ns) == 0 {
				continue
			}
			sb, sn := summarize(bs), summarize(ns)
			fmt.Fprintf(w, "  %-16s base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  x%.3f of base %.6g %s  %s\n",
				d.Name, sb.Median, sb.Q1, sb.Q3, sn.Median, sn.Q1, sn.Q3,
				ratio(sn.Median, sb.Median), sb.Median, d.Unit, verdict(d, bs, ns))
		}
	}
	return nil
}

// verdict applies the benchmark's rule: a median worse than the base's by
// more than the bound is worse; a spread wider than the bound leaves the
// metric unresolved unless every new run beats every base run.
func verdict(d metricDef, base, next []float64) string {
	bound := d.Bound
	sb, sn := summarize(base), summarize(next)
	lowerBetter := d.Better == "lower"
	worse := (sn.Median - sb.Median) / sb.Median
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range next {
		for _, y := range base {
			if (lowerBetter && x >= y) || (!lowerBetter && x <= y) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && worse < 0:
		return "better"
	case sb.spread() > bound || sn.spread() > bound:
		return fmt.Sprintf("unresolved (spread %.3f/%.3f > bound %.2f)", sb.spread(), sn.spread(), bound)
	case worse > bound:
		return fmt.Sprintf("WORSE by %.1f%% (bound %.0f%%)", 100*worse, 100*bound)
	default:
		return "unchanged"
	}
}

func column(recs []record, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// runKey names the input a record measured.
type runKey struct {
	Workload string
	Scale    int
}

// readRecords collects the untraced "record" lines of a saved output, by
// workload and scale.
func readRecords(path string) (map[runKey][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[runKey][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "record ")
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			k := runKey{r.Workload, r.Scale}
			out[k] = append(out[k], r)
		}
	}
	return out, sc.Err()
}
