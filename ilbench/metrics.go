package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef is one named benchmark metric as BENCHMARK.json lists it.
// Bound is set for end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// catalogue is the part of BENCHMARK.json the program reads: the metrics
// it must report and the bounds --compare applies.
type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readCatalogue(path string) (*catalogue, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// defs returns the metrics a timed (--trace 0) or traced run reports.
func (c *catalogue) defs(traced bool) []metricDef {
	if traced {
		return c.PerLayer
	}
	return c.EndToEnd
}

// metricDocs says what each end-to-end metric measures and which
// end-to-end metric, on which workload, a change in each layer metric
// should move. --list prints it beside BENCHMARK.json's entries.
var metricDocs = map[string]string{
	"wall_s":         "host wall time of one pass: prepare, simulate, verify (and render, on suite)",
	"setup_s":        "Workload.Prepare of every instance the workload uses, timed on its own before each pass",
	"siminsts_per_s": "simulated dynamic instructions of one pass divided by its wall_s",
	"cpu_s":          "process user+sys time during one pass",
	"alloc_mb":       "runtime TotalAlloc delta during one pass",
	"peak_rss_mb":    "peak resident set during one pass (VmHWM after clear_refs)",

	"workloads.prepare_s":          "setup_s on suite",
	"hsail.brig_s":                 "setup_s on suite",
	"kernel.cfg_s":                 "setup_s on suite",
	"finalizer.finalize_s":         "setup_s on suite",
	"gcn3.codeobj_s":               "setup_s on suite",
	"workloads.kernels":            "setup_s on suite (about 1% of wall_s elsewhere: no movement expected)",
	"workloads.check_s":            "wall_s on arraybw-s256",
	"core.setup_s":                 "wall_s on arraybw-s256",
	"hsa.dispatch_s":               "wall_s on lulesh-s8-gcn3",
	"hsa.launches":                 "wall_s on lulesh-s8-gcn3",
	"emu.functional_s":             "siminsts_per_s on all three workloads",
	"emu.execute_s":                "siminsts_per_s on all three, most on lulesh-s8-gcn3",
	"emu.insts":                    "siminsts_per_s on all three workloads",
	"emu.ns_per_inst":              "siminsts_per_s on all three workloads",
	"timing.run_s":                 "wall_s and cpu_s on lulesh-s8-gcn3",
	"timing.self_s":                "wall_s on lulesh-s8-gcn3",
	"timing.model_overhead":        "wall_s and cpu_s on lulesh-s8-gcn3",
	"timing.cpu_per_wall":          "wall_s and cpu_s on lulesh-s8-gcn3",
	"timing.sim_cycles":            "wall_s and cpu_s on lulesh-s8-gcn3",
	"mem.flush_s":                  "wall_s on arraybw-s256 (dense misses) and lulesh-s8-gcn3 (per-flush fixed cost)",
	"mem.flushes":                  "wall_s on arraybw-s256 and lulesh-s8-gcn3",
	"mem.lines":                    "wall_s on arraybw-s256 and lulesh-s8-gcn3",
	"mem.lines_per_flush":          "wall_s on arraybw-s256 and lulesh-s8-gcn3",
	"mem.ns_per_flush":             "wall_s on arraybw-s256 and lulesh-s8-gcn3",
	"mem.ns_per_line":              "wall_s on arraybw-s256 and lulesh-s8-gcn3",
	"mem.l1d_miss_rate":            "no host metric (simulated count)",
	"mem.l2_miss_rate":             "no host metric (simulated count)",
	"stats.tracking_s":             "wall_s on suite only",
	"stats.finalize_s":             "wall_s on suite only",
	"exp.job_wall_s":               "wall_s and cpu_s on suite, slightly on arraybw-s256 (0 on lulesh-s8-gcn3: no engine)",
	"exp.concurrency":              "wall_s and cpu_s on suite, slightly on arraybw-s256",
	"exp.tail_idle_s":              "wall_s and cpu_s on suite, slightly on arraybw-s256",
	"report.render_s":              "wall_s on suite (0 elsewhere: no report)",
	"host.capacity":                "nothing: every record is read against it",
	"model.ipc":                    "simulated; suite and arraybw-s256",
	"model.gcn3_over_hsail_insts":  "simulated; suite and arraybw-s256 (0 without an HSAIL run)",
	"model.gcn3_over_hsail_cycles": "simulated; suite and arraybw-s256 (0 without an HSAIL run)",
	"model.hw_err_hsail_pct":       "simulated, against the stand-in oracle; suite only",
	"model.hw_err_gcn3_pct":        "simulated, against the stand-in oracle; suite only",
}

// listMetrics prints every metric BENCHMARK.json names, with its unit
// and, for layer metrics, the end-to-end metric and workload it should
// move.
func listMetrics(w io.Writer, c *catalogue) {
	for _, part := range []struct {
		head string
		defs []metricDef
	}{
		{"end-to-end metrics (--trace 0):", c.EndToEnd},
		{"per-layer metrics (--trace 1) -> what they should move:", c.PerLayer},
	} {
		fmt.Fprintln(w, part.head)
		for _, d := range part.defs {
			fmt.Fprintf(w, "  %-30s %-10s %-6s %s\n", d.Name, d.Unit, d.Better, metricDocs[d.Name])
		}
	}
}

// summary is a sample's median and quartiles, computed the way Python's
// statistics.quantiles(data, n=4) does (the default exclusive method), so
// figures here match any script that re-derives them from records.
type summary struct {
	N              int
	Q1, Median, Q3 float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{Q1: math.NaN(), Median: math.NaN(), Q3: math.NaN()}
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	s := summary{N: len(d)}
	if len(d) == 1 {
		s.Q1, s.Median, s.Q3 = d[0], d[0], d[0]
		return s
	}
	q := func(i int) float64 {
		const n = 4
		m := len(d) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	s.Q1, s.Q3 = q(1), q(3)
	if len(d)%2 == 1 {
		s.Median = d[len(d)/2]
	} else {
		s.Median = (d[len(d)/2-1] + d[len(d)/2]) / 2
	}
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
