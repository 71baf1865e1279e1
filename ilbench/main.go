// Command ilbench is the repository's benchmark. It runs one named workload
// through the simulator's public entry points and reports host-time
// end-to-end metrics (--trace 0) or a per-layer split of host time from a
// separate traced run (--trace 1), checking every simulated run against
// the fingerprints recorded in fingerprints.json.
//
// Usage, from the repository root:
//
//	bash ilbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
//	bash ilbench/run.sh --workload arraybw-s256 --seed 2 --held-out   # neighbouring scale
//	bash ilbench/run.sh --list                                        # every metric by name
//	bash ilbench/run.sh --compare base.txt new.txt                    # two saved outputs
//	bash ilbench/run.sh --gen-fingerprints ilbench/fingerprints.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it starts with
// "record " and carries the same metrics with the workload, scale, seed and
// host-capacity probe; --compare reads those lines. See README.md for why
// each workload was chosen and which end-to-end metric each layer moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ilbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: suite, lulesh-s8-gcn3 or arraybw-s256")
	seed := fs.Int("seed", 1, "workload seed; with --held-out it picks the neighbouring scale")
	seconds := fs.Int("seconds", 10, "how long the timed passes run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	heldOut := fs.Bool("held-out", false, "run a neighbouring scale the seed selects instead of the measured one")
	list := fs.Bool("list", false, "print every metric by name, with its unit and what it should move")
	compare := fs.Bool("compare", false, "compare two saved outputs: --compare BASE NEW")
	bench := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json: the metrics to report and the bounds --compare applies")
	gen := fs.String("gen-fingerprints", "", "run every workload at every scale and write the expected fingerprints here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *gen != "" {
		set, err := genFingerprints()
		if err == nil {
			var data []byte
			data, err = json.MarshalIndent(set, "", "  ")
			if err == nil {
				err = os.WriteFile(*gen, append(data, '\n'), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ilbench:", err)
			return 1
		}
		return 0
	}
	cat, err := readCatalogue(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ilbench:", err)
		return 1
	}
	switch {
	case *list:
		listMetrics(os.Stdout, cat)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "ilbench: --compare needs two files: BASE NEW")
			return 2
		}
		if err := compareRecords(os.Stdout, cat, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "ilbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "ilbench: need --workload (suite, lulesh-s8-gcn3, arraybw-s256), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	scale := w.Scale
	if *heldOut {
		scale = w.HeldOut[((*seed%len(w.HeldOut))+len(w.HeldOut))%len(w.HeldOut)]
	}
	rec, err := measure(w, scale, cat.defs(*trace == 1), *trace == 1, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ilbench:", err)
		return 1
	}
	rec.Seed, rec.HeldOut = *seed, *heldOut
	if err := rec.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ilbench:", err)
		return 1
	}
	return 0
}

// record is one run's outcome as the compare mode reads it back.
type record struct {
	Workload     string             `json:"workload"`
	Scale        int                `json:"scale"`
	Seed         int                `json:"seed"`
	HeldOut      bool               `json:"held_out"`
	Trace        bool               `json:"trace"`
	Nproc        int                `json:"nproc"`
	HostCapacity float64            `json:"host_capacity"`
	CapacityOK   bool               `json:"capacity_ok"`
	Metrics      map[string]float64 `json:"metrics"`

	res  *result
	host capacity
	defs []metricDef
}

// measure probes the host, then makes the timed or the traced run and
// reports the metrics defs names.
func measure(w *benchWorkload, scale int, defs []metricDef, traced bool, dur time.Duration) (*record, error) {
	want, err := expectedFingerprints()
	if err != nil {
		return nil, err
	}
	host, err := probeCapacity()
	if err != nil {
		return nil, err
	}
	var res *result
	if traced {
		res, err = tracedRun(w, scale, want)
	} else {
		res, err = timedRun(w, scale, dur, want)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		res.add("host.capacity", host.Cores)
	}
	rec := &record{
		Workload: w.Name, Scale: scale, Trace: traced,
		Nproc: host.Nproc, HostCapacity: host.Cores, CapacityOK: host.OK(),
		Metrics: map[string]float64{}, res: res, host: host, defs: defs,
	}
	for _, d := range defs {
		s, ok := res.Samples[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rec.Metrics[d.Name] = summarize(s).Median
	}
	return rec, nil
}

// print writes the human-readable report, the record line and, last, the
// result object.
func (rec *record) print(f io.Writer) error {
	res := rec.res
	fmt.Fprintf(f, "ilbench %s scale=%d seed=%d held_out=%t trace=%t\n",
		rec.Workload, rec.Scale, rec.Seed, rec.HeldOut, rec.Trace)
	fmt.Fprintln(f, rec.host)
	for _, d := range rec.defs {
		s := summarize(res.Samples[d.Name])
		if s.N > 1 {
			fmt.Fprintf(f, "  %-30s %14.6g %-10s q1 %.6g q3 %.6g n=%d\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
		} else {
			fmt.Fprintf(f, "  %-30s %14.6g %s\n", d.Name, s.Median, d.Unit)
		}
	}
	fmt.Fprintf(f, "  %-30s %14d count\n  %-30s %14d count\n", "ops", res.Attempted, "failed_ops", res.Failed)
	for _, n := range res.Notes {
		fmt.Fprintln(f, "note:", n)
	}
	for _, why := range res.Why {
		fmt.Fprintln(f, "FAILED:", why)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "record %s\n", line)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, d := range rec.defs {
		out.Metrics[d.Name] = value{rec.Metrics[d.Name], d.Unit}
	}
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}
