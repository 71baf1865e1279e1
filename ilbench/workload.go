package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"ilsim/internal/core"
	"ilsim/internal/exp"
	"ilsim/internal/report"
	"ilsim/internal/stats"
	"ilsim/internal/workloads"
)

// benchWorkload is one named benchmark workload. Its inputs are fixed by
// (workload, scale) through the workloads package's FNV-seeded generators.
type benchWorkload struct {
	Name string
	// Scale is the measured input scale; HeldOut lists neighbouring scales
	// a --held-out seed picks from, so a claim can be re-checked on inputs
	// its author did not tune on; Tiny is the smoke-test scale.
	Scale   int
	HeldOut []int
	Tiny    int
	// Jobs lists the simulation runs one pass performs, in result order.
	Jobs func(scale int) []exp.Job
	// Engine runs the jobs on exp.New(0), as the CLIs do. Otherwise each
	// job goes through core.Simulator.Run with its own options, as the
	// programs in examples/ do.
	Engine bool
	// Report assembles and renders the paper report from the results, as
	// ilsim-report does (the jobs must be report.SuiteJobs with the oracle).
	Report bool
}

var benchWorkloads = []*benchWorkload{
	{
		Name: "suite", Scale: 2, HeldOut: []int{3, 1}, Tiny: 1,
		Jobs: func(scale int) []exp.Job {
			return report.SuiteJobs(core.DefaultConfig(), scale, true)
		},
		Engine: true, Report: true,
	},
	{
		Name: "lulesh-s8-gcn3", Scale: 8, HeldOut: []int{7, 9}, Tiny: 1,
		Jobs: func(scale int) []exp.Job {
			return []exp.Job{{Workload: "LULESH", Scale: scale, Abs: core.AbsGCN3, Config: core.DefaultConfig()}}
		},
	},
	{
		Name: "arraybw-s256", Scale: 256, HeldOut: []int{255, 257}, Tiny: 1,
		Jobs: func(scale int) []exp.Job {
			return []exp.Job{
				{Workload: "ArrayBW", Scale: scale, Abs: core.AbsHSAIL, Config: core.DefaultConfig()},
				{Workload: "ArrayBW", Scale: scale, Abs: core.AbsGCN3, Config: core.DefaultConfig()},
			}
		},
		Engine: true,
	},
}

func workloadByName(name string) (*benchWorkload, error) {
	for _, w := range benchWorkloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pass is the outcome of one end-to-end pass: one run or error per job.
type pass struct {
	Runs    []*stats.Run
	Errs    []error
	Metrics exp.Metrics // engine workloads only
}

// runPass performs one end-to-end pass through the program's public entry
// points, from submitting the jobs to verified results. With sp non-nil it
// also records spans around the module calls the pass makes itself.
func runPass(w *benchWorkload, scale int, sp spans) *pass {
	jobs := w.Jobs(scale)
	p := &pass{Runs: make([]*stats.Run, len(jobs)), Errs: make([]error, len(jobs))}
	if !w.Engine {
		for i, j := range jobs {
			var inst *workloads.Instance
			err := sp.time("workloads.prepare_s", func() (err error) {
				inst, err = prepare(j.Workload, j.Scale)
				return err
			})
			if err != nil {
				p.Errs[i] = err
				continue
			}
			p.Runs[i], p.Errs[i] = simulate(inst, j, j.Opts, sp)
		}
		return p
	}
	results, m, err := exp.New(0).Run(jobs)
	p.Metrics = m
	for i, r := range results {
		p.Runs[i], p.Errs[i] = r.Run, r.Err
		if err != nil && r.Err == nil {
			p.Errs[i] = err
		}
	}
	if w.Report {
		err := sp.time("report.render_s", func() error {
			res, err := report.Assemble(results, scale, true)
			if err == nil {
				_ = res.Markdown(core.DefaultConfig())
			}
			return err
		})
		for i := range p.Errs {
			if err != nil && p.Errs[i] == nil {
				p.Errs[i] = err
			}
		}
	}
	return p
}

// simulate runs one prepared job through core.Simulator.Run, the way the
// programs in examples/ do, and checks its output. With sp non-nil it
// times Instance.Setup by wrapping the setup argument, the rest of Run,
// the process CPU time during Run, and Instance.Check.
func simulate(inst *workloads.Instance, j exp.Job, opts core.RunOptions, sp spans) (*stats.Run, error) {
	sim, err := core.NewSimulator(j.Config)
	if err != nil {
		return nil, err
	}
	var setup time.Duration
	cpu0, start := cpuTime(), time.Now()
	run, m, err := sim.Run(j.Abs, j.Workload, func(m *core.Machine) error {
		s := time.Now()
		err := inst.Setup(m)
		setup += time.Since(s)
		return err
	}, opts)
	if sp != nil {
		total := time.Since(start)
		sp["core.setup_s"] += setup
		sp["timing.run_s"] += total - setup
		sp["run.wall"] += total
		sp["run.cpu"] += cpuTime() - cpu0
	}
	if err != nil {
		return nil, err
	}
	if err := sp.time("workloads.check_s", func() error { return inst.Check(m) }); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	return run, nil
}

// instKey names one prepared instance.
type instKey struct {
	name  string
	scale int
}

// instanceKeys lists the distinct (workload, scale) instances the jobs use,
// in first-use order.
func instanceKeys(jobs []exp.Job) []instKey {
	var keys []instKey
	seen := map[instKey]bool{}
	for _, j := range jobs {
		k := instKey{j.Workload, j.Scale}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func prepare(name string, scale int) (*workloads.Instance, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return w.Prepare(scale)
}

// expectedJSON maps "workload@scale" to job name to the sha256 of the
// job's stats.Run fingerprint, generated with --gen-fingerprints.
//
//go:embed fingerprints.json
var expectedJSON []byte

type fingerprintSet map[string]map[string]string

func expectedFingerprints() (fingerprintSet, error) {
	var fs fingerprintSet
	if err := json.Unmarshal(expectedJSON, &fs); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return fs, nil
}

func setKey(w *benchWorkload, scale int) string { return fmt.Sprintf("%s@%d", w.Name, scale) }

func runHash(r *stats.Run) string {
	sum := sha256.Sum256(r.Fingerprint())
	return hex.EncodeToString(sum[:16])
}

// verify counts the pass's failed runs: errors (including failed output
// checks) and fingerprints that differ from the recorded ones. It returns
// one line per failure naming the job that diverged.
func verify(w *benchWorkload, scale int, jobs []exp.Job, runs []*stats.Run, errs []error, want fingerprintSet) (failed int, why []string) {
	set := want[setKey(w, scale)]
	for i, j := range jobs {
		switch {
		case errs[i] != nil:
			why = append(why, fmt.Sprintf("job %s failed: %v", j, errs[i]))
		case runs[i] == nil:
			why = append(why, fmt.Sprintf("job %s returned no run", j))
		case set[j.String()] == "":
			why = append(why, fmt.Sprintf("job %s has no recorded fingerprint for %s", j, setKey(w, scale)))
		case runHash(runs[i]) != set[j.String()]:
			why = append(why, fmt.Sprintf("job %s diverged: fingerprint %s, recorded %s", j, runHash(runs[i]), set[j.String()]))
		default:
			continue
		}
		failed++
	}
	return failed, why
}

// genFingerprints runs every workload once at every scale the benchmark
// uses and returns the expected-fingerprint data.
func genFingerprints() (fingerprintSet, error) {
	fs := fingerprintSet{}
	for _, w := range benchWorkloads {
		scales := append([]int{w.Scale, w.Tiny}, w.HeldOut...)
		for _, s := range scales {
			if _, done := fs[setKey(w, s)]; done {
				continue
			}
			jobs := w.Jobs(s)
			p := runPass(w, s, nil)
			set := map[string]string{}
			for i, j := range jobs {
				if p.Errs[i] != nil {
					return nil, fmt.Errorf("%s: job %s: %w", setKey(w, s), j, p.Errs[i])
				}
				set[j.String()] = runHash(p.Runs[i])
			}
			fs[setKey(w, s)] = set
		}
	}
	return fs, nil
}
