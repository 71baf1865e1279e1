package timing_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/workloads"
)

// TestParallelTimingDeterminism is the contract the experiment engine (-j)
// and the distributed workers rely on: simulations that run at the same
// time on separate goroutines of one process share no mutable state. Every
// workload of the Table 5 suite, under both abstractions, is simulated once
// alone and then twice concurrently — one run with cycle skipping on, one
// with it off — and all three run fingerprints must be byte-identical. The
// statistics tracked here include the order-sensitive paths (value-
// uniqueness sampling and reuse distances), so any state leaking between
// simulations shows up.
//
// Run under -race (make race does) this is also the data-race gate for
// package-level state reached from the timing core.
func TestParallelTimingDeterminism(t *testing.T) {
	names := []string{
		"ArrayBW", "BitonicSort", "CoMD", "FFT", "HPGMG",
		"LULESH", "MD", "SNAP", "SpMV", "XSBench",
	}
	if testing.Short() {
		// MD (latency-bound), SpMV (divergent), HPGMG (multi-kernel
		// stencil) cover the scheduling regimes.
		names = []string{"MD", "SpMV", "HPGMG"}
	}
	opts := core.RunOptions{TrackValues: true, ValueSampleEvery: 4, TrackReuse: true}
	cfg := core.DefaultConfig()
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
			t.Run(name+"/"+abs.String(), func(t *testing.T) {
				simulate := func(noskip bool) ([]byte, error) {
					inst, err := w.Prepare(1)
					if err != nil {
						return nil, err
					}
					sim, err := core.NewSimulator(cfg)
					if err != nil {
						return nil, err
					}
					o := opts
					o.DisableCycleSkipping = noskip
					run, m, err := sim.Run(abs, name, inst.Setup, o)
					if err != nil {
						return nil, fmt.Errorf("noskip=%v: %w", noskip, err)
					}
					if err := inst.Check(m); err != nil {
						return nil, fmt.Errorf("noskip=%v: %w", noskip, err)
					}
					return run.Fingerprint(), nil
				}
				want, err := simulate(false)
				if err != nil {
					t.Fatal(err)
				}
				var (
					wg   sync.WaitGroup
					fps  [2][]byte
					errs [2]error
				)
				for i, noskip := range []bool{false, true} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						fps[i], errs[i] = simulate(noskip)
					}()
				}
				wg.Wait()
				for i, noskip := range []bool{false, true} {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					if !bytes.Equal(fps[i], want) {
						t.Errorf("concurrent run noskip=%v: fingerprint diverges from the run made alone:\n%s",
							noskip, diffLines(want, fps[i]))
					}
				}
			})
		}
	}
}

// diffLines returns the fingerprint lines that differ, keeping failure
// output readable (fingerprints run to hundreds of lines).
func diffLines(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			fmt.Fprintf(&out, "-%s\n+%s\n", wl, gl)
		}
	}
	return out.String()
}
