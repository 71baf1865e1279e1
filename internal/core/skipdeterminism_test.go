package core_test

import (
	"bytes"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/workloads"
)

// TestCycleSkippingDeterminism proves the event-driven fast path is a pure
// speedup: running with cycle skipping disabled (every cycle ticked) and
// enabled (inert spans jumped) must produce byte-identical statistics for
// every workload of the Table 5 suite under both abstractions. Value and
// reuse tracking are on, so the order-sensitive statistics (value-
// uniqueness sampling, reuse distances) are compared too. Under -short, MD
// (long-latency-bound: deep waitcnt/scoreboard waits, the spans the skipper
// elides), LULESH (launch-bound: many small kernels, so dispatch and drain
// edges repeat often), SpMV (divergent) and HPGMG (multi-kernel stencil)
// cover the scheduling regimes.
func TestCycleSkippingDeterminism(t *testing.T) {
	names := []string{
		"ArrayBW", "BitonicSort", "CoMD", "FFT", "HPGMG",
		"LULESH", "MD", "SNAP", "SpMV", "XSBench",
	}
	if testing.Short() {
		names = []string{"MD", "LULESH", "SpMV", "HPGMG"}
	}
	opts := core.RunOptions{TrackValues: true, ValueSampleEvery: 4, TrackReuse: true}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, abs := range []core.Abstraction{core.AbsHSAIL, core.AbsGCN3} {
			t.Run(name+"/"+abs.String(), func(t *testing.T) {
				var fps [2][]byte
				for i, noskip := range []bool{true, false} {
					inst, err := w.Prepare(1)
					if err != nil {
						t.Fatal(err)
					}
					sim, err := core.NewSimulator(core.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					o := opts
					o.DisableCycleSkipping = noskip
					run, m, err := sim.Run(abs, name, inst.Setup, o)
					if err != nil {
						t.Fatal(err)
					}
					if err := inst.Check(m); err != nil {
						t.Fatal(err)
					}
					fps[i] = run.Fingerprint()
				}
				if !bytes.Equal(fps[0], fps[1]) {
					t.Errorf("fingerprint differs between ticked and skipped runs:\n-- noskip --\n%s\n-- skip --\n%s",
						fps[0], fps[1])
				}
			})
		}
	}
}
