// Package core is the public face of the simulator: it prepares kernels for
// both abstractions (compiling HSAIL through the finalizer and loading both
// binaries), drives kernel launches through the HSA runtime substrate, runs
// them on the shared timing model, and assembles the statistics the paper's
// figures report.
package core

import "fmt"

// Config is the simulated system configuration. Defaults reproduce the
// paper's Table 4.
type Config struct {
	// NumCUs is the number of compute units.
	NumCUs int
	// SIMDsPerCU is the number of 16-lane SIMD engines per CU.
	SIMDsPerCU int
	// WFSlots is the number of wavefront slots per CU.
	WFSlots int
	// VRFBanks is the number of vector-register-file banks per CU, used
	// by the operand-collector conflict model.
	VRFBanks int
	// IBEntries is the per-wavefront instruction buffer capacity.
	IBEntries int
	// FetchWidth is the number of wavefronts the fetch stage may service
	// per cycle per CU.
	FetchWidth int

	// L1DSize / L1DWays: per-CU data cache (fully associative when
	// L1DWays <= 0, per Table 4).
	L1DSize int
	L1DWays int
	// L1ISize / L1IWays: instruction cache shared per 4 CUs.
	L1ISize int
	L1IWays int
	// ScalarL1Size / ScalarL1Ways: scalar data cache shared per 4 CUs.
	ScalarL1Size int
	ScalarL1Ways int
	// L2Size / L2Ways: shared L2, write-through per Table 4 (write-back
	// for read-write data is approximated as write-back).
	L2Size int
	L2Ways int
	// L2Banks set-interleaves the L2 into independent banks, each with its
	// own request port; with DRAM channels they are the units the phase-2
	// drain replays bank by bank.
	L2Banks int
	// DRAMChannels / DRAMLatency / DRAMOccupancy: memory channels and
	// per-access timing in GPU cycles.
	DRAMChannels  int
	DRAMLatency   int64
	DRAMOccupancy int64

	// Latencies in GPU cycles.
	L1HitLatency     int64
	L2HitLatency     int64
	ScalarHitLatency int64
	LDSLatency       int64

	// GPUClockMHz scales cycle counts to time for reports.
	GPUClockMHz int
}

// DefaultConfig returns the paper's Table 4 system.
func DefaultConfig() Config {
	return Config{
		NumCUs:     8,
		SIMDsPerCU: 4,
		WFSlots:    40,
		VRFBanks:   16,
		IBEntries:  8,
		FetchWidth: 1,

		L1DSize: 16 << 10, L1DWays: 0, // fully associative
		// §V.C: "the GCN3 instruction footprint significantly exceeds the
		// L1 instruction cache size of 16KB" — the text's 16KB governs.
		L1ISize: 16 << 10, L1IWays: 8,
		ScalarL1Size: 32 << 10, ScalarL1Ways: 8,
		L2Size: 512 << 10, L2Ways: 16, L2Banks: 8,
		DRAMChannels: 32, DRAMLatency: 160, DRAMOccupancy: 4,

		L1HitLatency: 16, L2HitLatency: 64, ScalarHitLatency: 16,
		LDSLatency: 8,

		GPUClockMHz: 800,
	}
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.NumCUs <= 0 || c.SIMDsPerCU <= 0 || c.WFSlots <= 0 {
		return fmt.Errorf("core: non-positive CU geometry")
	}
	if c.VRFBanks <= 0 || c.IBEntries <= 0 || c.FetchWidth <= 0 {
		return fmt.Errorf("core: non-positive front-end geometry")
	}
	if c.DRAMChannels <= 0 {
		return fmt.Errorf("core: need at least one DRAM channel")
	}
	if c.L2Banks < 0 {
		return fmt.Errorf("core: negative L2 bank count")
	}
	return nil
}

// DrainWidth returns the widest phase-2 drain wave this configuration
// produces — level-1 cache banks (per-CU L1Ds plus the per-4-CU I- and
// scalar caches), L2 banks, or DRAM channels.
//
// Deprecated: kept only because the ilbench module still calls it.
func (c Config) DrainWidth() int {
	nShared := (c.NumCUs + 3) / 4
	w := c.NumCUs + 2*nShared
	if c.L2Banks > w {
		w = c.L2Banks
	}
	if c.DRAMChannels > w {
		w = c.DRAMChannels
	}
	return w
}

// String summarizes the configuration in a Table 4-like block.
func (c Config) String() string {
	return fmt.Sprintf(
		"%d CUs @ %d MHz, %d SIMDs/CU, %d WF slots, %d VRF banks\n"+
			"L1D %dKB, I$ %dKB/4CUs, sL1 %dKB/4CUs, L2 %dKB x%d banks, DRAM %d ch",
		c.NumCUs, c.GPUClockMHz, c.SIMDsPerCU, c.WFSlots, c.VRFBanks,
		c.L1DSize>>10, c.L1ISize>>10, c.ScalarL1Size>>10, c.L2Size>>10, c.L2Banks, c.DRAMChannels)
}
