// Package stats collects and summarizes every statistic the paper's figures
// report: dynamic instruction counts by category (Fig 5), VRF bank conflicts
// (Fig 6), vector-register reuse distance (Fig 7), instruction footprint
// (Fig 8), instruction-buffer flushes (Fig 9), VRF lane-value uniqueness
// (Fig 10), IPC and cycles (Figs 11/12), data footprint and SIMD utilization
// (Table 6), and the correlation/error math for the hardware study (Table 7).
package stats

import (
	"fmt"
	"math"
	"sort"

	"ilsim/internal/isa"
)

// Run aggregates the statistics of one workload execution under one ISA
// abstraction.
type Run struct {
	Workload    string
	Abstraction string // "HSAIL" or "GCN3"

	// Cycles is the total GPU cycle count of the run.
	Cycles uint64
	// KernelCycles records each dynamic dispatch's cycle count, in launch
	// order (the per-kernel runtimes of the paper's Table 7 study).
	KernelCycles []uint64
	// KernelLaunches counts dynamic dispatches.
	KernelLaunches uint64

	// InstsByCategory counts committed wavefront-level instructions.
	InstsByCategory [isa.NumCategories]uint64

	// VRFBankConflicts counts same-cycle same-bank operand collisions.
	VRFBankConflicts uint64
	// VRFAccesses counts vector-register operand accesses (reads+writes).
	VRFAccesses uint64

	// IBFlushes counts instruction-buffer flushes caused by PC redirects.
	IBFlushes uint64
	// Redirects counts all front-end PC redirects (flushing or not).
	Redirects uint64

	// CodeFootprintBytes is the static instruction footprint of all loaded
	// kernels (8 B/inst for HSAIL; true encoded size for GCN3).
	CodeFootprintBytes uint64
	// DataFootprintBytes is the touched-line data footprint.
	DataFootprintBytes uint64

	// SIMD utilization: active lanes over issued vector-ALU instructions.
	VALUActiveLanes uint64
	VALUInsts       uint64

	// Value uniqueness accumulators over sampled VRF accesses.
	ReadLanes   uint64
	ReadUnique  uint64
	WriteLanes  uint64
	WriteUnique uint64

	// Reuse holds the vector-register reuse-distance distribution.
	Reuse Histogram

	// Memory-side statistics.
	L1DAccesses, L1DMisses           uint64
	L1IAccesses, L1IMisses           uint64
	L2Accesses, L2Misses             uint64
	ScalarL1Accesses, ScalarL1Misses uint64
	// FetchStallCycles counts cycles wavefronts spent with an empty IB.
	FetchStallCycles uint64
}

// Merge folds a shard's counters into r. The timing core gives each
// compute unit a private Run; at run end the shards merge back into the
// root in CU-index order. Every field is a sum (or a histogram count
// union), so the merged totals equal what a single shared Run would have
// accumulated. Identity fields (Workload, Abstraction) and the root's
// KernelCycles are left untouched; a shard's KernelCycles (always empty in
// the sharded-timing use) are appended.
func (r *Run) Merge(o *Run) {
	if o == nil {
		return
	}
	r.Cycles += o.Cycles
	r.KernelCycles = append(r.KernelCycles, o.KernelCycles...)
	r.KernelLaunches += o.KernelLaunches
	for i := range r.InstsByCategory {
		r.InstsByCategory[i] += o.InstsByCategory[i]
	}
	r.VRFBankConflicts += o.VRFBankConflicts
	r.VRFAccesses += o.VRFAccesses
	r.IBFlushes += o.IBFlushes
	r.Redirects += o.Redirects
	r.CodeFootprintBytes += o.CodeFootprintBytes
	r.DataFootprintBytes += o.DataFootprintBytes
	r.VALUActiveLanes += o.VALUActiveLanes
	r.VALUInsts += o.VALUInsts
	r.ReadLanes += o.ReadLanes
	r.ReadUnique += o.ReadUnique
	r.WriteLanes += o.WriteLanes
	r.WriteUnique += o.WriteUnique
	r.Reuse.Merge(&o.Reuse)
	r.L1DAccesses += o.L1DAccesses
	r.L1DMisses += o.L1DMisses
	r.L1IAccesses += o.L1IAccesses
	r.L1IMisses += o.L1IMisses
	r.L2Accesses += o.L2Accesses
	r.L2Misses += o.L2Misses
	r.ScalarL1Accesses += o.ScalarL1Accesses
	r.ScalarL1Misses += o.ScalarL1Misses
	r.FetchStallCycles += o.FetchStallCycles
}

// TotalInsts returns the dynamic instruction count.
func (r *Run) TotalInsts() uint64 {
	var n uint64
	for _, c := range r.InstsByCategory {
		n += c
	}
	return n
}

// IPC returns instructions per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TotalInsts()) / float64(r.Cycles)
}

// SIMDUtilization returns the mean fraction of active lanes on vector-ALU
// instructions.
func (r *Run) SIMDUtilization() float64 {
	if r.VALUInsts == 0 {
		return 0
	}
	return float64(r.VALUActiveLanes) / float64(r.VALUInsts*isa.WavefrontSize)
}

// ReadUniqueness returns unique values / lanes over VRF reads.
func (r *Run) ReadUniqueness() float64 {
	if r.ReadLanes == 0 {
		return 0
	}
	return float64(r.ReadUnique) / float64(r.ReadLanes)
}

// WriteUniqueness returns unique values / lanes over VRF writes.
func (r *Run) WriteUniqueness() float64 {
	if r.WriteLanes == 0 {
		return 0
	}
	return float64(r.WriteUnique) / float64(r.WriteLanes)
}

// ConflictsPerKiloInst normalizes bank conflicts by dynamic instructions.
func (r *Run) ConflictsPerKiloInst() float64 {
	t := r.TotalInsts()
	if t == 0 {
		return 0
	}
	return 1000 * float64(r.VRFBankConflicts) / float64(t)
}

// String renders a one-line summary.
func (r *Run) String() string {
	return fmt.Sprintf("%s/%s: %d insts, %d cycles, IPC %.3f",
		r.Workload, r.Abstraction, r.TotalInsts(), r.Cycles, r.IPC())
}

// histDenseSize bounds the dense fast path of Histogram: values below it
// count in a flat array, values at or above it overflow into a map. Reuse
// distances — the per-register-access workhorse of the Fig 7 tracker — are
// overwhelmingly small, so the hot Add is two increments and no hashing.
const histDenseSize = 1024

// Histogram is an exact integer-valued distribution (value → count),
// compact enough for reuse distances because distinct distances are few
// relative to accesses.
type Histogram struct {
	// dense counts observations of v < histDenseSize (allocated on first
	// small Add); counts holds the overflow.
	dense  []uint64
	counts map[uint32]uint64
	n      uint64
	// keys caches the sorted distinct values for Percentile, which report
	// code calls repeatedly per figure; Add invalidates it.
	keys []uint32
}

// Add records one observation.
func (h *Histogram) Add(v uint32) {
	h.keys = nil
	if v < histDenseSize {
		if h.dense == nil {
			h.dense = make([]uint64, histDenseSize)
		}
		h.dense[v]++
	} else {
		if h.counts == nil {
			h.counts = make(map[uint32]uint64)
		}
		h.counts[v]++
	}
	h.n++
}

// Merge folds another histogram's observations into h. Count union is
// commutative and associative, so merging per-shard histograms in any
// order yields the distribution a single shared histogram would have
// accumulated; Items()/Percentile on the merged result are identical.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	h.keys = nil
	if o.dense != nil {
		if h.dense == nil {
			h.dense = make([]uint64, histDenseSize)
		}
		for v, c := range o.dense {
			h.dense[v] += c
		}
	}
	if len(o.counts) > 0 {
		if h.counts == nil {
			h.counts = make(map[uint32]uint64, len(o.counts))
		}
		for k, c := range o.counts {
			h.counts[k] += c
		}
	}
	h.n += o.n
}

// count returns the observation count of one value.
func (h *Histogram) count(v uint32) uint64 {
	if v < histDenseSize {
		if h.dense == nil {
			return 0
		}
		return h.dense[v]
	}
	return h.counts[v]
}

// sortedKeys returns the distinct observed values in ascending order,
// caching the slice until the next Add.
func (h *Histogram) sortedKeys() []uint32 {
	if h.keys != nil || h.n == 0 {
		return h.keys
	}
	keys := make([]uint32, 0, 64+len(h.counts))
	for v, c := range h.dense {
		if c > 0 {
			keys = append(keys, uint32(v))
		}
	}
	// The dense prefix is already ascending and every map key is at least
	// histDenseSize, so sorting the overflow suffix keeps the whole slice
	// sorted.
	tail := len(keys)
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys[tail:], func(i, j int) bool { return keys[tail+i] < keys[tail+j] })
	h.keys = keys
	return keys
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Median returns the median observation (0 when empty).
func (h *Histogram) Median() uint32 { return h.Percentile(50) }

// Percentile returns the p-th percentile (nearest-rank).
func (h *Histogram) Percentile(p float64) uint32 {
	if h.n == 0 {
		return 0
	}
	keys := h.sortedKeys()
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, k := range keys {
		cum += h.count(k)
		if cum >= rank {
			return k
		}
	}
	return keys[len(keys)-1]
}

// Mean returns the mean observation.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.dense {
		if c > 0 {
			sum += float64(v) * float64(c)
		}
	}
	for k, c := range h.counts {
		sum += float64(k) * float64(c)
	}
	return sum / float64(h.n)
}

// Pearson returns the Pearson correlation coefficient of two series.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// MeanAbsError returns the mean of |sim-hw|/hw over kernel runtimes, the
// "average absolute error" of the paper's Table 7.
func MeanAbsError(sim, hw []float64) float64 {
	if len(sim) != len(hw) || len(sim) == 0 {
		return 0
	}
	var sum float64
	for i := range sim {
		if hw[i] == 0 {
			continue
		}
		sum += math.Abs(sim[i]-hw[i]) / hw[i]
	}
	return sum / float64(len(sim))
}

// Geomean returns the geometric mean of positive values.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// ReuseTracker measures per-wavefront vector-register reuse distance: the
// number of dynamic instructions a wavefront executes between consecutive
// accesses to the same vector register (paper Fig 7).
type ReuseTracker struct {
	last  []int64 // per register slot: instruction index of last access
	count int64   // instructions executed by this wavefront
}

// NewReuseTracker sizes a tracker for a wavefront with numSlots registers.
func NewReuseTracker(numSlots int) *ReuseTracker {
	t := &ReuseTracker{last: make([]int64, numSlots)}
	for i := range t.last {
		t.last[i] = -1
	}
	return t
}

// Tick advances the per-wavefront instruction counter.
func (t *ReuseTracker) Tick() { t.count++ }

// Access records an access to a register slot, emitting the reuse distance
// into h when the slot was accessed before.
func (t *ReuseTracker) Access(slot int, h *Histogram) {
	if slot >= len(t.last) {
		return
	}
	if prev := t.last[slot]; prev >= 0 {
		d := t.count - prev
		if d > math.MaxUint32 {
			d = math.MaxUint32
		}
		h.Add(uint32(d))
	}
	t.last[slot] = t.count
}

// UniqueCount returns the number of distinct values among the first n
// entries of vals for lanes set in mask. It is the Fig 10 kernel: unique
// lane values per VRF access.
func UniqueCount(vals *[isa.WavefrontSize]uint32, mask isa.ExecMask) (unique, lanes int) {
	var buf [isa.WavefrontSize]uint32
	n := 0
	for lane := 0; lane < isa.WavefrontSize; lane++ {
		if mask.Bit(lane) {
			buf[n] = vals[lane]
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	// Insertion sort: n <= 64 and runs are often nearly uniform.
	for i := 1; i < n; i++ {
		v := buf[i]
		j := i - 1
		for j >= 0 && buf[j] > v {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = v
	}
	unique = 1
	for i := 1; i < n; i++ {
		if buf[i] != buf[i-1] {
			unique++
		}
	}
	return unique, n
}
