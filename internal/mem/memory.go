// Package mem provides the simulated memory subsystem: a sparse functional
// memory image shared by both ISA abstractions, the memory-side timing models
// (set-associative caches and a channeled DRAM), and the per-wavefront access
// coalescer.
//
// Functional state and timing state are deliberately separate: the emulators
// (package emu) read and write the Memory image at execute time, while the
// timing pipeline (package timing) replays the generated accesses against the
// cache hierarchy to obtain latencies and contention. The hierarchy uses
// latency forwarding with per-resource next-free times rather than a full
// event-driven MSHR model; this keeps the compute-unit model cycle-level
// while memory stays contended and bandwidth-limited (see DESIGN.md).
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageBits is the log2 of the sparse page size.
const PageBits = 12

// PageSize is the sparse allocation granularity of the functional image.
const PageSize = 1 << PageBits

// LineSize is the cache-line size used throughout the hierarchy (Table 4).
const LineSize = 64

// Memory is a sparse 64-bit byte-addressed functional memory image.
// It also tracks the set of touched cache lines, which is how the data
// footprint statistic (Table 6) is measured. A Memory is not safe for
// concurrent use.
type Memory struct {
	pages   map[uint64][]byte
	touched map[uint64]struct{}
	// lastBase/lastPage cache the most recently resolved page: simulated
	// accesses are heavily page-local, so most lookups skip the map.
	lastBase uint64
	lastPage []byte
	// lastLine caches the most recently touched line (valid when
	// hasLastLine), skipping redundant touched-set inserts for the common
	// case of consecutive accesses to one line.
	lastLine    uint64
	hasLastLine bool
	// trackFootprint enables touched-line recording.
	trackFootprint bool
	// exclLo/exclHi is an address range excluded from footprint tracking
	// (runtime-internal structures such as AQL packets).
	exclLo, exclHi uint64
}

// NewMemory returns an empty memory image with footprint tracking enabled.
func NewMemory() *Memory {
	return &Memory{
		pages:          make(map[uint64][]byte),
		touched:        make(map[uint64]struct{}),
		trackFootprint: true,
	}
}

// SetFootprintTracking toggles touched-line recording (loaders disable it so
// code and packet setup do not count as application data footprint).
func (m *Memory) SetFootprintTracking(on bool) { m.trackFootprint = on }

// ExcludeFromFootprint removes [lo, hi) from footprint accounting.
func (m *Memory) ExcludeFromFootprint(lo, hi uint64) { m.exclLo, m.exclHi = lo, hi }

// ResetFootprint clears the touched-line set.
func (m *Memory) ResetFootprint() {
	m.touched = make(map[uint64]struct{})
	m.hasLastLine = false
}

// FootprintBytes returns the data footprint: touched lines × line size.
func (m *Memory) FootprintBytes() uint64 {
	return uint64(len(m.touched)) * LineSize
}

func (m *Memory) page(addr uint64) []byte {
	base := addr >> PageBits
	if m.lastPage != nil && base == m.lastBase {
		return m.lastPage
	}
	p, ok := m.pages[base]
	if !ok {
		p = make([]byte, PageSize)
		m.pages[base] = p
	}
	m.lastBase, m.lastPage = base, p
	return p
}

func (m *Memory) touch(addr uint64, n int) {
	if !m.trackFootprint || n <= 0 {
		return
	}
	if addr >= m.exclLo && addr < m.exclHi {
		return
	}
	first := addr / LineSize
	last := (addr + uint64(n) - 1) / LineSize
	if first == last && m.hasLastLine && first == m.lastLine {
		return
	}
	for l := first; l <= last; l++ {
		m.touched[l] = struct{}{}
	}
	m.lastLine, m.hasLastLine = last, true
}

// Read copies len(dst) bytes at addr into dst.
func (m *Memory) Read(addr uint64, dst []byte) {
	m.touch(addr, len(dst))
	if off := addr & (PageSize - 1); int(off)+len(dst) <= PageSize {
		copy(dst, m.page(addr)[off:])
		return
	}
	for n := 0; n < len(dst); {
		off := (addr + uint64(n)) & (PageSize - 1)
		p := m.page(addr + uint64(n))
		c := copy(dst[n:], p[off:])
		n += c
	}
}

// Write copies src into memory at addr.
func (m *Memory) Write(addr uint64, src []byte) {
	m.touch(addr, len(src))
	if off := addr & (PageSize - 1); int(off)+len(src) <= PageSize {
		copy(m.page(addr)[off:], src)
		return
	}
	for n := 0; n < len(src); {
		off := (addr + uint64(n)) & (PageSize - 1)
		p := m.page(addr + uint64(n))
		c := copy(p[off:], src[n:])
		n += c
	}
}

// ReadU32 reads a little-endian uint32.
func (m *Memory) ReadU32(addr uint64) uint32 {
	var b [4]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes a little-endian uint32.
func (m *Memory) WriteU32(addr uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(addr, b[:])
}

// ReadU64 reads a little-endian uint64.
func (m *Memory) ReadU64(addr uint64) uint64 {
	var b [8]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian uint64.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(addr, b[:])
}

// AtomicAddU32 performs a fetch-add and returns the prior value. The
// functional image is single-threaded, so this is trivially atomic.
func (m *Memory) AtomicAddU32(addr uint64, v uint32) uint32 {
	old := m.ReadU32(addr)
	m.WriteU32(addr, old+v)
	return old
}

// Allocator is a bump allocator carving regions out of the flat address
// space; the HSA runtime uses one per process.
type Allocator struct {
	next uint64
	end  uint64
}

// NewAllocator returns an allocator over [base, base+size).
func NewAllocator(base, size uint64) *Allocator {
	return &Allocator{next: base, end: base + size}
}

// Alloc reserves size bytes aligned to align (a power of two).
func (a *Allocator) Alloc(size, align uint64) (uint64, error) {
	if align == 0 {
		align = 1
	}
	p := (a.next + align - 1) &^ (align - 1)
	if p+size > a.end {
		return 0, fmt.Errorf("mem: allocator exhausted (%d bytes requested)", size)
	}
	a.next = p + size
	return p, nil
}

// Used returns the number of bytes consumed so far.
func (a *Allocator) Used(base uint64) uint64 { return a.next - base }
