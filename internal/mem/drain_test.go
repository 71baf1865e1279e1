package mem

import (
	"math/rand"
	"sync"
	"testing"
)

// recorder is a fake lowest level that records every access it sees.
type recorder struct {
	addrs  []uint64
	writes []bool
}

func (r *recorder) Access(addr uint64, write bool, now int64) int64 {
	r.addrs = append(r.addrs, addr)
	r.writes = append(r.writes, write)
	return now + 1
}

// TestVictimAddressRoundTrip pins the write-back eviction path's address
// reconstruction: the victim address handed to the lower level must be the
// line-aligned address originally inserted (tag*sets+setIdx inverts
// setAndTag exactly), for single- and multi-bank geometries.
func TestVictimAddressRoundTrip(t *testing.T) {
	for _, banks := range []int{1, 2} {
		rec := &recorder{}
		// 4 KiB, 64B lines, 2 ways -> 32 sets.
		c := NewCache("wb", 4<<10, 64, 2, 1, true, rec, banks)
		// The reconstruction must invert setAndTag for arbitrary addresses.
		for _, addr := range []uint64{0, 0x1fc0, 0x7fffffc0, 1 << 40} {
			set, tag := c.setAndTag(addr)
			got := (tag*uint64(c.sets) + uint64(set)) << c.lineBits
			if want := addr &^ 63; got != want {
				t.Fatalf("banks=%d: setAndTag round trip %#x -> %#x, want %#x",
					banks, addr, got, want)
			}
		}
		// Dirty a line, then force its eviction with two more fills of the
		// same set (stride = sets*lineSize keeps the set index fixed).
		const stride = 32 * 64
		victim := uint64(3 * 64) // set 3, tag 0
		c.Access(victim, true, 0)
		c.Access(victim+stride, true, 10)
		c.Access(victim+2*stride, true, 20) // evicts the dirty victim
		var got []uint64
		for i, a := range rec.addrs {
			if rec.writes[i] {
				got = append(got, a)
			}
		}
		if len(got) != 1 || got[0] != victim {
			t.Fatalf("banks=%d: victim write-backs %#x, want exactly [%#x]",
				banks, got, victim)
		}
	}
}

// TestVictimWriteBackLandsOnLowerBank checks that a dirty victim's posted
// write-back reaches the lower level's correct bank (DRAM channel), not
// merely "some channel".
func TestVictimWriteBackLandsOnLowerBank(t *testing.T) {
	dram := NewDRAM(4, 64, 100, 4)
	// 2 ways, 32 sets: same-set fills with stride 32*64.
	c := NewCache("wb", 4<<10, 64, 2, 1, true, dram, 2)
	const stride = 32 * 64
	victim := uint64(5 * 64) // line 5 -> channel 5%4 == 1
	c.Access(victim, true, 0)
	c.Access(victim+stride, true, 10)
	c.Access(victim+2*stride, true, 20) // evicts the dirty victim
	wantCh := dram.BankOf(victim)
	if wantCh != 1 {
		t.Fatalf("test geometry drifted: victim channel %d, want 1", wantCh)
	}
	// Channel 1 must have seen exactly the victim write; the three write
	// misses each fill-read their own channel (5%4=1, 37%4=1, 69%4=1 —
	// same-set stride keeps the channel fixed too, so channel 1 sees the
	// three fill reads plus one victim write).
	if got := dram.BankStats(wantCh).Accesses; got != 4 {
		t.Fatalf("channel %d accesses = %d, want 4 (3 fills + victim write)", wantCh, got)
	}
	for ch := 0; ch < 4; ch++ {
		if ch != wantCh && dram.BankStats(ch).Accesses != 0 {
			t.Fatalf("channel %d saw %d accesses, want 0", ch, dram.BankStats(ch).Accesses)
		}
	}
}

// TestDRAMInterleaveFollowsLineSize pins the satellite fix: the channel
// shift derives from the configured line size instead of a hardcoded 64.
func TestDRAMInterleaveFollowsLineSize(t *testing.T) {
	d64 := NewDRAM(4, 64, 100, 4)
	d128 := NewDRAM(4, 128, 100, 4)
	if d64.BankOf(64) != 1 || d64.BankOf(256) != 0 {
		t.Fatalf("64B interleave wrong: %d %d", d64.BankOf(64), d64.BankOf(256))
	}
	if d128.BankOf(64) != 0 || d128.BankOf(128) != 1 || d128.BankOf(512) != 0 {
		t.Fatalf("128B interleave wrong: %d %d %d",
			d128.BankOf(64), d128.BankOf(128), d128.BankOf(512))
	}
	// Two accesses inside one 128B line must queue on one channel.
	a := d128.Access(0, false, 0)
	b := d128.Access(64, false, 0)
	if a != 100 || b != 104 {
		t.Fatalf("same-line contention: a=%d b=%d, want 100, 104", a, b)
	}
}

// TestBankedCacheCountersMatchSingleBank: banking splits ports, not
// residency — hit/miss/eviction totals must be identical to banks=1.
func TestBankedCacheCountersMatchSingleBank(t *testing.T) {
	run := func(banks int) CacheStats {
		c := NewCache("c", 2<<10, 64, 2, 4, false, nil, banks)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 4000; i++ {
			c.Access(uint64(rng.Intn(256))*64, rng.Intn(4) == 0, int64(i))
		}
		return c.Stats()
	}
	s1, s4 := run(1), run(4)
	if s1.Accesses != s4.Accesses || s1.Hits != s4.Hits ||
		s1.Misses != s4.Misses || s1.Evictions != s4.Evictions {
		t.Fatalf("counters diverge: banks=1 %+v banks=4 %+v", s1, s4)
	}
}

// hier is a miniature GPU memory system for drain tests.
type hier struct {
	l1s   []*Cache
	bufs  []*RequestBuffer
	drain *Drain
	l2    *Cache
	dram  *DRAM
	// ready[src] collects (tag, ready) pairs per source.
	ready [][2]int64
}

func buildHier(nSrc, l2Banks, channels int) *hier {
	h := &hier{}
	h.dram = NewDRAM(channels, 64, 100, 4)
	h.l2 = NewCache("L2", 8<<10, 64, 2, 8, true, h.dram, l2Banks)
	var srcs []DrainSource
	for i := 0; i < nSrc; i++ {
		l1 := NewCache("L1", 1<<10, 64, 2, 2, false, h.l2, 1)
		h.l1s = append(h.l1s, l1)
		buf := &RequestBuffer{}
		buf.Register(l1)
		h.bufs = append(h.bufs, buf)
		srcs = append(srcs, DrainSource{Buf: buf, Complete: func(tag int, ready int64) {
			h.ready = append(h.ready, [2]int64{int64(tag), ready})
		}})
	}
	h.drain = NewDrain(h.l1s, srcs, h.l2, h.dram)
	return h
}

// genRequests appends a deterministic pseudo-random request mix to every
// source buffer. Addresses stay within the L2 capacity so no dirty L2
// victims arise (their write-back replay order is the one deliberate
// departure from the synchronous path).
func genRequests(h *hier, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	var lines []uint64
	for s, buf := range h.bufs {
		d := 0 // handle from Register(l1)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				lines = lines[:0]
				for k := 0; k <= rng.Intn(4); k++ {
					lines = append(lines, uint64(rng.Intn(96))*64)
				}
				buf.Append(d, lines, rng.Intn(4) == 0, s*1000+i)
			} else {
				buf.AppendLine(d, uint64(rng.Intn(96))*64, rng.Intn(4) == 0, s*1000+i)
			}
		}
	}
}

// genSparse appends one single-line request from one pseudo-randomly
// chosen source: a flush that reaches one level-1 task, at most one L2 bank
// and at most one DRAM channel.
func genSparse(h *hier, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := rng.Intn(len(h.bufs))
	h.bufs[s].AppendLine(0, uint64(rng.Intn(96))*64, rng.Intn(4) == 0, s*1000)
}

// syncFlush is the reference for Drain.Flush: it applies every pending
// request synchronously in (source, append, line) order at cycle now,
// records completions as the drain's callbacks do, and resets the buffers.
// With single-bank level-1 caches, one L2 bank and no dirty L2 victims
// (addresses stay within the L2 capacity) the drain must match it exactly.
func syncFlush(h *hier, now int64) {
	for s, buf := range h.bufs {
		for i := range buf.reqs {
			ready := now
			for _, bucket := range buf.dests[0].buckets {
				for _, lr := range bucket {
					if lr.req != int32(i) {
						continue
					}
					if done := h.l1s[s].Access(lr.line, lr.write, now); done > ready {
						ready = done
					}
				}
			}
			h.ready = append(h.ready, [2]int64{int64(buf.reqs[i].tag), ready})
		}
		buf.Reset()
	}
}

// sameResults fails t unless a and b saw identical completions and
// identical counters at every level.
func sameResults(t *testing.T, name string, a, b *hier) {
	t.Helper()
	if len(a.ready) != len(b.ready) {
		t.Fatalf("%s: %d completions, want %d", name, len(a.ready), len(b.ready))
	}
	for i := range a.ready {
		if a.ready[i] != b.ready[i] {
			t.Fatalf("%s: completion %d = %v, want %v", name, i, a.ready[i], b.ready[i])
		}
	}
	if x, y := a.l2.Stats(), b.l2.Stats(); x != y {
		t.Fatalf("%s: L2 stats %+v, want %+v", name, x, y)
	}
	if x, y := a.dram.Stats(), b.dram.Stats(); x != y {
		t.Fatalf("%s: DRAM stats %+v, want %+v", name, x, y)
	}
	for i := range a.l1s {
		if x, y := a.l1s[i].Stats(), b.l1s[i].Stats(); x != y {
			t.Fatalf("%s: L1 %d stats %+v, want %+v", name, i, x, y)
		}
	}
}

// TestDrainMatchesSynchronousReplay: with single-bank level-1 caches and no
// dirty L2 victims, the level-wave pipeline must reproduce the synchronous
// Access path exactly — same per-request ready cycles, same counters — for
// one dense flush, for a run of sparse flushes (one source, one bank), for
// sparse and dense flushes alternating (dirty marks from a dense flush must
// not leak into the next), and with more level-1 tasks than one bitset word
// holds.
func TestDrainMatchesSynchronousReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nSrc   int
		perSrc int // requests per source in a dense flush
		cycles int
		dense  func(cycle int) bool
	}{
		{"dense", 2, 40, 1, func(int) bool { return true }},
		{"sparse", 2, 0, 60, func(int) bool { return false }},
		{"alternating", 3, 14, 60, func(c int) bool { return c%2 == 0 }},
		{"72-sources", 72, 1, 80, func(c int) bool { return c%5 == 0 }},
	} {
		hA := buildHier(tc.nSrc, 1, 2)
		hB := buildHier(tc.nSrc, 1, 2)
		for c := 0; c < tc.cycles; c++ {
			now := int64(100 + 40*c)
			for _, h := range []*hier{hA, hB} {
				if tc.dense(c) {
					genRequests(h, int64(7+c), tc.perSrc)
				} else {
					genSparse(h, int64(c))
				}
			}
			hA.drain.Flush(now, nil)
			syncFlush(hB, now)
		}
		sameResults(t, tc.name, hA, hB)
	}
}

// TestDrainExecutorInvariance: the drain's results must not depend on how
// wave tasks are scheduled — serial, reversed, or genuinely concurrent
// (the latter also puts the wave structure under the race detector) — on
// dense traffic, on sparse traffic and on the two alternating.
func TestDrainExecutorInvariance(t *testing.T) {
	reversed := func(n int, run func(int)) {
		for i := n - 1; i >= 0; i-- {
			run(i)
		}
	}
	concurrent := func(n int, run func(int)) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); run(i) }(i)
		}
		wg.Wait()
	}
	for _, traffic := range []struct {
		name  string
		dense func(cycle int) bool
	}{
		{"dense", func(int) bool { return true }},
		{"sparse", func(int) bool { return false }},
		{"alternating", func(c int) bool { return c%3 == 0 }},
	} {
		var base *hier
		for _, ex := range []struct {
			name string
			exec Executor
		}{{"serial", nil}, {"reversed", reversed}, {"concurrent", concurrent}} {
			h := buildHier(3, 4, 4)
			for cycle := 0; cycle < 30; cycle++ {
				if traffic.dense(cycle) {
					genRequests(h, int64(cycle), 10)
				} else {
					genSparse(h, int64(cycle))
				}
				h.drain.Flush(int64(100*cycle), ex.exec)
			}
			if base == nil {
				base = h
				continue
			}
			sameResults(t, traffic.name+"/"+ex.name, h, base)
		}
	}
}

// TestDrainSparseFlushNoAllocs: once buckets and task lists have grown, a
// flush that reaches one bank per level — the common case in long
// simulations — allocates nothing, and neither does the dense flush after
// it.
func TestDrainSparseFlushNoAllocs(t *testing.T) {
	h := buildHier(8, 4, 8)
	for cycle := 0; cycle < 20; cycle++ {
		genRequests(h, int64(cycle), 10)
		h.drain.Flush(int64(100*cycle), nil)
		genSparse(h, int64(cycle))
		h.drain.Flush(int64(100*cycle+50), nil)
	}
	lines := []uint64{0, 64 * 5}
	now := int64(10000)
	allocs := testing.AllocsPerRun(200, func() {
		h.ready = h.ready[:0]
		h.bufs[5].AppendLine(0, uint64(now%96)*64, now%4 == 0, 1)
		h.drain.Flush(now, nil)
		h.bufs[2].Append(0, lines, false, 2)
		h.drain.Flush(now+1, nil)
		now += 2
	})
	if allocs != 0 {
		t.Fatalf("sparse flush allocates %.1f times per run, want 0", allocs)
	}
}

// TestDrainZeroLineRequest: a request with an empty line set must still
// complete, at the flush cycle.
func TestDrainZeroLineRequest(t *testing.T) {
	h := buildHier(1, 1, 1)
	h.bufs[0].Append(0, nil, false, 42)
	h.drain.Flush(7, nil)
	if len(h.ready) != 1 || h.ready[0] != [2]int64{42, 7} {
		t.Fatalf("zero-line completion = %v", h.ready)
	}
}
