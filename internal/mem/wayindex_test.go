package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// scanning returns c with its way indexes dropped, so every set falls back
// to the linear tag probe and lastUsed victim scan.
func scanning(c *Cache) *Cache {
	for b := range c.banks {
		c.banks[b].idx = nil
	}
	return c
}

// TestWayIndexMatchesScan: an indexed cache must time every access, count
// every hit, miss and eviction, and write back every dirty victim exactly
// as the scanning cache does — across fills, full-set LRU replacement,
// several sets and banks, and a Reset.
func TestWayIndexMatchesScan(t *testing.T) {
	for _, g := range []struct {
		size, ways, banks int
	}{
		{64 * 64, 0, 1},      // fully associative, 64 ways
		{16 << 10, 0, 1},     // Table 4 L1D: 256 ways
		{8 * 64 * 64, 64, 2}, // 8 sets of 64 ways over 2 banks
	} {
		recA, recB := &recorder{}, &recorder{}
		a := NewCache("idx", g.size, 64, g.ways, 4, true, recA, g.banks)
		b := scanning(NewCache("scan", g.size, 64, g.ways, 4, true, recB, g.banks))
		if a.banks[0].idx == nil {
			t.Fatalf("%+v: cache has no way index", g)
		}
		lines := 3 * g.size / 64 // traffic over three times the capacity
		rng := rand.New(rand.NewSource(int64(g.size + g.ways)))
		for i := 0; i < 40000; i++ {
			if i == 25000 {
				a.Reset()
				b.Reset()
			}
			line := rng.Intn(lines)
			if rng.Intn(2) == 0 {
				line = rng.Intn(lines / 4) // a hot quarter, for hits
			}
			addr, write, now := uint64(line)*64, rng.Intn(3) == 0, int64(i/2)
			if da, db := a.Access(addr, write, now), b.Access(addr, write, now); da != db {
				t.Fatalf("%+v: access %d: indexed done %d, scanning %d", g, i, da, db)
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("%+v: stats diverge: indexed %+v scanning %+v", g, a.Stats(), b.Stats())
		}
		if s := a.Stats(); s.Hits == 0 || s.Evictions == 0 {
			t.Fatalf("%+v: traffic exercised no hits or no evictions: %+v", g, s)
		}
		if len(recA.addrs) != len(recB.addrs) {
			t.Fatalf("%+v: lower level saw %d accesses indexed, %d scanning",
				g, len(recA.addrs), len(recB.addrs))
		}
		for i := range recA.addrs {
			if recA.addrs[i] != recB.addrs[i] || recA.writes[i] != recB.writes[i] {
				t.Fatalf("%+v: lower access %d: indexed %#x/%t, scanning %#x/%t", g, i,
					recA.addrs[i], recA.writes[i], recB.addrs[i], recB.writes[i])
			}
		}
	}
}

// indexed returns c with a way index on every set, whatever its
// associativity.
func indexed(c *Cache) *Cache {
	for b := range c.banks {
		bank := &c.banks[b]
		bank.idx = make([]wayIndex, len(bank.lines))
		for i := range bank.idx {
			bank.idx[i] = newWayIndex(len(bank.lines[i]))
		}
	}
	return c
}

// BenchmarkCacheAccessWays times one access to a 16 KB cache, probed by
// scanning or through a way index, at growing associativity (see
// indexMinWays for where the index is used).
func BenchmarkCacheAccessWays(b *testing.B) {
	const size = 16 << 10
	for _, ways := range []int{4, 8, 16, 32, 64, 256} {
		for _, probe := range []struct {
			name string
			wrap func(*Cache) *Cache
		}{{"scan", scanning}, {"index", indexed}} {
			b.Run(fmt.Sprintf("ways=%d/%s", ways, probe.name), func(b *testing.B) {
				c := probe.wrap(NewCache("c", size, 64, ways, 4, true, nil, 1))
				rng := rand.New(rand.NewSource(1))
				addrs := make([]uint64, 4096)
				for i := range addrs {
					line := rng.Intn(2 * size / 64) // twice the capacity
					if rng.Intn(4) != 0 {
						line = rng.Intn(size / 128) // a hot half, for hits
					}
					addrs[i] = uint64(line) * 64
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Access(addrs[i%len(addrs)], false, int64(i))
				}
			})
		}
	}
}
