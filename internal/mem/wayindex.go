package mem

import "math/bits"

// indexMinWays is the associativity above which a set gets a wayIndex. At
// Table 4 sizes that is only the per-CU L1D (fully associative, 256 ways),
// where an access drops from ~290 ns scanning to ~40 ns
// (BenchmarkCacheAccessWays, 2-vCPU Xeon). Indexing the 8- and 16-way
// caches too makes their accesses 20-30% faster in isolation, but end to
// end it left ilbench wall_s unchanged and grew suite alloc_mb by 4% and
// peak RSS by 5%: their many small sets pay a table each.
const indexMinWays = 32

// wayIndex makes a highly associative set's tag probe and LRU victim choice
// O(1) instead of a scan over every way, with exactly the scan's results:
//
//   - Lines only become valid by filling the first invalid way and only
//     become invalid all at once (Cache.Reset), so the valid ways are always
//     the prefix [0, n) and the scan's "first invalid way" victim is way n.
//   - A bank's port serializes its accesses (throughput >= 1), so the start
//     cycles a bank stamps into lastUsed strictly increase. The scan's
//     victim in a full set, the first way with the least lastUsed, is
//     therefore the unique least recently touched way: the head of a
//     recency list that every hit and fill moves its way to the tail of.
//
// Tags map to ways through a linear-probing hash table with backward-shift
// deletion, sized to at most half full.
type wayIndex struct {
	// slots hold way+1 (0 = empty); len(slots) is 1<<(64-shift).
	slots []int32
	shift uint
	// prev/next link the valid ways from least (lru) to most (mru)
	// recently touched; -1 ends the list.
	prev, next []int32
	lru, mru   int32
	n          int32
}

func newWayIndex(ways int) wayIndex {
	size := 1 << bits.Len(uint(2*ways-1))
	ix := wayIndex{
		slots: make([]int32, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		prev:  make([]int32, ways),
		next:  make([]int32, ways),
	}
	ix.reset()
	return ix
}

func (ix *wayIndex) reset() {
	clear(ix.slots)
	ix.lru, ix.mru, ix.n = -1, -1, 0
}

func (ix *wayIndex) home(tag uint64) int {
	return int((tag * 0x9E3779B97F4A7C15) >> ix.shift)
}

// find returns the way holding tag, or -1.
func (ix *wayIndex) find(set []cacheLine, tag uint64) int {
	mask := len(ix.slots) - 1
	for h := ix.home(tag); ix.slots[h] != 0; h = (h + 1) & mask {
		if w := int(ix.slots[h] - 1); set[w].tag == tag {
			return w
		}
	}
	return -1
}

// victim returns the way a miss fills: the first invalid way while the set
// is filling, else the least recently touched way.
func (ix *wayIndex) victim(ways int) int {
	if int(ix.n) < ways {
		return int(ix.n)
	}
	return int(ix.lru)
}

// evict removes way w, holding tag, from the hash table. The recency list
// keeps w: the fill that follows moves it to the tail.
func (ix *wayIndex) evict(set []cacheLine, tag uint64, w int) {
	mask := len(ix.slots) - 1
	i := ix.home(tag)
	for int(ix.slots[i]-1) != w {
		i = (i + 1) & mask
	}
	// Backward-shift deletion: pull later entries of the probe run into
	// the hole unless their home lies cyclically in (hole, entry].
	for j := (i + 1) & mask; ix.slots[j] != 0; j = (j + 1) & mask {
		k := ix.home(set[ix.slots[j]-1].tag)
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = 0
}

// fill records that way w now holds tag (w is ix.victim's answer).
func (ix *wayIndex) fill(tag uint64, w int) {
	mask := len(ix.slots) - 1
	h := ix.home(tag)
	for ix.slots[h] != 0 {
		h = (h + 1) & mask
	}
	ix.slots[h] = int32(w + 1)
	if w == int(ix.n) {
		ix.n++
		ix.link(w)
		return
	}
	ix.touch(w)
}

// touch moves valid way w to the most recently touched end.
func (ix *wayIndex) touch(w int) {
	if int32(w) == ix.mru {
		return
	}
	p, n := ix.prev[w], ix.next[w]
	if p >= 0 {
		ix.next[p] = n
	} else {
		ix.lru = n
	}
	ix.prev[n] = p // w is not the tail, so n >= 0
	ix.link(w)
}

// link appends way w at the most recently touched end.
func (ix *wayIndex) link(w int) {
	ix.prev[w], ix.next[w] = ix.mru, -1
	if ix.mru >= 0 {
		ix.next[ix.mru] = int32(w)
	} else {
		ix.lru = int32(w)
	}
	ix.mru = int32(w)
}
