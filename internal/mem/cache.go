package mem

import "fmt"

// Level is a stage of the memory hierarchy that can service a line access.
// Access returns the cycle at which the requested line is available. now is
// the cycle the request arrives. Implementations update their own occupancy
// so that back-to-back requests queue realistically.
type Level interface {
	Access(addr uint64, write bool, now int64) (done int64)
}

// Banked is a hierarchy level whose state is partitioned into independent
// banks: requests to different banks touch disjoint port/LRU/counter state,
// so the drain pipeline may service banks concurrently. Cache (set
// interleaving) and DRAM (channel interleaving) both implement it.
type Banked interface {
	NumBanks() int
	BankOf(addr uint64) int
}

// CacheStats counts cache activity.
type CacheStats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// LatencySum accumulates total access latency for mean-latency stats.
	LatencySum uint64
}

// Merge folds another shard's counters into s (bank shards sum linearly).
func (s *CacheStats) Merge(o *CacheStats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.LatencySum += o.LatencySum
}

// MissRate returns misses/accesses.
func (s *CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MeanLatency returns the average access latency in cycles.
func (s *CacheStats) MeanLatency() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Accesses)
}

type cacheLine struct {
	tag      uint64
	valid    bool
	dirty    bool
	lastUsed int64
}

// cacheBank is one set-interleaved partition of a cache: it owns the lines
// of every set s with s % numBanks == bank, a private request port and a
// private statistics shard, so two banks never share mutable state.
type cacheBank struct {
	stats CacheStats
	// nextFree models the bank's single request port.
	nextFree int64
	// lines[local] holds global set local*numBanks + bank.
	lines [][]cacheLine
	// idx[local] indexes lines[local] when the cache has more than
	// indexMinWays ways (nil otherwise).
	idx []wayIndex
}

// access is the bank-local outcome of one request. Either the completion
// cycle is known immediately (done), or the request misses and must fill
// from the lower level (fill): the caller issues the lower-level read at
// downAt and the request completes when that read does. post marks a
// lower-level write that is posted (fired at downAt, never blocks the
// requester). fill and post are mutually exclusive; fill implies the cache
// has a lower level. On a fill the bank's LatencySum is NOT yet charged —
// the caller charges it once the fill's completion is known. A dirty victim
// evicted by the fill is reported via victimAddr/victimWB and must be
// written back (posted) at the fill's completion cycle.
type access struct {
	done       int64
	fill       bool
	post       bool
	downAddr   uint64
	downAt     int64
	victimAddr uint64
	victimWB   bool
}

// Cache is a set-associative, LRU cache timing model. Policies follow
// Table 4: write-through (no write-allocate) or write-back (write-allocate).
// Its sets are interleaved across numBanks independent banks (bank = set %
// numBanks), each with its own port, lines and statistics shard; banks=1
// reproduces the single-ported model exactly.
type Cache struct {
	Name       string
	sets       int // global set count, across all banks
	ways       int
	numBanks   int
	lineBits   uint
	hitLatency int64
	writeBack  bool
	lower      Level
	// throughput is the port occupancy per request in cycles.
	throughput int64
	banks      []cacheBank
}

// NewCache builds a cache model. sizeBytes/lineSize/ways determine geometry;
// ways <= 0 means fully associative. banks is the set-interleave factor
// (clamped to [1, sets]); it changes port timing, not hit/miss behavior.
func NewCache(name string, sizeBytes, lineSize, ways int, hitLatency int64, writeBack bool, lower Level, banks int) *Cache {
	numLines := sizeBytes / lineSize
	if ways <= 0 || ways > numLines {
		ways = numLines // fully associative
	}
	sets := numLines / ways
	if sets == 0 {
		sets = 1
	}
	if banks < 1 {
		banks = 1
	}
	if banks > sets {
		banks = sets
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	c := &Cache{
		Name: name, sets: sets, ways: ways, numBanks: banks, lineBits: lineBits,
		hitLatency: hitLatency, writeBack: writeBack, lower: lower,
		throughput: 1,
	}
	c.banks = make([]cacheBank, banks)
	for b := range c.banks {
		nLocal := (sets - b + banks - 1) / banks
		c.banks[b].lines = make([][]cacheLine, nLocal)
		for i := range c.banks[b].lines {
			c.banks[b].lines[i] = make([]cacheLine, ways)
		}
		if ways > indexMinWays {
			c.banks[b].idx = make([]wayIndex, nLocal)
			for i := range c.banks[b].idx {
				c.banks[b].idx[i] = newWayIndex(ways)
			}
		}
	}
	return c
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for b := range c.banks {
		bank := &c.banks[b]
		for i := range bank.lines {
			for j := range bank.lines[i] {
				bank.lines[i][j] = cacheLine{}
			}
		}
		for i := range bank.idx {
			bank.idx[i].reset()
		}
		bank.stats = CacheStats{}
		bank.nextFree = 0
	}
}

// NumBanks returns the set-interleave factor.
func (c *Cache) NumBanks() int { return c.numBanks }

// BankOf returns the bank servicing addr.
func (c *Cache) BankOf(addr uint64) int {
	setIdx, _ := c.setAndTag(addr)
	return setIdx % c.numBanks
}

// Stats returns the cache's counters, merged across bank shards.
func (c *Cache) Stats() CacheStats {
	var s CacheStats
	for b := range c.banks {
		s.Merge(&c.banks[b].stats)
	}
	return s
}

// BankStats returns one bank's statistics shard.
func (c *Cache) BankStats(b int) CacheStats { return c.banks[b].stats }

func (c *Cache) setAndTag(addr uint64) (int, uint64) {
	line := addr >> c.lineBits
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

// bankAccess services the bank-local part of one request on bank b: port
// arbitration, tag probe, LRU update, fill bookkeeping and victim selection.
// It never calls into the lower level; the outcome tells the caller what
// lower-level traffic to issue, which is what lets the drain pipeline defer
// that traffic into the lower bank's own queue.
func (c *Cache) bankAccess(b *cacheBank, addr uint64, write bool, now int64) access {
	b.stats.Accesses++
	// Port occupancy: requests serialize through the bank's port.
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	b.nextFree = start + c.throughput

	setIdx, tag := c.setAndTag(addr)
	local := setIdx / c.numBanks
	set := b.lines[local]
	var ix *wayIndex
	if b.idx != nil {
		ix = &b.idx[local]
	}
	if i := findWay(ix, set, tag); i >= 0 {
		b.stats.Hits++
		if ix != nil {
			ix.touch(i)
		}
		set[i].lastUsed = start
		done := start + c.hitLatency
		b.stats.LatencySum += uint64(done - now)
		if write && !c.writeBack && c.lower != nil {
			// Write-through: forward the write but do not stall the
			// core on the lower level (posted write).
			return access{done: done, post: true, downAddr: addr, downAt: start + c.hitLatency}
		}
		if write && c.writeBack {
			set[i].dirty = true
		}
		return access{done: done}
	}
	b.stats.Misses++
	if write && !c.writeBack {
		// Write-through, no-write-allocate: the write goes straight down.
		done := start + c.hitLatency
		b.stats.LatencySum += uint64(done - now)
		if c.lower != nil {
			return access{done: done, post: true, downAddr: addr, downAt: start}
		}
		return access{done: done}
	}
	// Miss: fetch from below and fill. The line is inserted now (victim
	// selection included); its availability is the fill's completion.
	out := access{fill: true, downAddr: addr, downAt: start + c.hitLatency}
	victim := victimWay(ix, set)
	if set[victim].valid {
		if ix != nil {
			ix.evict(set, set[victim].tag, victim)
		}
		b.stats.Evictions++
		if set[victim].dirty && c.lower != nil {
			// Write back the victim; posted, does not extend the fill.
			out.victimAddr = (set[victim].tag*uint64(c.sets) + uint64(setIdx)) << c.lineBits
			out.victimWB = true
		}
	}
	set[victim] = cacheLine{tag: tag, valid: true, dirty: write && c.writeBack, lastUsed: start}
	if ix != nil {
		ix.fill(tag, victim)
	}
	if c.lower == nil {
		// Nothing below: the "fill" completes at the hit latency.
		out.fill = false
		out.done = start + c.hitLatency
		out.victimWB = false
		b.stats.LatencySum += uint64(out.done - now)
	}
	return out
}

// findWay returns the way of set holding tag, or -1: through the set's
// index when it has one, else by scanning.
func findWay(ix *wayIndex, set []cacheLine, tag uint64) int {
	if ix != nil {
		return ix.find(set, tag)
	}
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return i
		}
	}
	return -1
}

// victimWay returns the way a miss fills: the first invalid way, else the
// first way with the least lastUsed (the least recently touched; see
// wayIndex).
func victimWay(ix *wayIndex, set []cacheLine) int {
	if ix != nil {
		return ix.victim(len(set))
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			return i
		}
		if set[i].lastUsed < set[victim].lastUsed {
			victim = i
		}
	}
	return victim
}

// Access services a line request synchronously and returns its completion
// cycle, descending into the lower level inline. The drain pipeline replays
// exactly this logic with the descent deferred; banks=1 callers see the
// pre-banking timing unchanged.
func (c *Cache) Access(addr uint64, write bool, now int64) int64 {
	b := &c.banks[c.BankOf(addr)]
	a := c.bankAccess(b, addr, write, now)
	if a.fill {
		fillDone := c.lower.Access(a.downAddr, false, a.downAt)
		b.stats.LatencySum += uint64(fillDone - now)
		if a.victimWB {
			c.lower.Access(a.victimAddr, true, fillDone)
		}
		return fillDone
	}
	if a.post {
		c.lower.Access(a.downAddr, true, a.downAt)
	}
	return a.done
}

// String summarizes geometry for reports.
func (c *Cache) String() string {
	return fmt.Sprintf("%s: %d sets x %d ways x %dB x %d banks",
		c.Name, c.sets, c.ways, 1<<c.lineBits, c.numBanks)
}

// dramChan is one DRAM channel: an independent bank with its own occupancy
// tracking and statistics shard.
type dramChan struct {
	nextFree int64
	stats    CacheStats
}

// DRAM models a channeled memory: each channel is a resource with a fixed
// access latency and per-request occupancy (burst time), so bandwidth is
// bounded and contention queues requests (Table 4: DDR3, 32 channels).
// Channels are line-interleaved; each is an independent bank to the drain.
type DRAM struct {
	Latency   int64
	Occupancy int64
	lineBits  uint
	chans     []dramChan
}

// NewDRAM builds the DRAM model. lineSize sets the channel-interleave
// granularity (consecutive lines land on consecutive channels).
func NewDRAM(channels, lineSize int, latency, occupancy int64) *DRAM {
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	return &DRAM{Latency: latency, Occupancy: occupancy, lineBits: lineBits,
		chans: make([]dramChan, channels)}
}

// Reset clears channel state and statistics.
func (d *DRAM) Reset() {
	for i := range d.chans {
		d.chans[i] = dramChan{}
	}
}

// NumBanks returns the channel count.
func (d *DRAM) NumBanks() int { return len(d.chans) }

// BankOf returns the line-interleaved channel servicing addr.
func (d *DRAM) BankOf(addr uint64) int {
	return int(addr >> d.lineBits % uint64(len(d.chans)))
}

// Stats returns the DRAM's counters, merged across channel shards.
func (d *DRAM) Stats() CacheStats {
	var s CacheStats
	for i := range d.chans {
		s.Merge(&d.chans[i].stats)
	}
	return s
}

// BankStats returns one channel's statistics shard.
func (d *DRAM) BankStats(ch int) CacheStats { return d.chans[ch].stats }

// bankAccess services one request on channel ch (already routed).
func (d *DRAM) bankAccess(ch int, write bool, now int64) int64 {
	cn := &d.chans[ch]
	cn.stats.Accesses++
	start := now
	if cn.nextFree > start {
		start = cn.nextFree
	}
	cn.nextFree = start + d.Occupancy
	done := start + d.Latency
	if write {
		// Writes occupy the channel but complete immediately for the
		// requester (posted).
		done = start
	}
	cn.stats.LatencySum += uint64(done - now)
	return done
}

// Access services a line request on its address-interleaved channel.
func (d *DRAM) Access(addr uint64, write bool, now int64) int64 {
	return d.bankAccess(d.BankOf(addr), write, now)
}
