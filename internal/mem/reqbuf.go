package mem

// lineReq is one routed line access sitting in a destination bank's bucket:
// the line address, the write flag, the index of the owning request in the
// buffer's request table, and — written by the drain — its completion cycle.
type lineReq struct {
	line  uint64
	write bool
	req   int32
	done  int64
}

// dest is one cache a buffer routes into: per-bank buckets so that routing
// happens at append time, during the CU tick phase, and the drain can hand
// each bank its inputs without any further sorting.
type dest struct {
	cache   *Cache
	buckets [][]lineReq
}

// bucketRef names one (destination, bank) bucket of a buffer.
type bucketRef struct {
	dest, bank int32
}

// request is the buffer-side record of one deferred access: the caller's
// tag and the max-reduced completion cycle of its lines.
type request struct {
	tag   int
	ready int64
}

// RequestBuffer is an append-only, replayable queue of deferred cache
// accesses, routed to destination banks as it is appended. The timing core
// gives each compute unit one buffer: phase 1 appends requests in issue
// order, bucketing each line by (destination cache, bank); phase 2
// (Drain.Flush) replays every bank's bucket sequence in (CU index, append
// order), so each bank's port/LRU/miss-counter state evolves in a fixed
// order. Reset keeps capacity, so a steady-state tick/drain
// cycle allocates nothing.
//
// All Register calls must precede Drain construction (the drain captures
// pointers to the per-bank buckets).
type RequestBuffer struct {
	dests []dest
	reqs  []request
	// dirty lists the non-empty buckets in first-append order.
	dirty []bucketRef
}

// Register adds a destination cache and returns its handle for AppendLine/
// Append. Registering the same cache twice returns the same handle.
func (b *RequestBuffer) Register(c *Cache) int {
	for i := range b.dests {
		if b.dests[i].cache == c {
			return i
		}
	}
	b.dests = append(b.dests, dest{cache: c, buckets: make([][]lineReq, c.NumBanks())})
	return len(b.dests) - 1
}

// AppendLine defers a single-line access to destination d.
func (b *RequestBuffer) AppendLine(d int, line uint64, write bool, tag int) {
	b.route(d, line, write, int32(len(b.reqs)))
	b.reqs = append(b.reqs, request{tag: tag})
}

// Append defers a multi-line access to destination d. Lines are copied into
// the per-bank buckets, so the caller's slice (typically coalescing scratch)
// may be reused immediately. Cross-bank lines of one request max-reduce
// their completion cycles back into a single ready cycle at drain time.
func (b *RequestBuffer) Append(d int, lines []uint64, write bool, tag int) {
	ri := int32(len(b.reqs))
	for _, line := range lines {
		b.route(d, line, write, ri)
	}
	b.reqs = append(b.reqs, request{tag: tag})
}

// route appends one line of request ri to its bank's bucket of destination
// d, marking the bucket dirty on its first line.
func (b *RequestBuffer) route(d int, line uint64, write bool, ri int32) {
	dst := &b.dests[d]
	bank := dst.cache.BankOf(line)
	if len(dst.buckets[bank]) == 0 {
		b.dirty = append(b.dirty, bucketRef{dest: int32(d), bank: int32(bank)})
	}
	dst.buckets[bank] = append(dst.buckets[bank],
		lineReq{line: line, write: write, req: ri})
}

// Len returns the number of deferred requests.
func (b *RequestBuffer) Len() int { return len(b.reqs) }

// bucket returns the bucket r names.
func (b *RequestBuffer) bucket(r bucketRef) *[]lineReq {
	return &b.dests[r.dest].buckets[r.bank]
}

// Reset empties the buffer, keeping its capacity. Only dirty buckets can
// hold lines, so only they are truncated.
func (b *RequestBuffer) Reset() {
	b.reqs = b.reqs[:0]
	for _, r := range b.dirty {
		bk := b.bucket(r)
		*bk = (*bk)[:0]
	}
	b.dirty = b.dirty[:0]
}
