package gpusim

import (
	"fmt"
	"math/bits"
)

// CacheStats counts accesses for the timing and energy models.
type CacheStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// HitRate returns hits/accesses (0 when idle).
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Merge adds o's counters into s (per-SM cache shards folding into a
// launch or device aggregate).
func (s *CacheStats) Merge(o CacheStats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
}

// Cache is a set-associative cache with LRU replacement, modeled at tag
// granularity (no data storage — the simulator's memory is always
// coherent, caches only shape timing and energy).
//
// Sets are stored in blocks of cacheBlockSets, each allocated on the
// block's first access: a launch that touches a few hundred lines of a
// 4 MB L2 shard allocates a few blocks instead of zeroing every set. A
// block holds its sets' tags followed by their LRU stamps, laid out as
// the sets×ways arrays of a flat cache would be.
//
// Cache is not safe for concurrent use. The device never shares one: each
// SM owns a private L1 and a private L2 shard (see the concurrency model
// in DESIGN.md), so the simulation hot path needs no cache locking.
type Cache struct {
	sets      int
	ways      int
	lineBits  uint
	blockBits uint       // log2 of the sets per block, min(sets, cacheBlockSets)
	blocks    [][]uint64 // nil until first touched; tags (0 = invalid, tag 0 encoded as tag+1), then LRU stamps
	stamp     uint64
	stats     CacheStats
}

// cacheBlockSets is the number of sets allocated together on first touch.
const cacheBlockSets = 64

// cacheGeometry checks a cache of sizeKB with the given line size and ways
// and returns its set count and line-offset bits. It is pure arithmetic,
// so Config.Validate checks both cache levels without building either.
func cacheGeometry(sizeKB, lineBytes, ways int) (sets int, lineBits uint, err error) {
	if sizeKB <= 0 || lineBytes <= 0 || ways <= 0 {
		return 0, 0, fmt.Errorf("gpusim: bad cache geometry %d KB / %d B / %d ways", sizeKB, lineBytes, ways)
	}
	lines := sizeKB * 1024 / lineBytes
	if lines < ways {
		return 0, 0, fmt.Errorf("gpusim: cache too small for %d ways", ways)
	}
	sets = lines / ways
	if sets&(sets-1) != 0 {
		return 0, 0, fmt.Errorf("gpusim: set count %d not a power of two", sets)
	}
	for 1<<lineBits < lineBytes {
		lineBits++
	}
	return sets, lineBits, nil
}

// NewCache builds a cache of sizeKB with the given line size and ways.
func NewCache(sizeKB, lineBytes, ways int) (*Cache, error) {
	sets, lb, err := cacheGeometry(sizeKB, lineBytes, ways)
	if err != nil {
		return nil, err
	}
	bb := uint(bits.TrailingZeros(uint(min(sets, cacheBlockSets))))
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineBits:  lb,
		blockBits: bb,
		blocks:    make([][]uint64, sets>>bb),
	}, nil
}

// Access looks up the line containing addr, filling it on a miss, and
// reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.stamp++
	c.stats.Accesses++
	line := addr >> c.lineBits
	set := int(line) & (c.sets - 1)
	tag := line + 1 // +1 so a zero entry means invalid
	blk := c.blocks[set>>c.blockBits]
	if blk == nil {
		blk = make([]uint64, 2*c.ways<<c.blockBits)
		c.blocks[set>>c.blockBits] = blk
	}
	base := (set & (1<<c.blockBits - 1)) * c.ways
	tags := blk[base : base+c.ways]
	lru := blk[c.ways<<c.blockBits+base:][:c.ways]
	victim := 0
	oldest := ^uint64(0)
	for w, t := range tags {
		if t == tag {
			lru[w] = c.stamp
			c.stats.Hits++
			return true
		}
		if lru[w] < oldest {
			oldest = lru[w]
			victim = w
		}
	}
	c.stats.Misses++
	tags[victim] = tag
	lru[victim] = c.stamp
	return false
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Reset invalidates all lines and clears statistics. It drops every
// block, so the next access to a set allocates its block afresh.
func (c *Cache) Reset() {
	clear(c.blocks)
	c.stamp = 0
	c.stats = CacheStats{}
}
