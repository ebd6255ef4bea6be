package gpusim

import (
	"math/rand"
	"runtime"
	"testing"
)

// flatCache is the reference set-associative LRU cache: every set's tags
// and LRU stamps allocated up front in two sets×ways arrays. Cache must
// agree with it on every access.
type flatCache struct {
	sets     int
	ways     int
	lineBits uint
	tags     []uint64 // sets×ways; 0 = invalid (tag 0 encoded as tag+1)
	lru      []uint64 // per-line last-use stamp
	stamp    uint64
	stats    CacheStats
}

func newFlatCache(sizeKB, lineBytes, ways int) (*flatCache, error) {
	sets, lb, err := cacheGeometry(sizeKB, lineBytes, ways)
	if err != nil {
		return nil, err
	}
	return &flatCache{
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		tags:     make([]uint64, sets*ways),
		lru:      make([]uint64, sets*ways),
	}, nil
}

func (c *flatCache) Access(addr uint64) bool {
	c.stamp++
	c.stats.Accesses++
	line := addr >> c.lineBits
	set := int(line) & (c.sets - 1)
	tag := line + 1
	base := set * c.ways
	victim := base
	oldest := ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.lru[i] = c.stamp
			c.stats.Hits++
			return true
		}
		if c.lru[i] < oldest {
			oldest = c.lru[i]
			victim = i
		}
	}
	c.stats.Misses++
	c.tags[victim] = tag
	c.lru[victim] = c.stamp
	return false
}

func (c *flatCache) Stats() CacheStats { return c.stats }

func (c *flatCache) Reset() {
	clear(c.tags)
	clear(c.lru)
	c.stamp = 0
	c.stats = CacheStats{}
}

// TestCacheMatchesFlatOracle drives the lazily blocked cache and the flat
// oracle with the same seeded address stream and requires the same hit or
// miss on every access and equal statistics. The geometries cover a cache
// smaller than one block (16 sets) and the default L1 (256 sets, 4
// blocks) and L2 shard (2048 sets, 32 blocks). The stream mixes hot-set
// reuse, which exercises LRU victim choice, with uniform addresses and
// strided walks whose stride crosses a 64-set block boundary on every
// step, and it resets both caches midway.
func TestCacheMatchesFlatOracle(t *testing.T) {
	for _, g := range []struct{ kb, line, ways int }{
		{4, 128, 2},
		{128, 128, 4},
		{4096, 128, 16},
	} {
		c, err := NewCache(g.kb, g.line, g.ways)
		if err != nil {
			t.Fatal(err)
		}
		o, err := newFlatCache(g.kb, g.line, g.ways)
		if err != nil {
			t.Fatal(err)
		}
		span := uint64(g.kb) << 12 // four times the capacity
		blockStride := uint64(g.line * cacheBlockSets)
		r := rand.New(rand.NewSource(int64(g.kb)))
		const n = 60000
		var addr uint64
		for i := 0; i < n; i++ {
			if i == n/2 {
				c.Reset()
				o.Reset()
			}
			switch k := r.Intn(10); {
			case k < 4: // a few hot lines per set, so sets fill and evict
				addr = uint64(r.Intn(g.ways+2))*uint64(c.sets*g.line) + uint64(r.Intn(8)*g.line)
			case k < 7:
				addr = uint64(r.Int63n(int64(span)))
			case k < 9: // one block further on, plus a set
				addr = (addr + blockStride + uint64(g.line)) % span
			default:
				addr += uint64(r.Intn(4 * g.line))
			}
			if got, want := c.Access(addr), o.Access(addr); got != want {
				t.Fatalf("%d KB/%d ways: access %d (addr %#x) hit=%v, oracle %v", g.kb, g.ways, i, addr, got, want)
			}
		}
		if c.Stats() != o.Stats() {
			t.Errorf("%d KB/%d ways: stats %+v, oracle %+v", g.kb, g.ways, c.Stats(), o.Stats())
		}
		if st := c.Stats(); st.Hits == 0 || st.Misses == 0 || st.Accesses != n-n/2 {
			t.Errorf("%d KB/%d ways: stream after reset did not exercise both outcomes: %+v", g.kb, g.ways, st)
		}
	}
}

// TestNewCacheAllocatesOnlyBlockTable pins the lazy layout: building a
// 4 MB, 16-way L2 shard allocates its block table (32 empty blocks), not
// the 512 KB of tags and LRU stamps a flat layout zeroes. TotalAlloc is
// process-wide, so another goroutine's allocation can land inside one
// measurement; such noise only ever adds bytes, so the smallest delta of
// several attempts is the one NewCache is held to.
func TestNewCacheAllocatesOnlyBlockTable(t *testing.T) {
	least := ^uint64(0)
	for attempt := 0; attempt < 5 && least >= 1<<10; attempt++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := NewCache(4096, 128, 16)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(c)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<10 {
		t.Errorf("NewCache(4096, 128, 16) allocated at least %d bytes, want < 1 KiB", least)
	}
}
