package buffercache

import (
	"fmt"
	"testing"

	"repro/internal/simdisk"
)

// ptModel drives a pageTable and a map[int64]*frame reference side by
// side and fails the moment they disagree. Frames are owned by the
// model, mirroring how shards own them for the table.
type ptModel struct {
	t     *testing.T
	table pageTable
	ref   map[int64]*frame
	free  []*frame
}

// newPTModel builds the model over a table sized for budget frames that
// skips the top skip hash bits, as a shard of a 1<<skip-stripe cache does.
func newPTModel(t *testing.T, budget int, skip uint) *ptModel {
	m := &ptModel{t: t, ref: make(map[int64]*frame)}
	m.table.init(budget, skip)
	return m
}

// stripedCache returns a small cache with the given stripe count: its
// shardIndex routes keys, and its shardShift is the skip its page tables
// are built with.
func stripedCache(stripes int) *Cache {
	cfg := smallConfig()
	cfg.Shards = stripes
	return MustNew(cfg, simdisk.MustNew(simdisk.DefaultParams()))
}

// stripeZeroKeys returns, in order, the first n keys of gen that c routes
// to stripe 0 — the keys one shard's page table actually sees.
func stripeZeroKeys(c *Cache, n int, gen func(i int64) int64) []int64 {
	keys := make([]int64, 0, n)
	for i := int64(0); len(keys) < n; i++ {
		if k := gen(i); c.shardIndex(k) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

func sequentialKey(i int64) int64 { return i }
func clusteredKey(i int64) int64  { return i << 32 }

func (m *ptModel) frame() *frame {
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		return f
	}
	return &frame{page: -1}
}

func (m *ptModel) insert(page int64) {
	if _, ok := m.ref[page]; ok {
		return // residency is unique by construction in the shard
	}
	f := m.frame()
	f.page = page
	m.table.put(f)
	m.ref[page] = f
}

func (m *ptModel) remove(page int64) {
	f, ok := m.ref[page]
	if !ok {
		return
	}
	got := m.table.get(page)
	if got != f {
		m.t.Fatalf("pre-delete lookup(%d) = %v, want frame %p", page, got, f)
	}
	m.table.del(f)
	delete(m.ref, page)
	f.page = -1
	m.free = append(m.free, f)
}

func (m *ptModel) check(probes ...int64) {
	if m.table.len() != len(m.ref) {
		m.t.Fatalf("table len %d, reference %d", m.table.len(), len(m.ref))
	}
	for _, page := range probes {
		got := m.table.get(page)
		want := m.ref[page]
		if got != want {
			m.t.Fatalf("lookup(%d) = %p, reference %p", page, got, want)
		}
		if got != nil && m.table.slots[got.slot] != got {
			m.t.Fatalf("frame for page %d stores slot %d, but that slot holds %p",
				page, got.slot, m.table.slots[got.slot])
		}
	}
}

// checkAll verifies every reference entry and every stored slot index.
func (m *ptModel) checkAll() {
	m.check()
	for page, f := range m.ref {
		if got := m.table.get(page); got != f {
			m.t.Fatalf("lookup(%d) = %p, reference %p", page, got, f)
		}
		if m.table.slots[f.slot] != f {
			m.t.Fatalf("page %d stores slot %d, but that slot holds %p", page, f.slot, m.table.slots[f.slot])
		}
	}
}

// TestPageTableMatchesMapReference replays deterministic pseudo-random
// insert/delete/lookup interleavings against the map reference model,
// over table sizes small enough to stay near the load-factor limit and
// key distributions that collide (multiples of the table size hash near
// each other, forcing long probe chains and backshift cascades).
func TestPageTableMatchesMapReference(t *testing.T) {
	c := stripedCache(8)
	striped := stripeZeroKeys(c, 0x400, sequentialKey)
	for _, tc := range []struct {
		name   string
		budget int
		skip   uint
		keyOf  func(r int64) int64
	}{
		{"uniform", 64, 0, func(r int64) int64 { return r & 0x3FF }},
		// Dense sequential pages: the cache's common case.
		{"sequential", 32, 0, func(r int64) int64 { return r & 0x7F }},
		// Clustered: strided keys that collapse onto few home slots, so
		// deletions backshift across long runs.
		{"clustered", 16, 0, func(r int64) int64 { return (r & 0x1F) << 32 }},
		// Tiny table under churn: grow and wraparound paths.
		{"tiny", 1, 0, func(r int64) int64 { return r & 0xFF }},
		// One shard of an 8-stripe cache: only the pages shardIndex routes
		// to it, all sharing their top hash bits.
		{"striped", 64, c.shardShift, func(r int64) int64 { return striped[r&0x3FF] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newPTModel(t, tc.budget, tc.skip)
			seed := int64(0x9E3779B9)
			next := func() int64 { // xorshift: deterministic, no math/rand dep
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				if seed < 0 {
					return -seed
				}
				return seed
			}
			for i := 0; i < 20000; i++ {
				r := next()
				page := tc.keyOf(next())
				switch r % 3 {
				case 0, 1:
					m.insert(page)
				case 2:
					m.remove(page)
				}
				m.check(page, tc.keyOf(next()))
				if i%997 == 0 {
					m.checkAll()
				}
			}
			m.checkAll()
		})
	}
}

// TestPageTableBackshiftClusters exercises Knuth's deletion directly: a
// block of keys that all hash to neighboring home slots, deleted from
// the front, middle, and back, must leave every survivor reachable with
// a fresh slot index.
func TestPageTableBackshiftClusters(t *testing.T) {
	m := newPTModel(t, 8, 0) // 16 slots
	// 10 keys in one cluster region: probe chains overlap heavily.
	keys := make([]int64, 10)
	for i := range keys {
		keys[i] = int64(i) << 32 // clustered under the fibonacci hash's top bits
		m.insert(keys[i])
	}
	m.checkAll()
	for _, i := range []int{0, 5, 9, 3, 7, 1} {
		m.remove(keys[i])
		m.checkAll()
	}
	// Reinsert into the compacted chains.
	for _, k := range keys {
		m.insert(k)
	}
	m.checkAll()
}

// TestPageTableSteadyStateZeroAllocs pins the install/evict cycle at
// zero allocations once the table has reached its working size.
func TestPageTableSteadyStateZeroAllocs(t *testing.T) {
	m := newPTModel(t, 64, 0)
	for i := int64(0); i < 64; i++ {
		m.insert(i)
	}
	page := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		m.remove(page)
		m.insert(page + 64)
		page++
	})
	if allocs != 0 {
		t.Fatalf("steady-state insert/delete allocates %.1f objects/op, want 0", allocs)
	}
}

// FuzzPageTable interprets the fuzz input as a stripe count (first byte:
// 1, 2, 8 or 64 stripes) and then an op stream (two bytes per op: action
// and key) against the reference model. Keys are drawn the way the cache
// hands them to one shard: only pages shardIndex routes to stripe 0, in
// a table skipping the stripe bits. The property test above covers
// structured interleavings; the fuzzer hunts for sequences neither of us
// thought of.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 1, 1, 2, 2, 0, 1})
	f.Add([]byte{2, 0, 0x10, 0, 0x20, 0, 0x30, 1, 0x20, 0, 0x40, 1, 0x10})
	seed := make([]byte, 0, 65)
	seed = append(seed, 3)
	for i := 0; i < 32; i++ {
		seed = append(seed, byte(i%3), byte(i*37))
	}
	f.Add(seed)
	stripes := []int{1, 2, 8, 64}
	type keySpace struct {
		skip uint
		keys []int64 // 64 sequential pages, then 64 clustered ones
	}
	spaces := make([]keySpace, len(stripes))
	for i, n := range stripes {
		c := stripedCache(n)
		spaces[i] = keySpace{c.shardShift,
			append(stripeZeroKeys(c, 64, sequentialKey), stripeZeroKeys(c, 64, clusteredKey)...)}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ks := spaces[int(data[0])%len(spaces)]
		m := newPTModel(t, 4, ks.skip)
		for i := 1; i+1 < len(data); i += 2 {
			// Clustered keys (one-byte keys spread over a 64-bit space)
			// collide often; sequential ones are the cache's common case.
			page := ks.keys[data[i+1]&0x7F]
			switch data[i] % 3 {
			case 0:
				m.insert(page)
			case 1:
				m.remove(page)
			case 2:
				m.check(page)
			}
		}
		m.checkAll()
	})
}

// TestPageTableGrowth floods one table far past its initial sizing (a
// hash-hot shard absorbing the whole budget) and then drains it: growth
// rehashes must preserve every entry and slot index.
func TestPageTableGrowth(t *testing.T) {
	m := newPTModel(t, 4, 0) // starts at 16 slots
	for i := int64(0); i < 3000; i++ {
		m.insert(i * 7)
	}
	m.checkAll()
	if got := m.table.len(); got != 3000 {
		t.Fatalf("table len %d after 3000 inserts", got)
	}
	for i := int64(0); i < 3000; i += 2 {
		m.remove(i * 7)
	}
	m.checkAll()
}

// TestPageTableSizing pins the budget-derived capacity rule: the table
// holds its expected occupancy at a load factor of one half.
func TestPageTableSizing(t *testing.T) {
	var pt pageTable
	pt.init(4096, 0)
	if got := len(pt.slots); got != 8192 {
		t.Fatalf("init(4096) sized %d slots, want 8192", got)
	}
	pt.init(1, 3)
	if got := len(pt.slots); got != 16 {
		t.Fatalf("init(1) sized %d slots, want the 16-slot floor", got)
	}
}

// probeLen counts the slots a lookup of page inspects, the match or the
// terminating empty slot included.
func probeLen(t *pageTable, page int64) int {
	mask := len(t.slots) - 1
	n := 1
	for i := t.hashSlot(page); t.slots[i] != nil && t.slots[i].page != page; i = (i + 1) & mask {
		n++
	}
	return n
}

// delMoves deletes f and returns how many entries its backshift moved.
// Entries only move backwards within the run that starts at f's slot, so
// comparing that run before and after counts every move exactly.
func delMoves(t *pageTable, f *frame) int {
	mask := len(t.slots) - 1
	start := int(f.slot)
	var run []*frame
	for i := start; t.slots[i] != nil; i = (i + 1) & mask {
		run = append(run, t.slots[i])
	}
	t.del(f)
	moved := 0
	for k, g := range run {
		if s := t.slots[(start+k)&mask]; s != nil && s != g {
			moved++
		}
	}
	return moved
}

// TestPageTableProbeBound pins the home-slot spread linear probing
// relies on, over keys as a shard sees them. For each stripe count, one
// stripe of a 16,384-frame cache is filled with its share of sequential
// pages (those shardIndex routes to it); a missing lookup must then stop
// within a few slots, and evict/install churn at that occupancy must
// backshift only a few entries per delete. Homing on the stripe bits
// themselves put every key of a stripe into one 1/N window of its table,
// where a miss walked a solid run: ~1,500 slots at 8 stripes.
func TestPageTableProbeBound(t *testing.T) {
	const (
		maxProbe  = 16
		meanProbe = 2.0
		maxMoves  = 16
		meanMoves = 1.0
	)
	for _, stripes := range []int{1, 2, 8, 64} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NumPages = 16384
			cfg.Shards = stripes
			c := testCache(t, cfg)
			share := cfg.NumPages / stripes
			keys := stripeZeroKeys(c, 2*share, sequentialKey)
			table := &c.shards[0].table
			frames := make([]*frame, share)
			for i, k := range keys[:share] {
				frames[i] = &frame{page: k}
				table.put(frames[i])
			}

			probes, worst := 0, 0
			for _, k := range keys[share:] {
				n := probeLen(table, k)
				probes += n
				worst = max(worst, n)
			}
			mean := float64(probes) / float64(share)
			t.Logf("miss probes: mean %.2f, max %d over %d slots", mean, worst, len(table.slots))
			if worst > maxProbe || mean > meanProbe {
				t.Errorf("missing lookup probed mean %.2f / max %d slots, want <= %.0f / %d",
					mean, worst, meanProbe, maxProbe)
			}

			// Evict the oldest, install the next: the cache at full budget.
			moves, worstMoves := 0, 0
			for i, f := range frames {
				n := delMoves(table, f)
				moves += n
				worstMoves = max(worstMoves, n)
				f.page = keys[share+i]
				table.put(f)
			}
			meanMv := float64(moves) / float64(share)
			t.Logf("backshift moves per delete: mean %.2f, max %d", meanMv, worstMoves)
			if worstMoves > maxMoves || meanMv > meanMoves {
				t.Errorf("delete backshifted mean %.2f / max %d entries, want <= %.0f / %d",
					meanMv, worstMoves, meanMoves, maxMoves)
			}
		})
	}
}
