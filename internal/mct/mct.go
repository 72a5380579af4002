// Package mct estimates the end of a BGP routing-table transfer from a
// stream of archived updates — the Minimum Collection Time algorithm of
// Zhang et al. [36] as adapted by the paper (§II-A): the TCP connection
// start pins the transfer start, and MCT finds the instant by which the
// initial table has been (re)announced.
//
// The adaptation here follows the original's intuition: during a table
// transfer the sender streams monotonically growing sets of distinct
// prefixes back-to-back; the transfer ends at the last update after which
// (i) essentially no new prefixes appear for a guard window, or (ii) the
// update stream goes quiet for longer than the inter-update timescale seen
// so far.
package mct

import (
	"net/netip"
	"sort"

	"tdat/internal/bgp"
	"tdat/internal/mrt"
	"tdat/internal/timerange"
)

// Micros aliases the trace time unit.
type Micros = timerange.Micros

// Update is one timed BGP update for MCT purposes.
type Update struct {
	Time Micros
	// Prefixes are the NLRI announcements in the update.
	Prefixes []netip.Prefix
}

// Config tunes the estimator; zero values select defaults.
type Config struct {
	// QuietGap ends the transfer when no update arrives for this long
	// (default 30 s — table transfers stream continuously at much finer
	// granularity, while post-transfer updates are sparse).
	QuietGap Micros
	// NoveltyWindow is the trailing window over which the novelty rule is
	// evaluated (default 10 s).
	NoveltyWindow Micros
	// MinNovelty is the fraction of a trailing window's announcements that
	// must be previously unseen prefixes for the transfer to be considered
	// still in progress (default 0.05).
	MinNovelty float64
}

func (c Config) withDefaults() Config {
	if c.QuietGap == 0 {
		c.QuietGap = 30 * 1_000_000
	}
	if c.NoveltyWindow == 0 {
		c.NoveltyWindow = 10 * 1_000_000
	}
	if c.MinNovelty == 0 {
		c.MinNovelty = 0.05
	}
	return c
}

// Result describes the identified transfer.
type Result struct {
	// End is the estimated transfer end time (the completing update's
	// timestamp).
	End Micros
	// Updates is how many updates belong to the transfer.
	Updates int
	// UniquePrefixes is the distinct prefix count announced by then.
	UniquePrefixes int
}

// FindEnd locates the transfer end in updates (which must be time-sorted;
// they are sorted defensively). An update without prefixes still counts as
// a point with zero announcements. ok is false for an empty stream.
func FindEnd(updates []Update, cfg Config) (Result, bool) {
	total := 0
	for i := range updates {
		total += len(updates[i].Prefixes)
	}
	f := Finder{
		times: make([]Micros, 0, len(updates)),
		ends:  make([]int, 0, len(updates)),
		keys:  make([]uint64, 0, total),
	}
	// Anything bgp.PrefixKey cannot pack (IPv6, invalid prefixes) gets a
	// key of its own above the IPv4 key range, interned by prefix identity.
	var spill map[netip.Prefix]uint64
	for i := range updates {
		for _, p := range updates[i].Prefixes {
			key, ok := bgp.PrefixKey(p)
			if !ok {
				if key, ok = spill[p]; !ok {
					if spill == nil {
						spill = map[netip.Prefix]uint64{}
					}
					key = spillBase + uint64(len(spill))
					spill[p] = key
				}
			}
			f.keys = append(f.keys, key)
		}
		f.endUpdate(updates[i].Time)
	}
	return f.End(cfg)
}

// spillBase is the first key FindEnd assigns to a prefix bgp.PrefixKey
// cannot pack; packed IPv4 keys stay below 1<<38.
const spillBase = 1 << 40

// Finder accumulates timed updates as packed prefix keys (bgp.PrefixKey,
// bgp.AppendNLRIKeys) and locates the transfer end over them. It stores the
// updates in columns — completion times, each update's end offset in the
// key column, and the keys — so a table transfer costs three growing slices
// rather than a heap object per update. The zero value is ready to use. A
// Finder is per-transfer state; it is not safe for concurrent use.
type Finder struct {
	times []Micros
	ends  []int // ends[i] is update i's end offset in keys
	keys  []uint64
}

// Add records one update completing at t that announces keys. An update
// with no keys still counts as a point with zero announcements. keys is
// copied.
func (f *Finder) Add(t Micros, keys []uint64) {
	f.keys = append(f.keys, keys...)
	f.endUpdate(t)
}

// endUpdate ends the update whose keys were appended since the previous one.
func (f *Finder) endUpdate(t Micros) {
	f.times = append(f.times, t)
	f.ends = append(f.ends, len(f.keys))
}

// End locates the transfer end over the updates added so far, in
// completion-time order: updates added out of time order are stably sorted
// first. ok is false when no update was added.
func (f *Finder) End(cfg Config) (Result, bool) {
	cfg = cfg.withDefaults()
	n := len(f.times)
	if n == 0 {
		return Result{}, false
	}
	// order[i] is the i-th update in time order; nil when the updates
	// already are (the usual case, which then costs no permutation).
	var order []int
	for i := 1; i < n; i++ {
		if f.times[i] < f.times[i-1] {
			order = make([]int, n)
			for j := range order {
				order[j] = j
			}
			sort.SliceStable(order, func(a, b int) bool { return f.times[order[a]] < f.times[order[b]] })
			break
		}
	}
	// Sized from the announcement count, an upper bound on the distinct
	// prefixes (a table transfer is mostly distinct), so the set never
	// fills, at the cost of a transient overestimate on repetitive streams.
	seen := newKeySet(len(f.keys))
	type point struct {
		time    Micros
		total   int // announcements in this update
		novel   int // previously unseen prefixes in this update
		cumulen int // unique prefixes after this update
	}
	points := make([]point, n)
	for i := range points {
		u := i
		if order != nil {
			u = order[i]
		}
		start := 0
		if u > 0 {
			start = f.ends[u-1]
		}
		novel := 0
		for _, k := range f.keys[start:f.ends[u]] {
			if seen.insert(k) {
				novel++
			}
		}
		points[i] = point{time: f.times[u], total: f.ends[u] - start, novel: novel, cumulen: seen.n}
	}

	// Scan forward: the transfer continues while updates keep arriving
	// densely and keep contributing new prefixes. The trailing novelty
	// window slides with two pointers — wStart is non-decreasing, so each
	// point enters and leaves the running total/novel sums exactly once.
	endIdx := 0
	lo := 0
	wTotal, wNovel := points[0].total, points[0].novel
	for i := 1; i < len(points); i++ {
		gap := points[i].time - points[i-1].time
		if gap > cfg.QuietGap {
			break
		}
		// Trailing-window novelty: fraction of announcements that are new.
		wTotal += points[i].total
		wNovel += points[i].novel
		wStart := points[i].time - cfg.NoveltyWindow
		for points[lo].time < wStart {
			wTotal -= points[lo].total
			wNovel -= points[lo].novel
			lo++
		}
		if wTotal > 0 && float64(wNovel)/float64(wTotal) < cfg.MinNovelty {
			// The stream has stopped revealing table content: end at the
			// last update that contributed something new.
			break
		}
		endIdx = i
	}
	// Extend endIdx to the last update that added novelty at or before it.
	for endIdx > 0 && points[endIdx].novel == 0 {
		endIdx--
	}
	return Result{
		End:            points[endIdx].time,
		Updates:        endIdx + 1,
		UniquePrefixes: points[endIdx].cumulen,
	}, true
}

// keySet is an open-addressing hash set of prefix keys with linear
// probing. Slots hold key+1, so the zero value marks an empty slot (key 0
// is 0.0.0.0/0). The table is sized once for its capacity at load ≤ 0.75
// and never grows.
type keySet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int  // distinct keys inserted
}

func newKeySet(capacity int) keySet {
	size, shift := 8, uint(61)
	for size*3 < capacity*4 {
		size, shift = size*2, shift-1
	}
	return keySet{slots: make([]uint64, size), shift: shift}
}

// insert adds k, reporting whether it was previously unseen. The set must
// not already hold its capacity.
func (s *keySet) insert(k uint64) bool {
	mask := uint64(len(s.slots) - 1)
	// Fibonacci hashing: the multiply mixes every key bit into the top
	// bits, so the aligned, zero-padded addresses of table prefixes spread.
	i := (k * 0x9E3779B97F4A7C15) >> s.shift
	for {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k + 1
			s.n++
			return true
		case k + 1:
			return false
		}
		i = (i + 1) & mask
	}
}

// FromMRT converts a collector's MRT archive into MCT updates — the
// Quagga-collector pipeline of paper §II-A, where the transfer end comes
// from the BGP archive rather than payload reassembly. Records that do not
// parse, are not UPDATEs, or announce nothing are skipped. It builds no
// messages: a counting pass validates each record as bgp.Parse does, then
// a fill pass decodes the NLRI into one exact-size prefix arena that every
// Update.Prefixes is a capped view of.
func FromMRT(records []mrt.Record) []Update {
	updates, prefixes := 0, 0
	for i := range records {
		if _, n, err := bgp.UpdateNLRI(records[i].Raw); err == nil && n > 0 {
			updates++
			prefixes += n
		}
	}
	if updates == 0 {
		return nil
	}
	out := make([]Update, 0, updates)
	arena := make([]netip.Prefix, 0, prefixes)
	for i := range records {
		nlri, n, err := bgp.UpdateNLRI(records[i].Raw)
		if err != nil || n == 0 {
			continue
		}
		start := len(arena)
		arena = bgp.AppendPrefixes(arena, nlri)
		out = append(out, Update{Time: records[i].TimeMicros, Prefixes: arena[start:len(arena):len(arena)]})
	}
	return out
}

// FromMessages converts reassembled/archived BGP messages to MCT updates,
// skipping non-update messages.
func FromMessages(times []Micros, msgs []bgp.Message) []Update {
	var out []Update
	for i, m := range msgs {
		u, ok := m.(*bgp.Update)
		if !ok || len(u.NLRI) == 0 {
			continue
		}
		out = append(out, Update{Time: times[i], Prefixes: u.NLRI})
	}
	return out
}
