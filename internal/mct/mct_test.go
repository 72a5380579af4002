package mct

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/mrt"
)

// pfx makes distinct /24 prefixes.
func pfx(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
}

// transferStream builds n updates of 4 fresh prefixes each, spaced dt apart
// starting at t0.
func transferStream(t0 Micros, n int, dt Micros) []Update {
	var out []Update
	for i := 0; i < n; i++ {
		var ps []netip.Prefix
		for j := 0; j < 4; j++ {
			ps = append(ps, pfx(i*4+j))
		}
		out = append(out, Update{Time: t0 + Micros(i)*dt, Prefixes: ps})
	}
	return out
}

func TestFindEndEmptyStream(t *testing.T) {
	if _, ok := FindEnd(nil, Config{}); ok {
		t.Error("found a transfer in an empty stream")
	}
}

func TestFindEndCleanTransfer(t *testing.T) {
	ups := transferStream(1_000_000, 50, 100_000)
	res, ok := FindEnd(ups, Config{})
	if !ok {
		t.Fatal("no result")
	}
	wantEnd := ups[len(ups)-1].Time
	if res.End != wantEnd {
		t.Errorf("End = %d, want %d", res.End, wantEnd)
	}
	if res.Updates != 50 || res.UniquePrefixes != 200 {
		t.Errorf("result = %+v", res)
	}
}

func TestFindEndStopsAtQuietGap(t *testing.T) {
	ups := transferStream(0, 30, 100_000)
	// A lone churn update long after the transfer.
	ups = append(ups, Update{Time: ups[len(ups)-1].Time + 120_000_000, Prefixes: []netip.Prefix{pfx(9999)}})
	res, ok := FindEnd(ups, Config{})
	if !ok {
		t.Fatal("no result")
	}
	if res.Updates != 30 {
		t.Errorf("Updates = %d, want 30 (churn excluded)", res.Updates)
	}
}

func TestFindEndStopsWhenNoveltyDies(t *testing.T) {
	ups := transferStream(0, 30, 100_000)
	last := ups[len(ups)-1].Time
	// Dense re-announcements of already-seen prefixes (no novelty) follow
	// within the quiet gap.
	for i := 0; i < 200; i++ {
		ups = append(ups, Update{
			Time:     last + Micros(i+1)*100_000,
			Prefixes: []netip.Prefix{pfx(i % 20)},
		})
	}
	res, ok := FindEnd(ups, Config{})
	if !ok {
		t.Fatal("no result")
	}
	if res.End > last+15_000_000 {
		t.Errorf("End = %d, want ≈%d (novelty rule should cut churn)", res.End, last)
	}
	if res.UniquePrefixes != 120 {
		t.Errorf("unique prefixes = %d, want 120", res.UniquePrefixes)
	}
}

func TestFindEndUnsortedInput(t *testing.T) {
	ups := transferStream(0, 10, 100_000)
	ups[0], ups[5] = ups[5], ups[0]
	res, ok := FindEnd(ups, Config{})
	if !ok || res.Updates != 10 {
		t.Errorf("unsorted input mishandled: %+v ok=%v", res, ok)
	}
}

func TestFindEndSlowPacedTransfer(t *testing.T) {
	// 2-second inter-update gaps (timer-paced sender) must not trip the
	// 30-second quiet rule.
	ups := transferStream(0, 20, 2_000_000)
	res, ok := FindEnd(ups, Config{})
	if !ok || res.Updates != 20 {
		t.Errorf("paced transfer cut short: %+v", res)
	}
}

func TestFromMessages(t *testing.T) {
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{1}, NextHop: netip.MustParseAddr("10.0.0.1")}
	msgs := []bgp.Message{
		&bgp.Keepalive{},
		&bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{pfx(1), pfx(2)}},
		&bgp.Update{Withdrawn: []netip.Prefix{pfx(3)}},
		&bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{pfx(4)}},
	}
	times := []Micros{10, 20, 30, 40}
	ups := FromMessages(times, msgs)
	if len(ups) != 2 {
		t.Fatalf("updates = %d, want 2", len(ups))
	}
	if ups[0].Time != 20 || len(ups[0].Prefixes) != 2 {
		t.Errorf("first = %+v", ups[0])
	}
	if ups[1].Time != 40 {
		t.Errorf("second = %+v", ups[1])
	}
}

func TestFindEndDeterministic(t *testing.T) {
	ups := transferStream(0, 100, 50_000)
	var results []string
	for i := 0; i < 3; i++ {
		r, _ := FindEnd(ups, Config{})
		results = append(results, fmt.Sprintf("%+v", r))
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Errorf("nondeterministic results: %v", results)
	}
}

// refFindEnd is the map-based FindEnd the Finder replaced, kept as the
// reference the differential tests compare against.
func refFindEnd(updates []Update, cfg Config) (Result, bool) {
	cfg = cfg.withDefaults()
	if len(updates) == 0 {
		return Result{}, false
	}
	ups := append([]Update(nil), updates...)
	sort.SliceStable(ups, func(i, j int) bool { return ups[i].Time < ups[j].Time })
	seen := map[netip.Prefix]bool{}
	type point struct {
		time                  Micros
		total, novel, cumulen int
	}
	points := make([]point, len(ups))
	for i, u := range ups {
		novel := 0
		for _, p := range u.Prefixes {
			if !seen[p] {
				seen[p] = true
				novel++
			}
		}
		points[i] = point{u.Time, len(u.Prefixes), novel, len(seen)}
	}
	endIdx, lo := 0, 0
	wTotal, wNovel := points[0].total, points[0].novel
	for i := 1; i < len(points); i++ {
		if points[i].time-points[i-1].time > cfg.QuietGap {
			break
		}
		wTotal += points[i].total
		wNovel += points[i].novel
		for points[lo].time < points[i].time-cfg.NoveltyWindow {
			wTotal -= points[lo].total
			wNovel -= points[lo].novel
			lo++
		}
		if wTotal > 0 && float64(wNovel)/float64(wTotal) < cfg.MinNovelty {
			break
		}
		endIdx = i
	}
	for endIdx > 0 && points[endIdx].novel == 0 {
		endIdx--
	}
	return Result{End: points[endIdx].time, Updates: endIdx + 1, UniquePrefixes: points[endIdx].cumulen}, true
}

// randomStream draws a transfer-like stream that exercises every branch the
// key path has: repeated prefixes, unmasked host bits, the default route,
// IPv6 and invalid prefixes, updates with no prefixes, quiet gaps, and
// out-of-order completion times.
func randomStream(rnd *rand.Rand) []Update {
	pool := []netip.Prefix{
		netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("2001:db8::/32"),
		netip.MustParsePrefix("::ffff:10.0.0.0/104"),
		netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, 2, 3}), 16), // host bits set
		{}, // invalid
	}
	n := 1 + rnd.Intn(300)
	ups := make([]Update, n)
	t := Micros(0)
	for i := range ups {
		switch r := rnd.Intn(100); {
		case r < 2:
			t += 40_000_000 // past the quiet gap
		case r < 8:
			t -= Micros(rnd.Intn(2_000_000)) // late completion
		default:
			t += Micros(rnd.Intn(400_000))
		}
		var ps []netip.Prefix
		for j := rnd.Intn(6); j > 0; j-- {
			switch r := rnd.Intn(10); {
			case r == 0:
				ps = append(ps, pool[rnd.Intn(len(pool))])
			case r < 4:
				ps = append(ps, pfx(rnd.Intn(i+1))) // likely seen before
			default:
				ps = append(ps, pfx(rnd.Intn(1<<16)))
			}
		}
		ups[i] = Update{Time: t, Prefixes: ps}
	}
	return ups
}

// TestFindEndMatchesReference pins the Finder-backed FindEnd to the
// map-based reference on seeded random streams.
func TestFindEndMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		ups := randomStream(rnd)
		orig := append([]Update(nil), ups...)
		got, gok := FindEnd(ups, Config{})
		want, wok := refFindEnd(ups, Config{})
		if got != want || gok != wok {
			t.Fatalf("stream %d: FindEnd = %+v %v, reference = %+v %v", i, got, gok, want, wok)
		}
		for j := range ups {
			if ups[j].Time != orig[j].Time {
				t.Fatalf("stream %d: FindEnd reordered its input", i)
			}
		}
	}
}

// TestFinderKeysMatchPrefixes feeds a Finder the packed keys of each
// update's prefixes and checks it agrees with FindEnd over the prefixes.
func TestFinderKeysMatchPrefixes(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		ups := randomStream(rnd)
		var f Finder
		var keys []uint64
		v4 := ups[:0:0]
		for _, u := range ups {
			keys = keys[:0]
			var ps []netip.Prefix
			for _, p := range u.Prefixes {
				if k, ok := bgp.PrefixKey(p); ok {
					keys = append(keys, k)
					ps = append(ps, p)
				}
			}
			f.Add(u.Time, keys)
			v4 = append(v4, Update{Time: u.Time, Prefixes: ps})
		}
		got, gok := f.End(Config{})
		want, wok := FindEnd(v4, Config{})
		if got != want || gok != wok {
			t.Fatalf("stream %d: Finder = %+v %v, FindEnd = %+v %v", i, got, gok, want, wok)
		}
	}
}

func TestFinderEmptyUpdatesArePoints(t *testing.T) {
	var f Finder
	if _, ok := f.End(Config{}); ok {
		t.Error("empty Finder found a transfer")
	}
	f.Add(10, []uint64{1, 2})
	f.Add(20, nil)
	f.Add(30, []uint64{3})
	res, ok := f.End(Config{})
	if !ok || res.Updates != 3 || res.End != 30 || res.UniquePrefixes != 3 {
		t.Errorf("result = %+v ok=%v, want 3 updates ending at 30 with 3 prefixes", res, ok)
	}
}

func TestKeySetGrowsToCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 6, 7, 100, 4096} {
		s := newKeySet(n)
		if 4*n > 3*len(s.slots) {
			t.Errorf("capacity %d: %d slots exceed load 0.75", n, len(s.slots))
		}
		for k := 0; k < n; k++ {
			if !s.insert(uint64(k)) || s.insert(uint64(k)) {
				t.Fatalf("capacity %d: key %d inserted wrong", n, k)
			}
		}
		if s.n != n {
			t.Errorf("capacity %d: n = %d", n, s.n)
		}
	}
}

// refFromMRT is the Parse-based conversion FromMRT replaced, kept as the
// reference the differential tests compare against.
func refFromMRT(records []mrt.Record) []Update {
	var out []Update
	for _, r := range records {
		m, err := bgp.Parse(r.Raw)
		if err != nil {
			continue
		}
		u, ok := m.(*bgp.Update)
		if !ok || len(u.NLRI) == 0 {
			continue
		}
		out = append(out, Update{Time: r.TimeMicros, Prefixes: u.NLRI})
	}
	return out
}

// fromMRTDivergence describes the first way FromMRT disagrees with the
// reference on records: the updates kept, their times, their masked
// prefixes, or the transfer end found over them.
func fromMRTDivergence(records []mrt.Record) error {
	got, want := FromMRT(records), refFromMRT(records)
	if len(got) != len(want) {
		return fmt.Errorf("%d updates, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Time != want[i].Time || !slices.Equal(got[i].Prefixes, want[i].Prefixes) {
			return fmt.Errorf("update %d = %+v, reference %+v", i, got[i], want[i])
		}
		if cap(got[i].Prefixes) != len(got[i].Prefixes) {
			return fmt.Errorf("update %d: prefixes cap %d exceeds len %d", i, cap(got[i].Prefixes), len(got[i].Prefixes))
		}
		for _, p := range got[i].Prefixes {
			if p != p.Masked() {
				return fmt.Errorf("update %d: prefix %v has host bits", i, p)
			}
		}
	}
	gr, gok := FindEnd(got, Config{})
	wr, wok := FindEnd(want, Config{})
	if gr != wr || gok != wok {
		return fmt.Errorf("FindEnd = %+v %v, reference %+v %v", gr, gok, wr, wok)
	}
	return nil
}

// rawMessage frames a BGP message with an arbitrary body, so tests can
// build messages Marshal refuses to produce.
func rawMessage(typ byte, body []byte) []byte {
	msg := make([]byte, bgp.HeaderLen, bgp.HeaderLen+len(body))
	for i := 0; i < 16; i++ {
		msg[i] = 0xFF
	}
	binary.BigEndian.PutUint16(msg[16:18], uint16(bgp.HeaderLen+len(body)))
	msg[18] = typ
	return append(msg, body...)
}

// rawUpdate frames an UPDATE from raw attribute and NLRI sections.
func rawUpdate(attrs, nlri []byte) []byte {
	body := binary.BigEndian.AppendUint16([]byte{0, 0}, uint16(len(attrs)))
	return rawMessage(bgp.TypeUpdate, append(append(body, attrs...), nlri...))
}

// archiveCases returns records covering every way FromMRT keeps or skips a
// record; want lists the kept records' indexes.
func archiveCases(t testing.TB) (records []mrt.Record, want []int) {
	t.Helper()
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{1, 2}, NextHop: netip.MustParseAddr("10.0.0.1")}
	mkRaw := func(m bgp.Message) []byte {
		raw, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	origin := []byte{0x40, bgp.AttrOrigin, 1, 0}
	raws := []struct {
		raw  []byte
		kept bool
	}{
		{mkRaw(&bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{pfx(1), pfx(2)}}), true},
		{[]byte{0xde, 0xad}, false}, // corrupt
		{mkRaw(&bgp.Keepalive{}), false},
		{mkRaw(&bgp.Update{Withdrawn: []netip.Prefix{pfx(1)}}), false},
		{rawUpdate(nil, []byte{24, 10, 0, 3}), false}, // NLRI without attributes
		// Host bits past the length: 10.15.0.0/12 on the wire, 10.0.0.0/12
		// announced.
		{rawUpdate(origin, []byte{12, 10, 0x0F, 0}), true},
		{rawUpdate(append([]byte{0x40, bgp.AttrASPath, 4, 3, 1, 0, 1}, origin...), []byte{8, 10}), false}, // bad AS_PATH segment type
		{mkRaw(&bgp.Update{Attrs: attrs}), false},                                                         // attributes, no NLRI
		{rawUpdate(origin, []byte{0, 32, 192, 0, 2, 1}), true},                                            // default route and a /32
		{mkRaw(&bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{pfx(2), pfx(3), pfx(4)}}), true},
	}
	for i, r := range raws {
		records = append(records, mrt.Record{TimeMicros: Micros(10 * (i + 1)), Raw: r.raw})
		if r.kept {
			want = append(want, i)
		}
	}
	return records, want
}

func TestFromMRT(t *testing.T) {
	records, keep := archiveCases(t)
	ups := FromMRT(records)
	if len(ups) != len(keep) {
		t.Fatalf("updates = %d, want %d", len(ups), len(keep))
	}
	for i, k := range keep {
		if ups[i].Time != records[k].TimeMicros {
			t.Errorf("update %d time = %d, want record %d's %d", i, ups[i].Time, k, records[k].TimeMicros)
		}
	}
	if want := netip.MustParsePrefix("10.0.0.0/12"); ups[1].Prefixes[0] != want {
		t.Errorf("host bits kept: %v, want %v", ups[1].Prefixes[0], want)
	}
	if err := fromMRTDivergence(records); err != nil {
		t.Error(err)
	}
	if FromMRT(records[1:5]) != nil {
		t.Error("records announcing nothing gave updates")
	}
}

// TestFromMRTPrefixesCapped: the updates share one prefix arena, so each
// Prefixes view is capped — appending to one must not reach the next.
func TestFromMRTPrefixesCapped(t *testing.T) {
	records, _ := archiveCases(t)
	ups := FromMRT(records)
	next := slices.Clone(ups[1].Prefixes)
	ups[0].Prefixes = append(ups[0].Prefixes, pfx(999))
	if !slices.Equal(ups[1].Prefixes, next) {
		t.Errorf("appending to update 0 changed update 1: %v, want %v", ups[1].Prefixes, next)
	}
}

// fuzzRecords splits data into records: each a signed time step in half
// seconds (so streams go backwards and cross the quiet gap), a two-byte
// length and that many message bytes, clamped to what is left.
func fuzzRecords(data []byte) []mrt.Record {
	var recs []mrt.Record
	t := Micros(0)
	for len(data) >= 3 {
		t += Micros(int8(data[0])) * 500_000
		n := min(int(binary.BigEndian.Uint16(data[1:3])), len(data)-3)
		recs = append(recs, mrt.Record{TimeMicros: t, Raw: data[3 : 3+n]})
		data = data[3+n:]
	}
	return recs
}

// FuzzFromMRT pins FromMRT to the Parse-based reference on arbitrary
// records. CI runs it for a short smoke window; run locally with
//
//	go test -run='^$' -fuzz=FuzzFromMRT -fuzztime=30s ./internal/mct
func FuzzFromMRT(f *testing.F) {
	records, _ := archiveCases(f)
	var all []byte
	for _, r := range records {
		enc := binary.BigEndian.AppendUint16([]byte{1}, uint16(len(r.Raw)))
		enc = append(enc, r.Raw...)
		f.Add(enc)
		all = append(all, enc...)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := fromMRTDivergence(fuzzRecords(data)); err != nil {
			t.Fatal(err)
		}
	})
}
