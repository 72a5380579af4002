package bgp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
)

// rawUpdate frames an UPDATE from raw withdrawn, attribute and NLRI
// sections, so tests can build bodies Marshal would refuse to produce.
func rawUpdate(wd, attrs, nlri []byte) []byte {
	body := binary.BigEndian.AppendUint16(nil, uint16(len(wd)))
	body = append(body, wd...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	return frame(TypeUpdate, append(body, nlri...))
}

// walkDivergence runs SplitStream + Parse and WalkUpdates over data and
// describes the first way they disagree: message count, bytes consumed,
// error text, or the masked NLRI keys (and end offset) of any UPDATE.
func walkDivergence(data []byte) error {
	msgs, consumed, err := SplitStream(data)
	type walked struct {
		end  int
		keys []uint64
	}
	var got []walked
	wmsgs, wconsumed, werr := WalkUpdates(data, func(end int, nlri []byte) {
		got = append(got, walked{end, AppendNLRIKeys(nil, nlri)})
	})
	if wmsgs != len(msgs) || wconsumed != consumed {
		return fmt.Errorf("walk: %d msgs/%d bytes, split: %d msgs/%d bytes", wmsgs, wconsumed, len(msgs), consumed)
	}
	if fmt.Sprint(werr) != fmt.Sprint(err) {
		return fmt.Errorf("walk error %q, split error %q", fmt.Sprint(werr), fmt.Sprint(err))
	}
	var want []walked
	off := 0
	for _, m := range msgs {
		off += int(binary.BigEndian.Uint16(data[off+16 : off+18]))
		u, ok := m.(*Update)
		if !ok {
			continue
		}
		var keys []uint64
		for _, p := range u.NLRI {
			k, ok := PrefixKey(p)
			if !ok {
				return fmt.Errorf("parsed prefix %v has no key", p)
			}
			keys = append(keys, k)
		}
		want = append(want, walked{off, keys})
	}
	if len(got) != len(want) {
		return fmt.Errorf("walk saw %d updates, split parsed %d", len(got), len(want))
	}
	for i := range want {
		if got[i].end != want[i].end || !slices.Equal(got[i].keys, want[i].keys) {
			return fmt.Errorf("update %d: walk end %d keys %x, split end %d keys %x",
				i, got[i].end, got[i].keys, want[i].end, want[i].keys)
		}
	}
	return nil
}

// walkCases returns a clean stream of every message kind (with masking
// cases) and, appended to it, one case per error WalkUpdates must report
// exactly as Parse does, in name order.
func walkCases(t testing.TB) (names []string, cases map[string][]byte) {
	t.Helper()
	marshal := func(m Message) []byte {
		raw, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	attrs := sampleAttrs()
	attrs.HasMED, attrs.MED = true, 7
	attrs.HasLocal, attrs.LocalPref = true, 100
	attrBytes, err := attrs.marshalAttrs()
	if err != nil {
		t.Fatal(err)
	}
	var good []byte
	for _, m := range []Message{
		&Open{AS: 7018, HoldTime: 180, Identifier: mustPrefix("10.0.0.1/32").Addr()},
		&Keepalive{},
		&Notification{Code: 6, Subcode: 2, Data: []byte{1, 2}},
		&Update{Attrs: attrs, NLRI: []Prefix{mustPrefix("10.0.0.0/8"), mustPrefix("192.0.2.0/24")}},
		&Update{Withdrawn: []Prefix{mustPrefix("172.16.0.0/12")}},
		&Update{Attrs: attrs},
	} {
		good = append(good, marshal(m)...)
	}
	// Host bits past the prefix length (10.15.0.0/12 on the wire, 10.0.0.0/12
	// parsed) and a default route: the keys must be masked.
	good = append(good, rawUpdate(nil, attrBytes, []byte{12, 10, 0x1F, 0, 24, 192, 0, 2, 32, 1, 2, 3, 4})...)
	with := func(msg []byte) []byte { return append(append([]byte(nil), good...), msg...) }
	attr := func(flags, typ byte, val ...byte) []byte { return append([]byte{flags, typ, byte(len(val))}, val...) }
	cases = map[string][]byte{
		"clean":                good,
		"partial tail":         with(marshal(&Keepalive{})[:7]),
		"bad length":           with([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 3, 4}),
		"bad marker":           with(append([]byte{0}, marshal(&Keepalive{})[1:]...)),
		"bad type":             with(frame(9, nil)),
		"short open":           with(frame(TypeOpen, []byte{4, 0})),
		"short notification":   with(frame(TypeNotification, []byte{6})),
		"keepalive body":       with(frame(TypeKeepalive, []byte{0})),
		"short update":         with(frame(TypeUpdate, []byte{0, 0, 0})),
		"withdrawn length":     with(frame(TypeUpdate, []byte{0, 9, 0, 0})),
		"withdrawn bits":       with(rawUpdate([]byte{33, 1, 2, 3, 4, 5}, nil, nil)),
		"withdrawn truncated":  with(rawUpdate([]byte{24, 10, 0}, nil, nil)),
		"attribute length":     with(frame(TypeUpdate, []byte{0, 0, 0, 9, 1})),
		"attribute header":     with(rawUpdate(nil, []byte{0x40, 1}, nil)),
		"extended header":      with(rawUpdate(nil, []byte{0x50, 2, 0}, nil)),
		"attribute value":      with(rawUpdate(nil, []byte{0x40, 3, 4, 1, 2}, nil)),
		"origin length":        with(rawUpdate(nil, attr(0x40, AttrOrigin, 0, 0), nil)),
		"next hop length":      with(rawUpdate(nil, attr(0x40, AttrNextHop, 1, 2, 3), nil)),
		"med length":           with(rawUpdate(nil, attr(0x80, AttrMED, 1), nil)),
		"local pref length":    with(rawUpdate(nil, attr(0x40, AttrLocalPref, 1, 2, 3, 4, 5), nil)),
		"as path header":       with(rawUpdate(nil, attr(0x40, AttrASPath, 2), nil)),
		"as path segment":      with(rawUpdate(nil, attr(0x40, AttrASPath, 2, 2, 0, 1), nil)),
		"as path type":         with(rawUpdate(nil, attr(0x40, AttrASPath, 3, 1, 0, 1), nil)),
		"unknown attribute":    with(rawUpdate(nil, append(attr(0xC0, 99, 1, 2, 3), attrBytes...), []byte{8, 10})),
		"nlri bits":            with(rawUpdate(nil, attrBytes, []byte{40, 1, 2, 3, 4, 5})),
		"nlri truncated":       with(rawUpdate(nil, attrBytes, []byte{16, 10})),
		"nlri without attrs":   with(rawUpdate(nil, nil, []byte{8, 10})),
		"bad attr before nlri": with(rawUpdate(nil, attr(0x40, AttrOrigin), []byte{40})),
	}
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, cases
}

// TestWalkUpdatesMatchesParse pins WalkUpdates to SplitStream + Parse on
// every message kind and every validation error, then on seeded random
// mutations of the clean stream.
func TestWalkUpdatesMatchesParse(t *testing.T) {
	names, cases := walkCases(t)
	for _, name := range names {
		if err := walkDivergence(cases[name]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, _, err := WalkUpdates(cases["clean"], func(int, []byte) {}); err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
	rnd := rand.New(rand.NewSource(11))
	clean := cases["clean"]
	for i := 0; i < 3000; i++ {
		data := append([]byte(nil), clean...)
		for j := 0; j < 1+rnd.Intn(4); j++ {
			data[rnd.Intn(len(data))] ^= byte(1 << rnd.Intn(8))
		}
		data = data[:rnd.Intn(len(data)+1)]
		if err := walkDivergence(data); err != nil {
			t.Fatalf("mutation %d (%x): %v", i, data, err)
		}
	}
}

// FuzzWalkUpdates is the differential target behind
// TestWalkUpdatesMatchesParse: on any byte stream WalkUpdates must report
// the message count, bytes consumed and error text SplitStream + Parse
// report, and the same masked NLRI keys for every UPDATE. CI runs it for a
// short smoke window; run locally with
//
//	go test -run='^$' -fuzz=FuzzWalkUpdates -fuzztime=30s ./internal/bgp
func FuzzWalkUpdates(f *testing.F) {
	names, cases := walkCases(f)
	for _, name := range names {
		f.Add(cases[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := walkDivergence(data); err != nil {
			t.Fatal(err)
		}
	})
}

// refPrefixes is the decoder AppendPrefixes replaced: netip's own masking,
// kept as the reference the masking test compares against.
func refPrefixes(data []byte) []Prefix {
	var out []Prefix
	for len(data) > 0 {
		bits := int(data[0])
		nbytes := (bits + 7) / 8
		var addr [4]byte
		copy(addr[:], data[1:1+nbytes])
		out = append(out, netip.PrefixFrom(netip.AddrFrom4(addr), bits).Masked())
		data = data[1+nbytes:]
	}
	return out
}

// TestAppendPrefixesMasks pins AppendPrefixes to netip's masking on random
// prefix lists with host bits set, at every length from /0 to /32.
func TestAppendPrefixesMasks(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		var nlri []byte
		for j := rnd.Intn(20); j > 0; j-- {
			bits := rnd.Intn(33)
			nlri = append(nlri, byte(bits))
			for k := 0; k < (bits+7)/8; k++ {
				nlri = append(nlri, byte(rnd.Intn(256)))
			}
		}
		n, err := countPrefixes(nlri)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]Prefix, 1, 1+n)
		got := AppendPrefixes(dst, nlri)
		if want := refPrefixes(nlri); !slices.Equal(got[1:], want) || len(got) != 1+n {
			t.Fatalf("list %x: AppendPrefixes = %v, reference %v", nlri, got[1:], want)
		}
		if &got[0] != &dst[0] {
			t.Fatalf("list %x: AppendPrefixes reallocated an exact-size slice", nlri)
		}
	}
}

// nlriDivergence describes the first way UpdateNLRI disagrees with Parse on
// one message: error text, or the prefixes AppendPrefixes decodes from the
// NLRI it returns against Parse's Update.NLRI.
func nlriDivergence(msg []byte) error {
	nlri, n, err := UpdateNLRI(msg)
	m, perr := Parse(msg)
	if fmt.Sprint(err) != fmt.Sprint(perr) {
		return fmt.Errorf("UpdateNLRI error %q, Parse error %q", fmt.Sprint(err), fmt.Sprint(perr))
	}
	var want []Prefix
	if u, ok := m.(*Update); ok {
		want = u.NLRI
	}
	if got := AppendPrefixes(nil, nlri); n != len(got) || !slices.Equal(got, want) {
		return fmt.Errorf("UpdateNLRI gave %d prefixes %v, Parse %v", n, got, want)
	}
	return nil
}

// TestUpdateNLRIMatchesParse pins UpdateNLRI to Parse on each message of
// the clean stream, the final (invalid) message of every error case, and
// seeded random mutations of every clean message.
func TestUpdateNLRIMatchesParse(t *testing.T) {
	names, cases := walkCases(t)
	clean := cases["clean"]
	var msgs [][]byte
	for rest := clean; len(rest) > 0; {
		n := int(binary.BigEndian.Uint16(rest[16:18]))
		msgs = append(msgs, rest[:n])
		rest = rest[n:]
	}
	for _, name := range names {
		msgs = append(msgs, cases[name][len(clean):])
	}
	for i, msg := range msgs {
		if err := nlriDivergence(msg); err != nil {
			t.Errorf("message %d (%x): %v", i, msg, err)
		}
	}
	rnd := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		msg := append([]byte(nil), msgs[rnd.Intn(len(msgs))]...)
		for j := 0; j < 1+rnd.Intn(3) && len(msg) > 0; j++ {
			msg[rnd.Intn(len(msg))] ^= byte(1 << rnd.Intn(8))
		}
		if err := nlriDivergence(msg); err != nil {
			t.Fatalf("mutation %d (%x): %v", i, msg, err)
		}
	}
}
