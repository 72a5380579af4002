package mrt_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"testing"
	"testing/iotest"
	"unsafe"

	"tdat/internal/bgp"
	"tdat/internal/mrt"
	"tdat/internal/tracegen"
)

func sampleRecord(t *testing.T, micros int64) mrt.Record {
	t.Helper()
	u := &bgp.Update{
		Attrs: &bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  []uint16{7018, 16910},
			NextHop: netip.MustParseAddr("10.0.0.1"),
		},
		NLRI: []bgp.Prefix{netip.MustParsePrefix("206.209.232.0/21")},
	}
	raw, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return mrt.Record{
		TimeMicros: micros,
		PeerAS:     7018,
		LocalAS:    65000,
		PeerIP:     netip.MustParseAddr("192.0.2.1"),
		LocalIP:    netip.MustParseAddr("192.0.2.2"),
		Raw:        raw,
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	recs := []mrt.Record{
		sampleRecord(t, 1_235_728_588_000_123),
		sampleRecord(t, 1_235_728_592_500_000),
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := mrt.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range got {
		if got[i].TimeMicros != recs[i].TimeMicros {
			t.Errorf("record %d time = %d, want %d", i, got[i].TimeMicros, recs[i].TimeMicros)
		}
		if got[i].PeerAS != 7018 || got[i].PeerIP != recs[i].PeerIP || got[i].LocalIP != recs[i].LocalIP {
			t.Errorf("record %d metadata = %+v", i, got[i])
		}
		if !bytes.Equal(got[i].Raw, recs[i].Raw) {
			t.Errorf("record %d raw bytes differ", i)
		}
	}
}

func TestRecordMessage(t *testing.T) {
	rec := sampleRecord(t, 1_000_000)
	m, err := bgp.Parse(rec.Raw)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := m.(*bgp.Update)
	if !ok || len(u.NLRI) != 1 {
		t.Errorf("message = %T %+v", m, m)
	}
}

func TestReaderSkipsUnknownTypes(t *testing.T) {
	var buf bytes.Buffer
	// Unknown record: type 99, 4-byte body.
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], 1)
	binary.BigEndian.PutUint16(hdr[4:6], 99)
	binary.BigEndian.PutUint16(hdr[6:8], 1)
	binary.BigEndian.PutUint32(hdr[8:12], 4)
	buf.Write(hdr[:])
	buf.Write([]byte{0, 0, 0, 0})
	// Then a real record.
	w := mrt.NewWriter(&buf)
	if err := w.Write(sampleRecord(t, 42_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := mrt.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != 1 || got[0].TimeMicros != 42_000_000 {
		t.Errorf("got %d records err=%v", len(got), err)
	}
}

func TestReaderClassicBGP4MPSecondResolution(t *testing.T) {
	// Hand-build a classic (non-ET) BGP4MP record; microseconds are lost.
	rec := sampleRecord(t, 0)
	body := make([]byte, 16+len(rec.Raw))
	binary.BigEndian.PutUint16(body[0:2], rec.PeerAS)
	binary.BigEndian.PutUint16(body[2:4], rec.LocalAS)
	binary.BigEndian.PutUint16(body[6:8], 1)
	peer := rec.PeerIP.As4()
	local := rec.LocalIP.As4()
	copy(body[8:12], peer[:])
	copy(body[12:16], local[:])
	copy(body[16:], rec.Raw)
	var buf bytes.Buffer
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], 77)
	binary.BigEndian.PutUint16(hdr[4:6], mrt.TypeBGP4MP)
	binary.BigEndian.PutUint16(hdr[6:8], mrt.SubtypeMessage)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)

	got, err := mrt.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != 1 {
		t.Fatalf("got %d err=%v", len(got), err)
	}
	if got[0].TimeMicros != 77_000_000 {
		t.Errorf("time = %d, want 77000000", got[0].TimeMicros)
	}
}

func TestReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	if err := w.Write(sampleRecord(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err := mrt.ReadAll(bytes.NewReader(buf.Bytes()[:buf.Len()-3]))
	if !errors.Is(err, mrt.ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestWriterRejectsIPv6(t *testing.T) {
	rec := sampleRecord(t, 1)
	rec.PeerIP = netip.MustParseAddr("2001:db8::1")
	var buf bytes.Buffer
	if err := mrt.NewWriter(&buf).Write(rec); !errors.Is(err, mrt.ErrBadRecord) {
		t.Errorf("err = %v, want ErrBadRecord", err)
	}
}

// refReadAll is the streaming bufio decoder ReadAll replaced, kept as the
// reference the differential tests compare against. rawOff[i] is where
// record i's message starts in the input.
func refReadAll(r io.Reader) (recs []mrt.Record, rawOff []int, err error) {
	br := bufio.NewReader(r)
	pos := 0
	for {
		var hdr [12]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return recs, rawOff, nil
			}
			return recs, rawOff, fmt.Errorf("%w: header: %v", mrt.ErrTruncated, err)
		}
		sec := int64(binary.BigEndian.Uint32(hdr[0:4]))
		typ := binary.BigEndian.Uint16(hdr[4:6])
		sub := binary.BigEndian.Uint16(hdr[6:8])
		length := binary.BigEndian.Uint32(hdr[8:12])
		if length > 1<<20 {
			return recs, rawOff, fmt.Errorf("%w: implausible length %d", mrt.ErrBadRecord, length)
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(br, body); err != nil {
			return recs, rawOff, fmt.Errorf("%w: body: %v", mrt.ErrTruncated, err)
		}
		start := pos + 12
		pos += 12 + int(length)
		isET := typ == mrt.TypeBGP4MPET
		if (typ != mrt.TypeBGP4MP && !isET) || sub != mrt.SubtypeMessage {
			continue
		}
		micros := sec * 1_000_000
		if isET {
			if len(body) < 4 {
				return recs, rawOff, fmt.Errorf("%w: ET timestamp", mrt.ErrTruncated)
			}
			micros += int64(binary.BigEndian.Uint32(body[0:4]))
			body = body[4:]
			start += 4
		}
		if len(body) < 16 {
			return recs, rawOff, fmt.Errorf("%w: BGP4MP body %d bytes", mrt.ErrTruncated, len(body))
		}
		if binary.BigEndian.Uint16(body[6:8]) != 1 {
			continue
		}
		recs = append(recs, mrt.Record{
			TimeMicros: micros,
			PeerAS:     binary.BigEndian.Uint16(body[0:2]),
			LocalAS:    binary.BigEndian.Uint16(body[2:4]),
			PeerIP:     netip.AddrFrom4([4]byte(body[8:12])),
			LocalIP:    netip.AddrFrom4([4]byte(body[12:16])),
			Raw:        append([]byte(nil), body[16:]...),
		})
		rawOff = append(rawOff, start+16)
	}
}

// checkReadAll compares ReadAll on data with the reference: the same
// records, field for field, and the same error text. Every Raw must be
// capped at its own end and alias one buffer laid out like the input.
func checkReadAll(t *testing.T, data []byte) {
	t.Helper()
	got, err := mrt.ReadAll(bytes.NewReader(data))
	want, rawOff, werr := refReadAll(bytes.NewReader(data))
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("err = %v, reference %v", err, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, reference %d", len(got), len(want))
	}
	base := -1 // address of the input's first byte inside ReadAll's buffer
	for i, g := range got {
		w := want[i]
		if g.TimeMicros != w.TimeMicros || g.PeerAS != w.PeerAS || g.LocalAS != w.LocalAS ||
			g.PeerIP != w.PeerIP || g.LocalIP != w.LocalIP || !bytes.Equal(g.Raw, w.Raw) {
			t.Fatalf("record %d = %+v, reference %+v", i, g, w)
		}
		if cap(g.Raw) != len(g.Raw) {
			t.Fatalf("record %d: Raw cap %d exceeds len %d", i, cap(g.Raw), len(g.Raw))
		}
		if len(g.Raw) == 0 {
			continue
		}
		addr := int(uintptr(unsafe.Pointer(unsafe.SliceData(g.Raw))))
		if base < 0 {
			base = addr - rawOff[i]
		}
		if addr-base != rawOff[i] {
			t.Fatalf("record %d: Raw at offset %d of the buffer, input offset %d", i, addr-base, rawOff[i])
		}
	}
}

// tracegenArchive renders a small simulated collector archive.
func tracegenArchive(t testing.TB) []byte {
	t.Helper()
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindClean, Seed: 3, Routes: 120})
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for _, e := range tr.Archive {
		rec := mrt.Record{TimeMicros: e.Time, PeerAS: e.PeerAS, LocalAS: 65000,
			PeerIP: netip.MustParseAddr("10.0.0.1"), LocalIP: netip.MustParseAddr("10.0.0.2"), Raw: e.Raw}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Archive) < 3 {
		t.Fatalf("archive has %d records", len(tr.Archive))
	}
	return buf.Bytes()
}

// rawRecord frames one record with an arbitrary header and body.
func rawRecord(typ, sub uint16, length uint32, body []byte) []byte {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], 9)
	binary.BigEndian.PutUint16(hdr[4:6], typ)
	binary.BigEndian.PutUint16(hdr[6:8], sub)
	binary.BigEndian.PutUint32(hdr[8:12], length)
	return append(hdr[:], body...)
}

// FuzzMRT pins ReadAll to the streaming reference on arbitrary bytes. CI
// runs it for a short smoke window; run locally with
//
//	go test -run='^$' -fuzz=FuzzMRT -fuzztime=30s ./internal/mrt
func FuzzMRT(f *testing.F) {
	archive := tracegenArchive(f)
	f.Add(archive)
	for _, cut := range []int{1, 11, 12, 13, 20, 40, len(archive) / 2, len(archive) - 1} {
		f.Add(archive[:cut])
	}
	f.Add([]byte{})
	f.Add(rawRecord(99, 1, 4, []byte{1, 2, 3, 4}))
	f.Add(rawRecord(mrt.TypeBGP4MPET, mrt.SubtypeMessage, 2, []byte{0, 0}))                  // short ET timestamp
	f.Add(rawRecord(mrt.TypeBGP4MP, mrt.SubtypeMessage, 8, make([]byte, 8)))                 // short BGP4MP body
	f.Add(rawRecord(mrt.TypeBGP4MP, mrt.SubtypeMessage, 1<<20+1, nil))                       // implausible length
	f.Add(rawRecord(mrt.TypeBGP4MP, mrt.SubtypeMessage, 16, make([]byte, 16)))               // AFI 0: skipped
	f.Add(rawRecord(mrt.TypeBGP4MP, mrt.SubtypeMessage, 20, []byte{0, 0, 0, 0, 0, 0, 0, 1})) // cut body
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadAll(t, data)
	})
}

// TestReadAllMatchesReference runs truncations of a small archive through
// the differential check, then reads the whole archive through readers
// that cannot report their size and return short reads, so the buffer
// grows as it fills.
func TestReadAllMatchesReference(t *testing.T) {
	archive := tracegenArchive(t)
	for cut := 0; cut <= len(archive); cut += 1 + cut%7 {
		checkReadAll(t, archive[:cut])
	}
	checkReadAll(t, archive)
	want, _, _ := refReadAll(bytes.NewReader(archive))
	for name, r := range map[string]io.Reader{
		"one byte": iotest.OneByteReader(bytes.NewReader(archive)),
		"half":     iotest.HalfReader(bytes.NewReader(archive)),
	} {
		got, err := mrt.ReadAll(r)
		if err != nil || len(got) != len(want) {
			t.Fatalf("%s reader: %d records, err %v; want %d", name, len(got), err, len(want))
		}
		for i := range got {
			if got[i].TimeMicros != want[i].TimeMicros || !bytes.Equal(got[i].Raw, want[i].Raw) {
				t.Fatalf("%s reader: record %d differs", name, i)
			}
		}
	}
}

// TestReadAllFailingReader: a read error mid-archive keeps the records
// before it and reports truncation.
func TestReadAllFailingReader(t *testing.T) {
	archive := tracegenArchive(t)
	all, err := mrt.ReadAll(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	cut := len(archive) / 2
	got, err := mrt.ReadAll(io.MultiReader(bytes.NewReader(archive[:cut]), iotest.ErrReader(boom)))
	if !errors.Is(err, mrt.ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
	want, _, _ := refReadAll(bytes.NewReader(archive[:cut]))
	if len(got) != len(want) || len(got) == 0 || len(got) >= len(all) {
		t.Fatalf("kept %d records, want the %d before the failure (of %d)", len(got), len(want), len(all))
	}
	for i := range got {
		if got[i].TimeMicros != all[i].TimeMicros || !bytes.Equal(got[i].Raw, all[i].Raw) {
			t.Errorf("record %d differs from the whole archive's", i)
		}
	}
}

// TestReadAllAllocsPerArchive: decoding costs the input buffer and the
// record slice, however many records the archive holds.
func TestReadAllAllocsPerArchive(t *testing.T) {
	archive := tracegenArchive(t)
	rd := bytes.NewReader(archive)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(archive)
		if _, err := mrt.ReadAll(rd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("ReadAll made %.0f allocations, want at most 2", allocs)
	}
}
