package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tdat/internal/mrt"
	"tdat/internal/pcapio"
	"tdat/internal/tracegen"
)

// TestArchiveTruncated: with -mrt, an archive cut mid-record still pins the
// transfer end from the records before the cut — the report matches the
// same archive cut cleanly at that record boundary, and differs from the
// whole archive's.
func TestArchiveTruncated(t *testing.T) {
	tr := tracegen.Run(tracegen.Scenario{Kind: tracegen.KindPaced, Seed: 4, Routes: 1600})
	dir := t.TempDir()
	var pb bytes.Buffer
	pw := pcapio.NewWriter(&pb)
	for _, c := range tr.Captures {
		frame, err := c.Pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.WritePacket(c.Time, frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mw := mrt.NewWriter(&mb)
	// Record boundaries in the archive: mrt.Writer frames each message in a
	// 16-byte BGP4MP_ET header plus a 16-byte BGP4MP_MESSAGE preamble.
	var bounds []int
	off := 0
	for _, e := range tr.Archive {
		rec := mrt.Record{TimeMicros: e.Time, PeerAS: e.PeerAS, LocalAS: 65000,
			PeerIP: tr.Captures[0].Pkt.IP.Src, LocalIP: tr.Captures[0].Pkt.IP.Dst, Raw: e.Raw}
		if err := mw.Write(rec); err != nil {
			t.Fatal(err)
		}
		off += 32 + len(e.Raw)
		bounds = append(bounds, off)
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	archive := mb.Bytes()
	if len(bounds) < 10 || bounds[len(bounds)-1] != len(archive) {
		t.Fatalf("%d records, last boundary %d of %d bytes", len(bounds), bounds[len(bounds)-1], len(archive))
	}
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pcap := write("t.pcap", pb.Bytes())
	report := func(archive string) string {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-explain", "-log-level", "error", "-mrt", archive, pcap}, &out, &errBuf); code != 0 {
			t.Fatalf("run(-mrt %s) = %d, stderr:\n%s", filepath.Base(archive), code, errBuf.String())
		}
		return out.String()
	}
	keep := len(bounds) / 2
	cut := report(write("cut.mrt", archive[:bounds[keep-1]+21]))
	clean := report(write("clean.mrt", archive[:bounds[keep-1]]))
	whole := report(write("whole.mrt", archive))
	if cut != clean {
		t.Errorf("truncated archive report differs from the clean cut's\n--- truncated\n%s\n--- clean cut\n%s", cut, clean)
	}
	if cut == whole {
		t.Error("truncated archive report equals the whole archive's: the cut did not bound the transfer end")
	}
}
