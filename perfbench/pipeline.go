package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"strings"
	"time"

	"tdat/internal/core"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/mrt"
	"tdat/internal/oracle"
)

// analyze runs one whole-capture analysis through the analyzer's public
// entry points: AnalyzePcap for the reassembly pipeline, or the archive
// composition of `tdat -mrt` (mrt.ReadAll, per-peer buckets, FromMRT,
// AnalyzeConnectionWithUpdates) for archive-pinned. When lat is non-nil the
// wall time of every per-connection analyze call is appended to it; that is
// only safe with one worker.
func analyze(a *core.Analyzer, w *workload, lat *[]time.Duration) (*core.Report, error) {
	var perConn func(*flows.Connection) *core.TransferReport
	if w.archive {
		mrecs, err := mrt.ReadAll(bytes.NewReader(w.mrt))
		if err != nil {
			return nil, fmt.Errorf("reading archive: %w", err)
		}
		byPeer := bucketByPeer(mrecs)
		perConn = func(c *flows.Connection) *core.TransferReport {
			return a.AnalyzeConnectionWithUpdates(c, mct.FromMRT(archiveWindow(byPeer, c)))
		}
	} else {
		perConn = a.AnalyzeConnection
	}
	if lat != nil {
		inner := perConn
		perConn = func(c *flows.Connection) *core.TransferReport {
			t0 := time.Now()
			tr := inner(c)
			*lat = append(*lat, time.Since(t0))
			return tr
		}
	}
	return a.AnalyzePcapWith(bytes.NewReader(w.pcap), perConn)
}

// bucketByPeer groups archive records by router address, each bucket in
// time order, as `tdat -mrt` does.
func bucketByPeer(recs []mrt.Record) map[netip.Addr][]mrt.Record {
	byPeer := map[netip.Addr][]mrt.Record{}
	for _, r := range recs {
		byPeer[r.PeerIP] = append(byPeer[r.PeerIP], r)
	}
	for _, rs := range byPeer {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].TimeMicros < rs[j].TimeMicros })
	}
	return byPeer
}

// archiveWindow returns the archive records of c's router within the
// connection's lifetime plus a 1 s grace for the collector's write delay.
func archiveWindow(byPeer map[netip.Addr][]mrt.Record, c *flows.Connection) []mrt.Record {
	recs := byPeer[c.Sender.Addr]
	start, end := c.Profile.Start, c.Profile.End+1_000_000
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].TimeMicros >= start })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].TimeMicros > end })
	return recs[lo:hi]
}

// transferLine renders everything a transfer's verdict consists of (and no
// timing): the transfer window, the MCT end, the delay-ratio vectors, the
// major groups and the detector outcomes. Floats print in their shortest
// exact form, so equal lines mean bit-identical results.
func transferLine(t *core.TransferReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s->%s window=%d-%d msgs=%d rerr=%q trunc=%d",
		t.Conn.Sender, t.Conn.Receiver, t.Transfer.Start, t.Transfer.End,
		t.Messages, t.ReassemblyError, t.ReassemblyTruncated)
	if t.MCT != nil {
		fmt.Fprintf(&b, " mct=%+v", *t.MCT)
	}
	f := t.Factors
	fmt.Fprintf(&b, " V=%v G=%v major=%v thr=%v", f.V[:], f.G[:], f.MajorGroups, f.Threshold)
	if t.Timer != nil {
		fmt.Fprintf(&b, " timer=%+v", *t.Timer)
	}
	fmt.Fprintf(&b, " consec=%+v zab=%v", t.ConsecLoss, t.ZeroAckBug)
	return b.String()
}

// reportDigest is a whole report's verdict content: one line per transfer
// in report order, then the report-level skips, failures and degradation.
type reportDigest struct {
	lines []string
	sum   [32]byte
}

func digestReport(rep *core.Report) reportDigest {
	d := reportDigest{lines: make([]string, len(rep.Transfers))}
	h := sha256.New()
	for i, t := range rep.Transfers {
		d.lines[i] = transferLine(t)
		fmt.Fprintln(h, d.lines[i])
	}
	fmt.Fprintf(h, "skipped=%d failures=%v\n", rep.SkippedPackets, rep.Failures)
	_ = rep.Degradation.WriteText(h) // hash.Hash writes never fail
	copy(d.sum[:], h.Sum(nil))
	return d
}

// mismatches counts the connections whose verdict differs between two
// reports; 0 means identical reports.
func mismatches(ref, got reportDigest) int {
	if ref.sum == got.sum {
		return 0
	}
	return max(lineMismatches(ref.lines, got.lines), 1) // 1: a report-level difference
}

// lineMismatches counts the positions where two transfer-line lists differ,
// a missing or extra line included.
func lineMismatches(ref, got []string) int {
	n := max(len(ref), len(got)) - min(len(ref), len(got))
	for i := range min(len(ref), len(got)) {
		if ref[i] != got[i] {
			n++
		}
	}
	return n
}

// checkReport counts the connections that are missing from rep (or extra),
// and those whose analysis failed.
func checkReport(w *workload, rep *core.Report) int {
	return len(rep.Failures) + max(w.expected-len(rep.Transfers), len(rep.Transfers)-w.expected)
}

// score is the ground-truth scoring of one report.
type score struct {
	verdictOK, verdictN int
	endErrs             []float64
}

// scoreReport compares each transfer's dominant delay group with
// oracle.ExpectedGroup of its session's dialled kind, and its estimated
// duration with the session's true duration where that is known. Only the
// first connection of a reset session is scored, and only its verdict (see
// session.ground); the redialled second connection is left out.
func scoreReport(w *workload, rep *core.Report) score {
	var sc score
	seen := map[*session]bool{}
	for _, t := range rep.Transfers {
		s := w.byAddr[t.Conn.Sender.Addr]
		if s == nil || seen[s] {
			continue
		}
		seen[s] = true
		sc.verdictN++
		if g, _ := t.Factors.Dominant(); g == oracle.ExpectedGroup(s.kind) {
			sc.verdictOK++
		}
		if ground := float64(s.ground); ground > 0 {
			sc.endErrs = append(sc.endErrs, math.Abs(float64(t.Duration())-ground)/ground)
		}
	}
	return sc
}
