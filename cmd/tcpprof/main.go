// Command tcpprof is the repo's mini-tcptrace (paper Table VI, tcptrace'):
// it extracts TCP connections from a pcap trace and prints per-connection
// profiles — endpoints, duration, RTT, MSS, advertised windows, volumes,
// and retransmission/out-of-sequence/reordering labels.
//
// Usage:
//
//	tcpprof trace.pcap
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"tdat/internal/core"
	"tdat/internal/flows"
	"tdat/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected — the golden end-to-end test
// drives it in-process with a buffer for stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcpprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := obs.InitLogging(stderr, *logLevel); err != nil {
		fmt.Fprintf(stderr, "tcpprof: %v\n", err)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tcpprof [flags] trace.pcap")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		slog.Error("opening trace", "err", err)
		return 1
	}
	defer f.Close()
	// The analyzer's streaming driver with a pass-through per-connection
	// func: ingest, demux and ordered merge, no transfer analysis. Its
	// record counter supplies the record total.
	o := obs.New()
	rep, err := core.New(core.Config{Obs: o}).AnalyzePcapWith(f, func(c *flows.Connection) *core.TransferReport {
		return &core.TransferReport{Conn: c}
	})
	records := o.Reg.Counter("tdat_records_read_total").Value()
	if err == nil && records == 0 && len(rep.Degradation.RecordErrors) > 0 {
		err = errors.New(rep.Degradation.RecordErrors[0].Err) // no readable record at all
	}
	if err != nil {
		slog.Error("reading trace", "err", err)
		return 1
	}
	fmt.Fprintf(stdout, "%d records (%d undecodable), %d connections\n\n", records, rep.SkippedPackets, len(rep.Transfers))
	for i, tr := range rep.Transfers {
		c := tr.Conn
		p := c.Profile
		fmt.Fprintf(stdout, "conn %d: %s -> %s\n", i, c.Sender, c.Receiver)
		fmt.Fprintf(stdout, "  span: %.3fs - %.3fs (%.3fs)\n",
			float64(p.Start)/1e6, float64(p.End)/1e6, float64(p.End-p.Start)/1e6)
		fmt.Fprintf(stdout, "  rtt: %.2fms  mss: %d  max adv window: %d  initiator=sender: %v\n",
			float64(p.RTT)/1e3, p.MSS, p.MaxAdvWindow, p.InitiatorIsSender)
		fmt.Fprintf(stdout, "  data: %d bytes in %d packets; acks: %d\n",
			p.TotalDataBytes, p.TotalDataPackets, len(c.Acks))
		fmt.Fprintf(stdout, "  retransmissions: %d  out-of-sequence: %d  reordered: %d\n",
			p.RetransmitCount, p.GapFillCount, p.ReorderCount)
		fmt.Fprintf(stdout, "  loss recovery: upstream %.3fs in %d ranges, downstream %.3fs in %d ranges\n\n",
			float64(c.UpstreamLoss.Size())/1e6, c.UpstreamLoss.Len(),
			float64(c.DownstreamLoss.Size())/1e6, c.DownstreamLoss.Len())
	}
	return 0
}
