// Command pcap2bgp reconstructs TCP data streams from a raw packet trace
// and extracts the BGP messages they carry, saving them in MRT format —
// the paper's side tool (§II-A, Table VI) for vendor collectors that keep
// no BGP archive of their own. It tolerates out-of-order delivery and
// retransmissions and reports capture holes instead of guessing framing.
//
// Usage:
//
//	pcap2bgp [-o out.mrt] [-v] trace.pcap
//
// Each extracted connection is reassembled on its own, and the BGP
// messages the sender's stream carries are written as MRT records with the
// sender as peer, stamped with the arrival time of the packet completing
// each message.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"tdat/internal/bgp"
	"tdat/internal/core"
	"tdat/internal/flows"
	"tdat/internal/mrt"
	"tdat/internal/obs"
	"tdat/internal/reassembly"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected — the golden end-to-end test
// drives it in-process with a buffer for stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pcap2bgp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "", "output MRT file (default: stdout summary only)")
		verbose  = fs.Bool("v", false, "print per-message details")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := obs.InitLogging(stderr, *logLevel); err != nil {
		fmt.Fprintf(stderr, "pcap2bgp: %v\n", err)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: pcap2bgp [flags] trace.pcap")
		fs.PrintDefaults()
		return 2
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		slog.Error("opening trace", "err", err)
		return 1
	}
	defer f.Close()
	// The analyzer's streaming driver with a pass-through per-connection
	// func: ingest, demux and ordered merge; reassembly runs below, in
	// connection order. Its record counter supplies the record total.
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
	for _, re := range rep.Degradation.RecordErrors {
		slog.Warn("trace truncated (tcpdump drop?)", "records", records, "offset", re.Offset, "err", re.Err)
	}
	if rep.SkippedPackets > 0 {
		slog.Warn("undecodable packets skipped", "count", rep.SkippedPackets)
	}

	var (
		of *os.File
		mw *mrt.Writer
	)
	if *out != "" {
		of, err = os.Create(*out)
		if err != nil {
			slog.Error("creating output", "err", err)
			return 1
		}
		defer of.Close()
		mw = mrt.NewWriter(of)
	}

	for ci, tr := range rep.Transfers {
		c := tr.Conn
		res, err := reassembly.Reassemble(c)
		if err != nil {
			fmt.Fprintf(stdout, "connection %d (%s -> %s): framing error: %v\n", ci, c.Sender, c.Receiver, err)
			continue
		}
		updates, prefixes := 0, 0
		for _, m := range res.Messages {
			if u, ok := m.Msg.(*bgp.Update); ok {
				updates++
				prefixes += len(u.NLRI)
			}
			if *verbose {
				fmt.Fprintf(stdout, "  %12d %T\n", m.Time, m.Msg)
			}
			if mw != nil {
				rec := mrt.Record{
					TimeMicros: m.Time,
					PeerIP:     c.Sender.Addr,
					LocalIP:    c.Receiver.Addr,
					Raw:        m.Raw,
				}
				if err := mw.Write(rec); err != nil {
					slog.Error("writing MRT", "err", err)
					return 1
				}
			}
		}
		fmt.Fprintf(stdout, "connection %d (%s -> %s): %d bytes, %d messages (%d updates, %d prefixes), %d capture holes\n",
			ci, c.Sender, c.Receiver, res.StreamBytes, len(res.Messages), updates, prefixes, len(res.MissingRanges))
	}
	if mw != nil {
		if err := mw.Flush(); err != nil {
			slog.Error("writing MRT", "err", err)
			return 1
		}
		if err := of.Close(); err != nil {
			slog.Error("closing output", "err", err)
			return 1
		}
	}
	return 0
}
