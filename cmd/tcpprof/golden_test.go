package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// goldenCaptures are the traces tcpprof's output is pinned on — the same
// set pcap2bgp pins: the clean transfer the tdat goldens use and the
// adversarial ingest corpus.
var goldenCaptures = []string{
	filepath.Join("..", "tdat", "testdata", "clean.pcap"),
	filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", "clock_regression.pcap"),
	filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", "corrupt_bgp_length.pcap"),
	filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", "truncated_header.pcap"),
	filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", "truncated_record.pcap"),
	filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", "zero_snaplen.pcap"),
}

// TestGolden pins tcpprof end to end on every golden capture: the exit code
// and the full stdout (record/connection totals and every per-connection
// profile). Rerun with -update to accept a deliberate output change.
func TestGolden(t *testing.T) {
	for _, trace := range goldenCaptures {
		name := strings.TrimSuffix(filepath.Base(trace), ".pcap")
		t.Run(name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			code := run([]string{"-log-level", "error", trace}, &out, &errBuf)
			got := fmt.Sprintf("exit %d\n--- stdout\n%s", code, out.String())

			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/tcpprof -run TestGolden -update` to seed it)", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s (rerun with -update if intended)\n--- got\n%.2000s\n--- want\n%.2000s", golden, got, want)
			}
		})
	}
}

// TestUsage pins the flag and argument errors: both exit 2 without
// touching stdout.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"a.pcap", "b.pcap"}, {"-no-such-flag", "a.pcap"}, {"-log-level", "loud", "a.pcap"}} {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = exit %d, stdout %q; want exit 2, empty stdout", args, code, out.String())
		}
	}
}
