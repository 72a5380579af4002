package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// goldenCaptures are the traces pcap2bgp's output is pinned on: the clean
// transfer the tdat goldens use and the adversarial ingest corpus.
var goldenCaptures = []string{
	filepath.Join("..", "tdat", "testdata", "clean.pcap"),
	filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", "clock_regression.pcap"),
	filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", "corrupt_bgp_length.pcap"),
	filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", "truncated_header.pcap"),
	filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", "truncated_record.pcap"),
	filepath.Join("..", "..", "internal", "pcapio", "testdata", "adversarial", "zero_snaplen.pcap"),
}

// runCapture runs the CLI on trace with -o into a temporary file and returns
// the exit code, stdout, and the SHA-256 of the MRT output ("absent" when
// no file was written).
func runCapture(t *testing.T, trace string, extra ...string) (int, string, string) {
	t.Helper()
	mrtPath := filepath.Join(t.TempDir(), "out.mrt")
	args := append([]string{"-log-level", "error", "-o", mrtPath}, extra...)
	var out, errBuf bytes.Buffer
	code := run(append(args, trace), &out, &errBuf)
	sum := "absent"
	b, err := os.ReadFile(mrtPath)
	switch {
	case err == nil:
		sum = fmt.Sprintf("%x", sha256.Sum256(b))
	case !errors.Is(err, fs.ErrNotExist):
		t.Fatal(err)
	}
	return code, out.String(), sum
}

// TestGolden pins pcap2bgp end to end on every golden capture: the exit
// code, the verbose stdout (per-message lines plus the per-connection
// summary), and the SHA-256 of the -o MRT file. The non-verbose run must
// print the same output minus the per-message lines and write the same MRT
// bytes. Rerun with -update to accept a deliberate output change.
func TestGolden(t *testing.T) {
	for _, trace := range goldenCaptures {
		name := strings.TrimSuffix(filepath.Base(trace), ".pcap")
		t.Run(name, func(t *testing.T) {
			code, stdout, sum := runCapture(t, trace, "-v")
			got := fmt.Sprintf("exit %d\nmrt sha256 %s\n--- stdout\n%s", code, sum, stdout)

			plainCode, plainOut, plainSum := runCapture(t, trace)
			if plainCode != code || plainSum != sum {
				t.Errorf("without -v: exit %d, mrt %s; with -v: exit %d, mrt %s", plainCode, plainSum, code, sum)
			}
			var summary strings.Builder
			for _, line := range strings.SplitAfter(stdout, "\n") {
				if !strings.HasPrefix(line, "  ") {
					summary.WriteString(line)
				}
			}
			if plainOut != summary.String() {
				t.Errorf("stdout without -v differs from the -v summary lines\n--- got\n%s\n--- want\n%s", plainOut, summary.String())
			}

			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/pcap2bgp -run TestGolden -update` to seed it)", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s (rerun with -update if intended)\n--- got\n%.2000s\n--- want\n%.2000s", golden, got, want)
			}
		})
	}
}
