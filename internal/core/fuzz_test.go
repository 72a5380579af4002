package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzAnalyzePcap throws arbitrary bytes at the lenient pipeline. The
// contract under fuzz: AnalyzePcap never panics, no connection's analysis
// panics into Report.Failures, and the report — transfers and degradation
// alike — is byte-identical at one worker and at four.
func FuzzAnalyzePcap(f *testing.F) {
	seeds := []string{filepath.Join("..", "..", "cmd", "tdat", "testdata", "clean.pcap")}
	for _, name := range corpusNames {
		seeds = append(seeds, filepath.Join("..", "pcapio", "testdata", "adversarial", name))
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatalf("reading seed: %v", err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var want []byte
		for _, w := range []int{1, 4} {
			rep, err := New(Config{Workers: w}).AnalyzePcap(bytes.NewReader(data))
			if err != nil {
				if want != nil {
					t.Fatalf("workers=%d: %v, but workers=1 succeeded", w, err)
				}
				return // not a pcap at all: a hard error, not a report
			}
			if len(rep.Failures) > 0 {
				t.Fatalf("workers=%d: analysis panicked: %+v", w, rep.Failures)
			}
			buf := bytes.NewBuffer(serializeReport(t, rep))
			if err := rep.Degradation.WriteText(buf); err != nil {
				t.Fatal(err)
			}
			out := buf.Bytes()
			if want == nil {
				want = out
			} else if !bytes.Equal(out, want) {
				t.Fatalf("workers=%d: report differs from workers=1", w)
			}
		}
	})
}
