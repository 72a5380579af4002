package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzAnalyzePcap throws arbitrary bytes at the pipeline. The contract
// under fuzz: AnalyzePcap never panics, no connection's analysis panics
// into Report.Failures, and the lenient report — transfers and degradation
// alike — is byte-identical at one worker and at four. Strict mode refuses
// the capture with an ErrStrict-wrapped error exactly when the lenient
// report's Degradation is non-empty, and otherwise returns the lenient
// report byte for byte.
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
		render := func(rep *Report) []byte {
			buf := bytes.NewBuffer(serializeReport(t, rep))
			if err := rep.Degradation.WriteText(buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		var want []byte
		var degraded bool
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
			out := render(rep)
			if want == nil {
				want, degraded = out, !rep.Degradation.Empty()
			} else if !bytes.Equal(out, want) {
				t.Fatalf("workers=%d: report differs from workers=1", w)
			}
		}

		rep, err := New(Config{Workers: 1, Strict: true}).AnalyzePcap(bytes.NewReader(data))
		switch {
		case degraded && !errors.Is(err, ErrStrict):
			t.Fatalf("strict on a degraded capture: err = %v, want ErrStrict", err)
		case !degraded && err != nil:
			t.Fatalf("strict on a clean capture: %v", err)
		case !degraded && !bytes.Equal(render(rep), want):
			t.Fatal("strict report differs from the lenient one")
		}
	})
}
