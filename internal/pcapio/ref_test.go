package pcapio

import (
	"fmt"
	"io"
)

// Next is the allocating reference reader the reused-buffer mode is tested
// against (TestReadIntoMatchesNext, TestEachIntoMatchesEach): it returns
// the next record in freshly allocated Data, or io.EOF at a clean end of
// file, with ReadInto's damage reporting.
func (r *Reader) Next() (Record, error) {
	capLen, origLen, tm, err := r.readRecordHeader()
	if err != nil {
		return Record{}, err
	}
	data, err := readData(r.r, int(capLen))
	if err != nil {
		return Record{}, r.recordErr(fmt.Errorf("%w: record data: %v", ErrTruncated, err))
	}
	r.records++
	r.bytes += 16 + int64(capLen)
	return Record{TimeMicros: tm, OrigLen: int(origLen), Data: data}, nil
}

// readData reads exactly n record bytes. Small records are read in one
// allocation; implausibly large claims are read incrementally so a lying
// header over a short file cannot force a huge up-front allocation.
func readData(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 16
	if n <= chunk {
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	data := make([]byte, 0, chunk)
	for len(data) < n {
		step := n - len(data)
		if step > chunk {
			step = chunk
		}
		off := len(data)
		data = append(data, make([]byte, step)...)
		if _, err := io.ReadFull(r, data[off:]); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Each is EachInto on Next: every record through fn in its own Data.
func (r *Reader) Each(fn func(Record) error) error {
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}
