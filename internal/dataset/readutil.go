package dataset

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ReadFloats reads count little-endian float64 values in bounded chunks,
// growing the destination incrementally so a corrupt header claiming an
// enormous count fails with an EOF error after the real bytes run out
// instead of attempting one giant allocation up front.
//
// It is shared by the binary loaders of this package and of the catalog
// and query packages.
func ReadFloats(r io.Reader, count uint64) ([]float64, error) {
	const chunk = 1 << 16
	out := make([]float64, 0, min64(count, chunk))
	for uint64(len(out)) < count {
		n := min64(count-uint64(len(out)), chunk)
		buf := make([]float64, n)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("reading %d of %d values: %w", len(out), count, err)
		}
		out = append(out, buf...)
	}
	return out, nil
}

// WriteFloats writes xs as little-endian float64 values, the bytes
// binary.Write would write, in fixed-size chunks through one small
// buffer: the writer's counterpart of ReadFloats, which never holds a
// second copy of xs. It is shared by the binary writers of this package
// and of the catalog.
func WriteFloats(w io.Writer, xs []float64) error {
	const chunk = 1 << 10
	buf := make([]byte, 8*min(len(xs), chunk))
	for len(xs) > 0 {
		n := min(len(xs), chunk)
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
