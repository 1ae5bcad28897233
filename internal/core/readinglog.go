package core

import (
	"encoding/binary"
	"fmt"

	"github.com/wsdetect/waldo/internal/dataset"
)

const (
	// chunkReadings is the capacity of one ReadingLog chunk: 640 KiB of
	// readings, small enough that allocating (and zeroing) the next one
	// is invisible on the upload path, large enough that a store of
	// millions of readings is a few hundred slice headers.
	chunkReadings = 8192
	// firstChunkReadings is the capacity the first chunk starts at. It
	// alone regrows (doubling, up to chunkReadings), so an idle or small
	// store costs what it holds rather than a full chunk.
	firstChunkReadings = 64
)

// ReadingLog is an append-only log of readings held in fixed-capacity
// chunks. Appending fills the tail chunk and allocates the next; once a
// reading sits in a chunk it is never moved, so the cost of an append is
// independent of the log's length and a [ReadingView] taken earlier stays
// valid, bit for bit, while the log grows. (The one exception is the
// first chunk while it is below chunkReadings: it regrows by copying,
// and a view keeps the array it was taken from.) The zero value is an
// empty log. A ReadingLog is not safe for concurrent use; core.Updater
// serializes access under its store lock.
type ReadingLog struct {
	// chunks holds the readings in order; every chunk but the last is
	// full (len == cap == chunkReadings).
	chunks [][]dataset.Reading
	n      int
}

// Len returns the number of readings in the log.
func (l *ReadingLog) Len() int { return l.n }

// first returns the oldest reading; the log must not be empty.
func (l *ReadingLog) first() *dataset.Reading { return &l.chunks[0][0] }

// room returns the tail chunk with space for at least one more reading
// (and as many of the want readings about to be appended as the chunk
// capacity allows), allocating or — for the first chunk — regrowing it.
func (l *ReadingLog) room(want int) *[]dataset.Reading {
	if k := len(l.chunks); k > 0 {
		tail := &l.chunks[k-1]
		if len(*tail) < cap(*tail) {
			return tail
		}
		if k == 1 && cap(*tail) < chunkReadings {
			grown := make([]dataset.Reading, len(*tail), firstChunkCap(len(*tail)+want, 2*cap(*tail)))
			copy(grown, *tail)
			*tail = grown
			return tail
		}
		l.chunks = append(l.chunks, make([]dataset.Reading, 0, chunkReadings))
		return &l.chunks[k]
	}
	l.chunks = append(l.chunks, make([]dataset.Reading, 0, firstChunkCap(want, firstChunkReadings)))
	return &l.chunks[0]
}

// firstChunkCap sizes the first chunk: enough for need readings, at
// least floor, never more than a full chunk.
func firstChunkCap(need, floor int) int {
	return min(max(need, floor), chunkReadings)
}

// Append adds rs to the end of the log.
func (l *ReadingLog) Append(rs []dataset.Reading) {
	for len(rs) > 0 {
		tail := l.room(len(rs))
		k := min(cap(*tail)-len(*tail), len(rs))
		*tail = append(*tail, rs[:k]...)
		l.n += k
		rs = rs[k:]
	}
}

// AppendWire decodes a counted batch (see AppendReadingsWire) from the
// front of b straight into the log's chunks — the recovery path, which
// must not build the store twice — and returns the unconsumed remainder.
// A batch that fails part-way leaves its first readings in the log: an
// error here ends a recovery, and the log with it.
func (l *ReadingLog) AppendWire(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: reading batch truncated: missing count")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n > len(b)/ReadingWireSize {
		return nil, fmt.Errorf("core: reading batch truncated: %d of %d bytes", len(b), n*ReadingWireSize)
	}
	for i := 0; i < n; i++ {
		r, err := DecodeReadingWire(b)
		if err != nil {
			return nil, fmt.Errorf("core: reading %d: %w", i, err)
		}
		tail := l.room(n - i)
		*tail = append(*tail, r)
		l.n++
		b = b[ReadingWireSize:]
	}
	return b, nil
}

// View captures the log's current content in O(chunks): one slice header
// per chunk, no reading is copied.
func (l *ReadingLog) View() ReadingView {
	chunks := make([][]dataset.Reading, len(l.chunks))
	for i, c := range l.chunks {
		chunks[i] = c[:len(c):len(c)]
	}
	return ReadingView{chunks: chunks, n: l.n}
}

// ReadingView is an immutable run of readings inside a ReadingLog: the
// whole log as it was when View was called, or a prefix or tail of that.
// The chunks are capacity-clamped and the log never writes below its own
// length, so a view may be read without any lock for as long as it is
// held, and must not be written through.
type ReadingView struct {
	chunks [][]dataset.Reading
	n      int
}

// Len returns the number of readings in the view.
func (v ReadingView) Len() int { return v.n }

// Chunks returns the view's readings in order as contiguous runs, for
// consumers that can stream (export, replication seeding).
func (v ReadingView) Chunks() [][]dataset.Reading { return v.chunks }

// Prefix returns the view's first n readings (the whole view when n is
// not smaller than it).
func (v ReadingView) Prefix(n int) ReadingView {
	if n >= v.n {
		return v
	}
	var out ReadingView
	for _, c := range v.chunks {
		if out.n >= n {
			break
		}
		k := min(n-out.n, len(c))
		out.chunks = append(out.chunks, c[:k:k])
		out.n += k
	}
	return out
}

// Tail returns the view's last n readings (the whole view when n is not
// smaller than it).
func (v ReadingView) Tail(n int) ReadingView {
	if n >= v.n {
		return v
	}
	if n <= 0 {
		return ReadingView{}
	}
	skip, i := v.n-n, 0
	for skip >= len(v.chunks[i]) {
		skip -= len(v.chunks[i])
		i++
	}
	chunks := make([][]dataset.Reading, 0, len(v.chunks)-i)
	chunks = append(chunks, v.chunks[i][skip:])
	return ReadingView{chunks: append(chunks, v.chunks[i+1:]...), n: n}
}

// Flatten returns the view as one contiguous read-only slice. A view
// inside a single chunk is returned as is, without copying; a longer one
// is copied once — call this off the store lock.
func (v ReadingView) Flatten() []dataset.Reading {
	if len(v.chunks) == 1 {
		return v.chunks[0]
	}
	return v.AppendTo(nil)
}

// AppendTo appends a copy of the view's readings to dst, growing it at
// most once.
func (v ReadingView) AppendTo(dst []dataset.Reading) []dataset.Reading {
	if free := cap(dst) - len(dst); free < v.n {
		grown := make([]dataset.Reading, len(dst), len(dst)+v.n)
		copy(grown, dst)
		dst = grown
	}
	for _, c := range v.chunks {
		dst = append(dst, c...)
	}
	return dst
}
