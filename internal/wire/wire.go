// Package wire provides the compact binary encoding used for everything
// that crosses the (possibly simulated) network or is spilled to disk:
// pulled vertices, migrated tasks, progress reports, aggregator values and
// checkpoints. Keeping one codec makes the byte counts reported in the
// evaluation (Tables 1 and 4, Figure 11) meaningful even on the in-process
// transport.
//
// The format is a simple length-delimited varint encoding, little
// machinery on purpose: unsigned varints (LEB128), zigzag for signed,
// length-prefixed byte strings.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrCorrupt is returned when decoding runs off the end of the buffer or
// meets malformed data.
var ErrCorrupt = errors.New("wire: corrupt data")

// Writer appends encoded values to an internal buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// writerPool recycles encode buffers for the hot send paths (pull
// responses, pull requests, task batches, spill blocks): a steady-state
// worker encodes thousands of messages per second, and without pooling
// each one re-grows a buffer from its capacity hint.
var writerPool = sync.Pool{New: func() any { return &Writer{} }}

// maxPooledCapacity bounds the buffers the pool retains. One giant
// migration batch must not pin megabytes for the rest of the job; larger
// buffers are left to the garbage collector on PutWriter.
const maxPooledCapacity = 1 << 20

// GetWriter returns an empty pooled writer with at least the given
// capacity. Return it with PutWriter when the encoded bytes have been
// consumed (transports copy payloads during Send, so putting the writer
// back right after Send is safe). A writer that is never put back is
// simply collected as garbage — leaking one is safe, reusing its Bytes
// after PutWriter is not.
func GetWriter(capacity int) *Writer {
	w := writerPool.Get().(*Writer)
	if cap(w.buf) < capacity {
		w.buf = make([]byte, 0, capacity)
	} else {
		w.buf = w.buf[:0]
	}
	return w
}

// PutWriter resets w and returns it to the pool. The caller must not use
// w or any slice obtained from w.Bytes() afterwards.
func PutWriter(w *Writer) {
	if w == nil || cap(w.buf) > maxPooledCapacity {
		return
	}
	w.buf = w.buf[:0]
	writerPool.Put(w)
}

// Bytes returns the encoded buffer. The slice aliases internal storage.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Reset clears the buffer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(x uint64) {
	w.buf = binary.AppendUvarint(w.buf, x)
}

// Varint appends a zigzag-encoded signed varint.
func (w *Writer) Varint(x int64) {
	w.buf = binary.AppendVarint(w.buf, x)
}

// Int appends an int as a signed varint.
func (w *Writer) Int(x int) { w.Varint(int64(x)) }

// Bool appends a boolean byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Byte appends a raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Float64 appends an IEEE-754 float64.
func (w *Writer) Float64(f float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	w.buf = append(w.buf, tmp[:]...)
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) BytesField(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Int64Slice appends a length-prefixed slice of signed varints,
// delta-encoded when sorted-ish data is common (adjacency lists), plain
// otherwise. We always delta-encode: decoding reverses it, and for sorted
// ID lists this roughly halves the bytes.
func (w *Writer) Int64Slice(xs []int64) {
	w.Uvarint(uint64(len(xs)))
	var prev int64
	for _, x := range xs {
		w.Varint(x - prev)
		prev = x
	}
}

// Int32Slice appends a length-prefixed slice of int32 varints.
func (w *Writer) Int32Slice(xs []int32) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Varint(int64(x))
	}
}

// Reader decodes values appended by Writer. Decoding methods set an error
// state on malformed input; check Err (or use the error-returning
// variants) after a decode batch.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", ErrCorrupt, r.pos)
	}
}

// Failf puts the reader in the error state for a decoder's own validation
// (a wrong format byte, an index out of range): the error wraps ErrCorrupt
// like a short read does, and the first error wins.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d: %s", ErrCorrupt, r.pos, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return x
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return x
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Bool reads a boolean byte.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Float64 reads an IEEE-754 float64.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.fail()
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return f
}

// BytesField reads a length-prefixed byte string (copied).
func (r *Reader) BytesField() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail()
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.pos:r.pos+int(n)])
	r.pos += int(n)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	return string(r.BytesField())
}

// Count reads a length prefix for a sequence whose elements each occupy
// at least elemSize encoded bytes and validates it against the bytes
// actually remaining. Decoders size allocations with it so malformed
// (e.g. fuzzed) input cannot demand arbitrarily large buffers.
func (r *Reader) Count(elemSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(r.Remaining()/elemSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// Int64Slice reads a delta-encoded slice written by Writer.Int64Slice.
func (r *Reader) Int64Slice() []int64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) { // each element needs >=1 byte
		r.fail()
		return nil
	}
	out := make([]int64, n)
	var prev int64
	for i := range out {
		prev += r.Varint()
		out[i] = prev
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Int32Slice reads a slice written by Writer.Int32Slice.
func (r *Reader) Int32Slice() []int32 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail()
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.Varint())
	}
	if r.err != nil {
		return nil
	}
	return out
}
