// Package binenc provides the little-endian binary encoding helpers shared
// by the VXO object format (internal/obj) and the persistent cache file
// format (internal/core): an append-only writer and a bounds-checked,
// error-accumulating reader that never allocates more than the declared
// limits, so corrupted length fields cannot balloon memory.
package binenc

import (
	"encoding/binary"
	"io"
)

// Writer appends primitive values to a byte buffer. A Writer with a Sink
// streams what it writes instead of keeping it: Buf never grows past the
// capacity it starts with, because whatever would overflow it goes to the
// Sink first, so a long encoding passes through a buffer of fixed size, and
// a Bytes payload that does not fit goes to the Sink as it is. Flush hands
// the Sink the rest.
type Writer struct {
	Buf  []byte
	Sink io.Writer
}

// streamBuf is the buffer a streaming Writer given none works in. It only
// gathers the small fields between the large payloads, which bypass it.
const streamBuf = 512

// spill hands what Buf holds to the Sink when n more bytes would not fit
// in it. It stays out of line so that the writes that call it stay
// inlinable: encoders call them per field.
//
//go:noinline
func (w *Writer) spill(n int) {
	if len(w.Buf)+n > cap(w.Buf) {
		w.Flush()
	}
}

// Flush hands what Buf holds to the Sink and empties it.
func (w *Writer) Flush() {
	if cap(w.Buf) == 0 {
		w.Buf = make([]byte, 0, streamBuf)
	}
	w.Sink.Write(w.Buf)
	w.Buf = w.Buf[:0]
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) {
	if w.Sink != nil {
		w.spill(1)
	}
	w.Buf = append(w.Buf, v)
}

// U16 appends a 16-bit value.
func (w *Writer) U16(v uint16) {
	if w.Sink != nil {
		w.spill(2)
	}
	w.Buf = binary.LittleEndian.AppendUint16(w.Buf, v)
}

// U32 appends a 32-bit value.
func (w *Writer) U32(v uint32) {
	if w.Sink != nil {
		w.spill(4)
	}
	w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v)
}

// U64 appends a 64-bit value.
func (w *Writer) U64(v uint64) {
	if w.Sink != nil {
		w.spill(8)
	}
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v)
}

// I64 appends a signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bytes appends a length-prefixed byte slice. A streaming writer hands a b
// that does not fit in what is left of Buf to the Sink without copying it.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	if w.Sink != nil && len(w.Buf)+len(b) > cap(w.Buf) {
		w.Flush()
		w.Sink.Write(b)
		return
	}
	w.Buf = append(w.Buf, b...)
}

// Str appends a length-prefixed string. It copies s into Buf, never hands
// it to the Sink, so that s does not escape and costs no allocation.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	for w.Sink != nil && len(w.Buf)+len(s) > cap(w.Buf) {
		n := copy(w.Buf[len(w.Buf):cap(w.Buf)], s)
		w.Buf = w.Buf[:len(w.Buf)+n]
		s = s[n:]
		w.Flush()
	}
	w.Buf = append(w.Buf, s...)
}

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends bytes without a length prefix.
func (w *Writer) Raw(b []byte) {
	if w.Sink != nil {
		w.stream(b)
		return
	}
	w.Buf = append(w.Buf, b...)
}

// stream is Raw for a streaming writer: b goes through Buf a bufferful at
// a time.
func (w *Writer) stream(b []byte) {
	for len(w.Buf)+len(b) > cap(w.Buf) {
		n := copy(w.Buf[len(w.Buf):cap(w.Buf)], b)
		w.Buf = w.Buf[:len(w.Buf)+n]
		b = b[n:]
		w.Flush()
	}
	w.Buf = append(w.Buf, b...)
}

// Reader consumes primitive values from a byte buffer, accumulating the
// first error; all subsequent reads return zero values.
type Reader struct {
	Buf []byte
	Off int
	Err error
}

// ErrTruncated is returned (wrapped) when the buffer ends early or a length
// field exceeds its limit.
type DecodeError struct{ Msg string }

func (e *DecodeError) Error() string { return "binenc: " + e.Msg }

func (r *Reader) fail(msg string) {
	if r.Err == nil {
		r.Err = &DecodeError{Msg: msg}
	}
}

func (r *Reader) take(n int) []byte {
	if r.Err != nil {
		return nil
	}
	if r.Off+n > len(r.Buf) || n < 0 {
		r.fail("truncated input")
		return nil
	}
	b := r.Buf[r.Off : r.Off+n]
	r.Off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a 16-bit value.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a 32-bit value.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bytes reads a length-prefixed byte slice of at most max bytes.
func (r *Reader) Bytes(max int) []byte {
	n := int(r.U32())
	if r.Err != nil {
		return nil
	}
	if n > max {
		r.fail("length field exceeds limit")
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Str reads a length-prefixed string of at most max bytes.
func (r *Reader) Str(max int) string {
	n := int(r.U32())
	if r.Err == nil && n > max {
		r.fail("length field exceeds limit")
	}
	return string(r.take(n))
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Count reads a 32-bit element count bounded by max.
func (r *Reader) Count(max int) int {
	n := int(r.U32())
	if r.Err == nil && (n < 0 || n > max) {
		r.fail("count exceeds limit")
		return 0
	}
	return n
}

// Left returns how many bytes are left to read.
func (r *Reader) Left() int { return len(r.Buf) - r.Off }

// Raw reads n bytes without a length prefix (shared, not copied).
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Done reports an error if the buffer has trailing bytes or a prior error.
func (r *Reader) Done() error {
	if r.Err != nil {
		return r.Err
	}
	if r.Off != len(r.Buf) {
		r.fail("trailing bytes")
	}
	return r.Err
}
