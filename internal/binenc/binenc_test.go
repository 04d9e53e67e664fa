package binenc

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64, e int64, s string, raw []byte, flag bool) bool {
		if len(s) > 1000 {
			s = s[:1000]
		}
		w := &Writer{}
		w.U8(a)
		w.U16(b)
		w.U32(c)
		w.U64(d)
		w.I64(e)
		w.Str(s)
		w.Bytes(raw)
		w.Bool(flag)
		r := &Reader{Buf: w.Buf}
		ok := r.U8() == a && r.U16() == b && r.U32() == c && r.U64() == d &&
			r.I64() == e && r.Str(2000) == s && string(r.Bytes(1<<20)) == string(raw) &&
			r.Bool() == flag
		return ok && r.Done() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// capCheck is a Sink that records what it is handed and the largest
// buffer a streaming Writer handed it.
type capCheck struct {
	bytes.Buffer
	w   *Writer
	max int
}

func (c *capCheck) Write(b []byte) (int, error) {
	c.max = max(c.max, cap(c.w.Buf))
	return c.Buffer.Write(b)
}

// TestStreamingWriter: a Writer with a Sink hands it exactly the bytes a
// buffering Writer keeps, whatever the buffer it is given, and never grows
// that buffer.
func TestStreamingWriter(t *testing.T) {
	f := func(s string, raw []byte, n uint16, size uint8) bool {
		write := func(w *Writer) {
			for i := 0; i < int(n%300); i++ {
				w.U8(uint8(i))
				w.U32(uint32(i))
				w.I64(int64(i))
				w.Str(s)
				w.Bytes(raw)
				w.Bool(i%2 == 0)
			}
		}
		whole := &Writer{}
		write(whole)
		sink := &capCheck{}
		streamed := &Writer{Buf: make([]byte, 0, 8+int(size)), Sink: sink}
		sink.w = streamed
		write(streamed)
		streamed.Flush()
		return bytes.Equal(sink.Bytes(), whole.Buf) && sink.max == 8+int(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// A Writer given no buffer works in one of streamBuf bytes.
	sink := &capCheck{}
	w := &Writer{Sink: sink}
	sink.w = w
	w.Bytes(make([]byte, 3*streamBuf))
	w.Flush()
	if sink.Len() != 4+3*streamBuf || cap(w.Buf) != streamBuf {
		t.Errorf("streamed %d bytes through a %d-byte buffer", sink.Len(), cap(w.Buf))
	}
}

func TestReaderErrors(t *testing.T) {
	r := &Reader{Buf: []byte{1, 2}}
	if r.U32() != 0 || r.Err == nil {
		t.Error("truncated U32 did not fail")
	}
	// Errors stick: subsequent reads return zero values.
	if r.U8() != 0 || r.U64() != 0 || r.Str(10) != "" || r.Bool() {
		t.Error("reads after error returned values")
	}
	if r.Done() == nil {
		t.Error("Done after error succeeded")
	}

	// Length field exceeding the limit.
	w := &Writer{}
	w.Bytes(make([]byte, 100))
	r2 := &Reader{Buf: w.Buf}
	if r2.Bytes(50) != nil || r2.Err == nil {
		t.Error("over-limit Bytes accepted")
	}

	// Length field larger than the remaining buffer.
	r3 := &Reader{Buf: []byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3}}
	if r3.Bytes(1<<30) != nil || r3.Err == nil {
		t.Error("oversized length accepted")
	}

	// Count limit.
	w4 := &Writer{}
	w4.U32(1000)
	r4 := &Reader{Buf: w4.Buf}
	if r4.Count(10) != 0 || r4.Err == nil {
		t.Error("over-limit Count accepted")
	}

	// Trailing bytes.
	r5 := &Reader{Buf: []byte{1, 2, 3}}
	r5.U8()
	if r5.Done() == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestRaw(t *testing.T) {
	w := &Writer{}
	w.Raw([]byte("abcd"))
	r := &Reader{Buf: w.Buf}
	if string(r.Raw(4)) != "abcd" || r.Done() != nil {
		t.Error("raw round trip failed")
	}
	r2 := &Reader{Buf: []byte("ab")}
	if r2.Raw(4) != nil || r2.Err == nil {
		t.Error("short raw accepted")
	}
}
