package store_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"persistcc/internal/isa"
	"persistcc/internal/store"
)

// TestDecodeInstsMatchesIsaDecode holds the one-pass instruction decoder to
// isa.Decode, word for word: every opcode byte with register bytes 0, 31,
// 32 and 255 in each of the three slots, placed in the middle of a blob and
// at its end. Both blob decoders accept exactly the words isa.Decode does and
// decode them to what it returns; a word it rejects fails both with its error
// under the instruction's index (the launch path's as ErrBlobCorrupt); and the
// exit count the decoder derives in the same pass is the number of exits the
// decoded trace has.
func TestDecodeInstsMatchesIsaDecode(t *testing.T) {
	regs := []uint8{0, 31, 32, 255}
	checked, rejected := 0, 0
	for op := 0; op < 256; op++ {
		for _, rd := range regs {
			for _, rs1 := range regs {
				for _, rs2 := range regs {
					in := isa.Inst{Op: isa.Op(op), Rd: rd, Rs1: rs1, Rs2: rs2, Imm: -24}
					for _, idx := range []int{1, 3} {
						if !decodesLikeIsa(t, in, idx) {
							rejected++
						}
						checked++
					}
				}
			}
		}
	}
	if want := 2 * 256 * 4 * 4 * 4; checked != want || rejected == 0 || rejected == checked {
		t.Fatalf("checked %d words (want %d), %d rejected", checked, want, rejected)
	}
}

// decodesLikeIsa puts in at index idx of a four-instruction blob and checks
// the blob decoders against isa.Decode on its word; it reports whether the
// word is accepted.
func decodesLikeIsa(t *testing.T, in isa.Inst, idx int) bool {
	t.Helper()
	b := mkBlob(1, 3)
	b.Insts[idx] = in
	enc := b.Encode()
	var word [isa.InstSize]byte
	in.Encode(word[:])
	want, isaErr := isa.Decode(word[:])
	man, tr := manifestFor(enc, 0, 0)

	blob, err := store.DecodeBlob(enc)
	trace, traceErr := store.DecodeTrace(enc, man, tr)
	exits, exitsErr := store.InstExits(enc)
	if isaErr != nil {
		msg := fmt.Sprintf("store: blob inst %d: %v", idx, isaErr)
		if err == nil || err.Error() != msg {
			t.Fatalf("%+v: DecodeBlob: %v, want %q", in, err, msg)
		}
		if traceErr == nil || !errors.Is(traceErr, store.ErrBlobCorrupt) || traceErr.Error() != fmt.Sprintf("%v: %s: %s", store.ErrBlobCorrupt, tr.Blob, msg) {
			t.Fatalf("%+v: decodeTrace: %v, want ErrBlobCorrupt with %q", in, traceErr, msg)
		}
		if exitsErr == nil || exitsErr.Error() != msg {
			t.Fatalf("%+v: decodeInsts: %v, want %q", in, exitsErr, msg)
		}
		return false
	}
	if err != nil || traceErr != nil || exitsErr != nil {
		t.Fatalf("%+v: isa.Decode accepts it, the blob decoders say %v / %v / %v", in, err, traceErr, exitsErr)
	}
	if blob.Insts[idx] != want || trace.Insts[idx] != want {
		t.Fatalf("%+v: decoded as %+v / %+v, isa.Decode gives %+v", in, blob.Insts[idx], trace.Insts[idx], want)
	}
	if !reflect.DeepEqual(trace.Insts, blob.Insts) {
		t.Fatalf("%+v: the decoders disagree: %+v / %+v", in, trace.Insts, blob.Insts)
	}
	if exits != len(trace.Exits) || cap(trace.Exits) != len(trace.Exits) {
		t.Fatalf("%+v: counted %d exits, the trace has %d (capacity %d)", in, exits, len(trace.Exits), cap(trace.Exits))
	}
	return true
}
