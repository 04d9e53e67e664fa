package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"persistcc/internal/binenc"
)

// A pack is the store's write unit: the new blobs of one PutAll, published
// as one immutable file by one fsync and one rename.
//
//	"PCK1" | u32 count | u32 rawLen
//	count × ( hash[32] | u32 len )     the index, in stream order
//	u32 crc32 of everything above
//	one flate stream of the count encodings, concatenated (rawLen bytes)
//
// Member i occupies [sum(len[:i]), +len[i]) of the inflated stream, so the
// index cannot describe overlapping or out-of-range members. The file is
// named by the SHA-256 of its header and index: the same blobs in the same
// order make the same name whoever writes them. The crc guards the index,
// which Open trusts without reading the body; the body needs no checksum of
// its own because every member is re-hashed against its index entry when it
// is read.
var packMagic = [4]byte{'P', 'C', 'K', '1'}

const (
	packHeaderLen = 12
	packEntryLen  = 36

	// packMaxRaw bounds the raw bytes one pack holds: a PutAll larger than
	// this writes several packs. A pack always holds at least one blob, so
	// a file may exceed the bound by less than one blob encoding.
	packMaxRaw = 1 << 20

	// packRawLimit is what a reader accepts: the writer's bound plus room
	// for the largest encodable blob.
	packRawLimit = 2 * packMaxRaw

	// flateMaxRatio is the most a deflate stream can expand (RFC 1951: a
	// 258-byte match costs at least 2 bits), used to reject a rawLen the
	// body could not possibly inflate to before allocating for it.
	flateMaxRatio = 1032
)

// packIndex is a pack's decoded header and index.
type packIndex struct {
	hashes []Hash
	offs   []uint32 // len(hashes)+1 cumulative offsets into the raw stream
}

// indexLen returns the file offset at which a count-member pack's body
// starts: header, index and crc.
func indexLen(count int) int { return packHeaderLen + count*packEntryLen + 4 }

func (ix *packIndex) rawLen() int { return int(ix.offs[len(ix.hashes)]) }

// indexIntact reports whether data starts with a whole count-member header
// and index that match the crc stored after them.
func indexIntact(data []byte, count int) bool {
	end := indexLen(count) - 4
	return len(data) >= end+4 && crc32.ChecksumIEEE(data[:end]) == binary.LittleEndian.Uint32(data[end:])
}

// packCount validates a pack's 12-byte header and returns its member count.
func packCount(header []byte) (int, error) {
	if len(header) < packHeaderLen || !bytes.Equal(header[:4], packMagic[:]) {
		return 0, fmt.Errorf("store: bad pack header")
	}
	return int(binary.LittleEndian.Uint32(header[4:])), nil
}

// parsePackIndex decodes the header and index from the first
// indexLen(count) bytes of a pack file.
func parsePackIndex(prefix []byte) (*packIndex, error) {
	count, err := packCount(prefix)
	if err != nil {
		return nil, err
	}
	if count == 0 || count > (len(prefix)-packHeaderLen-4)/packEntryLen {
		return nil, fmt.Errorf("store: pack claims %d members in a %d-byte index", count, len(prefix))
	}
	if !indexIntact(prefix, count) {
		return nil, fmt.Errorf("store: pack index fails its checksum")
	}
	ix := &packIndex{hashes: make([]Hash, count), offs: make([]uint32, count+1)}
	seen := make(map[Hash]bool, count)
	off := uint64(0)
	for i := 0; i < count; i++ {
		e := prefix[packHeaderLen+i*packEntryLen:]
		copy(ix.hashes[i][:], e[:32])
		if seen[ix.hashes[i]] {
			return nil, fmt.Errorf("store: pack lists %s twice", ix.hashes[i])
		}
		seen[ix.hashes[i]] = true
		off += uint64(binary.LittleEndian.Uint32(e[32:]))
		if off > packRawLimit {
			return nil, fmt.Errorf("store: pack members exceed %d raw bytes", packRawLimit)
		}
		ix.offs[i+1] = uint32(off)
	}
	if rawLen := binary.LittleEndian.Uint32(prefix[8:]); uint64(rawLen) != off {
		return nil, fmt.Errorf("store: pack members cover %d of %d raw bytes", off, rawLen)
	}
	return ix, nil
}

// The codecs are reused process-wide: a BestCompression writer is ~750 KB
// of tables and a reader ~40 KB, either far more than the stream a typical
// commit or prime pushes through it.
var (
	deflaters = sync.Pool{New: func() any {
		zw, _ := flate.NewWriter(nil, flate.BestCompression) // the level is valid
		return zw
	}}
	inflaters = sync.Pool{New: func() any { return flate.NewReader(nil) }}
)

// inflater returns a pooled flate reader positioned at the start of stream,
// and the function that returns it to the pool.
func inflater(stream []byte) (io.Reader, func()) {
	zr := inflaters.Get().(io.ReadCloser)
	zr.(flate.Resetter).Reset(bytes.NewReader(stream), nil) // flate's Reset does not fail
	return zr, func() { inflaters.Put(zr) }
}

// inflate decompresses one flate stream into exactly want bytes.
func inflate(stream []byte, want int) ([]byte, error) {
	if want > flateMaxRatio*(len(stream)+1) {
		return nil, fmt.Errorf("store: %d stream bytes cannot inflate to %d", len(stream), want)
	}
	zr, done := inflater(stream)
	defer done()
	raw := make([]byte, want)
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, err
	}
	// The stream must end, cleanly, exactly here: a torn tail is a torn
	// file even when every byte asked for came out of it.
	var one [1]byte
	if n, err := zr.Read(one[:]); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("store: stream does not end after %d bytes", want)
	}
	return raw, nil
}

// encodePack builds the pack file holding encs under hashes, and returns it
// with its index and the content-derived id it is stored under.
func encodePack(hashes []Hash, encs [][]byte) (Hash, *packIndex, []byte) {
	ix := &packIndex{hashes: hashes, offs: make([]uint32, len(encs)+1)}
	for i, enc := range encs {
		ix.offs[i+1] = ix.offs[i] + uint32(len(enc))
	}
	w := &binenc.Writer{Buf: make([]byte, 0, indexLen(len(encs))+ix.rawLen()/2)}
	w.Raw(packMagic[:])
	w.U32(uint32(len(encs)))
	w.U32(uint32(ix.rawLen()))
	for i, enc := range encs {
		w.Raw(hashes[i][:])
		w.U32(uint32(len(enc)))
	}
	id := Sum(w.Buf)
	w.U32(crc32.ChecksumIEEE(w.Buf))

	buf := bytes.NewBuffer(w.Buf)
	zw := deflaters.Get().(*flate.Writer)
	defer deflaters.Put(zw)
	zw.Reset(buf)
	for _, enc := range encs {
		zw.Write(enc) // a bytes.Buffer does not fail
	}
	zw.Close()
	return id, ix, buf.Bytes()
}

// Pack is a fully decoded and verified pack file.
type Pack struct {
	Hashes []Hash
	Encs   [][]byte // Encs[i] hashes to Hashes[i]
}

// DecodePack parses a whole pack file and verifies every member against its
// index entry. Pack files are untrusted on-disk input: any inconsistency is
// an error, and no length field is believed beyond what data can back.
func DecodePack(data []byte) (*Pack, error) {
	_, ix, raw, err := decodePack(data)
	if err != nil {
		return nil, err
	}
	p := &Pack{Hashes: ix.hashes, Encs: make([][]byte, len(ix.hashes))}
	for i := range ix.hashes {
		p.Encs[i] = raw[ix.offs[i]:ix.offs[i+1]]
	}
	return p, nil
}

// PackHashes returns the hashes a pack file's index lists, checked against
// the index crc; the body is not read, so the members are not verified.
func PackHashes(data []byte) ([]Hash, error) {
	ix, err := readIndex(data)
	if err != nil {
		return nil, err
	}
	return ix.hashes, nil
}

// readIndex parses the header and index at the start of a whole pack file.
func readIndex(data []byte) (*packIndex, error) {
	count, err := packCount(data)
	if err != nil {
		return nil, err
	}
	if count > len(data)/packEntryLen || indexLen(count) > len(data) {
		return nil, fmt.Errorf("store: pack claims %d members in %d bytes", count, len(data))
	}
	return parsePackIndex(data[:indexLen(count)])
}

// decodePack verifies a whole pack file — the index against its crc, the
// stream inflating to exactly the indexed length, every member against its
// hash — and returns the id the file is stored under (derived from the
// bytes, as encodePack derives it), its index and its inflated stream.
func decodePack(data []byte) (Hash, *packIndex, []byte, error) {
	ix, err := readIndex(data)
	if err != nil {
		return Hash{}, nil, nil, err
	}
	end := indexLen(len(ix.hashes))
	raw, err := inflate(data[end:], ix.rawLen())
	if err != nil {
		return Hash{}, nil, nil, fmt.Errorf("store: pack body: %w", err)
	}
	for i, h := range ix.hashes {
		if Sum(raw[ix.offs[i]:ix.offs[i+1]]) != h {
			return Hash{}, nil, nil, fmt.Errorf("store: pack member %d fails content check for %s", i, h)
		}
	}
	return Sum(data[:end-4]), ix, raw, nil
}
