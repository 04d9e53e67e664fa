package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

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
// order make the same name whoever writes them, though the stream depends
// on the writer's deflate level and no reader compares it. The crc guards
// the index, which Open trusts without reading the body; the body needs no
// checksum of its own because every member is re-hashed against its index
// entry when it is read.
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
	off := uint64(0)
	for i := 0; i < count; i++ {
		e := prefix[packHeaderLen+i*packEntryLen:]
		copy(ix.hashes[i][:], e[:32])
		off += uint64(binary.LittleEndian.Uint32(e[32:]))
		if off > packRawLimit {
			return nil, fmt.Errorf("store: pack members exceed %d raw bytes", packRawLimit)
		}
		ix.offs[i+1] = uint32(off)
	}
	if rawLen := binary.LittleEndian.Uint32(prefix[8:]); uint64(rawLen) != off {
		return nil, fmt.Errorf("store: pack members cover %d of %d raw bytes", off, rawLen)
	}
	if h, ok := duplicate(ix.hashes); ok {
		return nil, fmt.Errorf("store: pack lists %s twice", h)
	}
	return ix, nil
}

// duplicate returns a hash hashes lists twice, if there is one. It sorts the
// hashes' first eight bytes, which tie only where two hashes are equal or
// collide there — for content addresses, one index in about 2^64 / n^2 — and
// compares whole hashes only when two tie.
func duplicate(hashes []Hash) (Hash, bool) {
	keys := make([]uint64, len(hashes))
	for i := range hashes {
		keys[i] = binary.BigEndian.Uint64(hashes[i][:])
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return duplicateSorted(hashes)
		}
	}
	return Hash{}, false
}

// duplicateSorted is duplicate by sorting the hashes whole, in a copy.
func duplicateSorted(hashes []Hash) (Hash, bool) {
	sorted := slices.Clone(hashes)
	slices.SortFunc(sorted, func(a, b Hash) int { return bytes.Compare(a[:], b[:]) })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted[i], true
		}
	}
	return Hash{}, false
}

// The codecs are reused process-wide. Measured with runtime.MemStats, a
// BestSpeed writer is 1.20 MB of tables (a BestCompression one 0.81 MB) and
// a reader ~40 KB, either far more than the stream a typical commit or prime
// pushes through it. Packs are deflated at BestSpeed because the commit
// pays for it on the launch: BestCompression made the cold GUI launch 3–4×
// slower for a database under 5 % smaller. Idle codecs wait on
// bounded free lists rather than in a sync.Pool, which empties at every GC:
// a launch allocates ~3 MB, so a GC falls every few launches and each would
// cost the next commit a new writer. Four is enough for the commits and
// primes one process runs at once (a daemon's publishes, an in-process
// fleet's shards) and keeps at most ~5 MB of tables alive. A codec handed
// back to a full list is dropped; an empty list allocates one.
const maxIdleCodecs = 4

var (
	deflaters = make(chan *flate.Writer, maxIdleCodecs)
	inflaters = make(chan io.ReadCloser, maxIdleCodecs)
)

// release hands a codec back to its free list, or drops it if the list is
// full.
func release[T any](free chan T, c T) {
	select {
	case free <- c:
	default:
	}
}

// deflater returns a free-listed flate writer at BestSpeed writing to w.
func deflater(w io.Writer) *flate.Writer {
	select {
	case zw := <-deflaters:
		zw.Reset(w)
		return zw
	default:
		zw, _ := flate.NewWriter(w, flate.BestSpeed) // the level is valid
		return zw
	}
}

// inflater returns a free-listed flate reader positioned at the start of
// stream, and the function that hands it back.
func inflater(stream []byte) (io.Reader, func()) {
	var zr io.ReadCloser
	select {
	case zr = <-inflaters:
		zr.(flate.Resetter).Reset(bytes.NewReader(stream), nil) // flate's Reset does not fail
	default:
		zr = flate.NewReader(bytes.NewReader(stream))
	}
	return zr, func() { release(inflaters, zr) }
}

// inflateChunk is how much of a stream inflateStream inflates between two
// progress reports: small enough that a reader decoding beside it waits
// for little more than the member it wants, large enough that the reports
// cost nothing beside the inflating.
const inflateChunk = 16 << 10

// errStopped ends an inflation its reader abandoned.
var errStopped = errors.New("store: inflation stopped")

// checkRatio rejects a want the stream could not possibly inflate to,
// before anything is allocated for it.
func checkRatio(stream []byte, want int) error {
	if want > flateMaxRatio*(len(stream)+1) {
		return fmt.Errorf("store: %d stream bytes cannot inflate to %d", len(stream), want)
	}
	return nil
}

// inflateStream is the one pack-body inflater: it fills raw from stream
// inflateChunk bytes at a time, sending the length filled so far on
// progress (when not nil) after each chunk and giving up once stop (when
// not nil) is closed. The stream must end, cleanly, exactly at len(raw): a
// torn tail is a torn file even when every byte asked for came out of it.
func inflateStream(stream, raw []byte, progress chan<- int, stop <-chan struct{}) error {
	zr, done := inflater(stream)
	defer done()
	for have := 0; have < len(raw); {
		select {
		case <-stop:
			return errStopped
		default:
		}
		n := min(len(raw)-have, inflateChunk)
		if _, err := io.ReadFull(zr, raw[have:have+n]); err != nil {
			return err
		}
		have += n
		if progress != nil {
			progress <- have
		}
	}
	var one [1]byte
	if n, err := zr.Read(one[:]); n != 0 || err != io.EOF {
		return fmt.Errorf("store: stream does not end after %d bytes", len(raw))
	}
	return nil
}

// inflate decompresses one flate stream into exactly want bytes on the
// calling goroutine.
func inflate(stream []byte, want int) ([]byte, error) {
	if err := checkRatio(stream, want); err != nil {
		return nil, err
	}
	raw := make([]byte, want)
	if err := inflateStream(stream, raw, nil, nil); err != nil {
		return nil, err
	}
	return raw, nil
}

// inflation is a pack body inflating into raw on a goroutine of its own,
// so that its reader verifies and decodes the members that have arrived
// while the rest inflate. The progress channel has room for every chunk,
// so the inflater never waits for its reader.
type inflation struct {
	raw      []byte
	have     int           // the prefix of raw the reader has seen arrive
	progress chan int      // len(raw) filled so far, once per chunk; closed once err is set
	stop     chan struct{} // closed by a reader that abandons the stream
	err      error         // the verdict on the whole stream, read after progress is closed
}

// startInflate starts inflating stream into a new buffer of want bytes.
func startInflate(stream []byte, want int) (*inflation, error) {
	if err := checkRatio(stream, want); err != nil {
		return nil, err
	}
	z := &inflation{
		raw:      make([]byte, want),
		progress: make(chan int, (want+inflateChunk-1)/inflateChunk),
		stop:     make(chan struct{}),
	}
	go func() {
		z.err = inflateStream(stream, z.raw, z.progress, z.stop)
		close(z.progress)
	}()
	return z, nil
}

// await returns once raw[:n] has arrived, or with the error that ended the
// stream before it did.
func (z *inflation) await(n int) error {
	for z.have < n {
		have, ok := <-z.progress
		if !ok {
			return z.err
		}
		z.have = have
	}
	return nil
}

// finish waits for the inflater and returns its verdict on the whole
// stream, the check that it ends exactly at len(raw) included.
func (z *inflation) finish() error {
	for range z.progress {
	}
	return z.err
}

// abandon stops the inflater and waits for it to end.
func (z *inflation) abandon() {
	close(z.stop)
	z.finish()
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
	zw := deflater(buf)
	defer release(deflaters, zw)
	for _, enc := range encs {
		zw.Write(enc) // a bytes.Buffer does not fail
	}
	zw.Close()
	return id, ix, buf.Bytes()
}

// packEnds splits encs, in order, into the runs one pack each holds — at
// most packMaxRaw raw bytes, or one larger encoding — and returns where each
// run ends.
func packEnds(encs [][]byte) []int {
	var ends []int
	raw := 0
	for i, enc := range encs {
		if i > 0 && raw+len(enc) > packMaxRaw {
			ends, raw = append(ends, i), 0
		}
		raw += len(enc)
	}
	if len(encs) > 0 {
		ends = append(ends, len(encs))
	}
	return ends
}

// EncodePacks builds the pack files holding encs under hashes, split as a
// put splits them (packEnds), so usually one. No hash may repeat.
func EncodePacks(hashes []Hash, encs [][]byte) [][]byte {
	var files [][]byte
	start := 0
	for _, end := range packEnds(encs) {
		_, _, data := encodePack(hashes[start:end], encs[start:end])
		files, start = append(files, data), end
	}
	return files
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
