package mrt

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
)

// Reader reads MRT records sequentially from a stream, transparently
// decompressing gzip input (detected from the magic bytes, matching
// how archives publish .gz dump files).
//
// A corrupted record — impossible length field or a body cut short —
// surfaces as an error wrapping ErrCorrupted from Next; the reader is
// then positioned at end of stream, mirroring the paper's behaviour of
// marking the remainder of a damaged dump invalid rather than crashing
// a long-running stream.
type Reader struct {
	r       *bufio.Reader
	gz      *gzip.Reader
	hdr     [HeaderLen]byte
	scratch []byte
	err     error

	// arena, when non-zero, switches body allocation from the shared
	// scratch buffer to arena chunks: each record body is carved out
	// of the current chunk (sized from the MRT header length), so
	// bodies stay valid indefinitely and the per-record heap
	// allocation the scratch mode forces on callers that retain bodies
	// disappears — one chunk allocation amortises over many records.
	// Chunks grow geometrically from minArenaChunk up to arena (the
	// cap), so short dumps don't pay a full-size chunk. See
	// StableBodies.
	arena     int
	arenaNext int
	arenaBuf  []byte
	arenaUsed int
}

// NewReader creates a Reader for raw or gzip-compressed MRT data.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(2)
	if err == nil && len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, gerr := gzip.NewReader(br)
		if gerr != nil {
			return nil, corrupt("gzip", gerr)
		}
		return &Reader{r: bufio.NewReaderSize(gz, 1<<16), gz: gz}, nil
	}
	// Peek errors (e.g. empty input) are deferred to the first Next.
	return &Reader{r: br}, nil
}

// DefaultArenaChunk is the maximum body-arena chunk size StableBodies
// uses when passed a non-positive size; minArenaChunk is where the
// geometric chunk growth starts.
const (
	DefaultArenaChunk = 256 << 10
	minArenaChunk     = 8 << 10
)

// StableBodies switches the reader to arena body allocation: record
// bodies returned by Next remain valid for the lifetime of the
// process (not just until the next call) and cost no per-record heap
// allocation — bodies are sliced out of chunkSize-byte arena chunks,
// with bodies larger than a chunk allocated individually. Callers
// that retain every record (the stream layer) use this to drop the
// copy-per-record the default reusable-scratch mode forces on them.
// chunkSize <= 0 selects DefaultArenaChunk. Must be called before the
// first Next.
//
// This is the bottom layer of the decode stack's memory-ownership
// chain (docs/ARCHITECTURE.md "Memory ownership along the decode
// stack"): the record bodies carved here back every downstream view —
// mrt wire structs alias them, and bgp.Decoder parses elems out of
// them — so body stability is what lets those layers reuse scratch
// instead of copying.
func (r *Reader) StableBodies(chunkSize int) {
	if chunkSize <= 0 {
		chunkSize = DefaultArenaChunk
	}
	r.arena = chunkSize
	r.arenaNext = minArenaChunk
	if r.arenaNext > chunkSize {
		r.arenaNext = chunkSize
	}
}

// body returns a buffer of length n to decode the next record body
// into, from the arena in StableBodies mode and from the reusable
// scratch otherwise.
//
//bgp:hotpath
func (r *Reader) body(n int) []byte {
	if r.arena == 0 {
		if cap(r.scratch) < n {
			// Grow with headroom: record sizes fluctuate, and sizing the
			// scratch to exactly the largest-so-far reallocates on every
			// new maximum early in a dump.
			r.scratch = make([]byte, n+n/2) //bgp:alloc-ok amortised scratch growth
		}
		return r.scratch[:n]
	}
	if n > r.arena {
		return make([]byte, n) //bgp:alloc-ok oversized body cannot share a chunk
	}
	if len(r.arenaBuf)-r.arenaUsed < n {
		size := r.arenaNext
		if size < n {
			size = n
		}
		if next := r.arenaNext * 2; next <= r.arena {
			r.arenaNext = next
		} else {
			r.arenaNext = r.arena
		}
		r.arenaBuf = make([]byte, size) //bgp:alloc-ok geometric arena chunk growth
		r.arenaUsed = 0
	}
	b := r.arenaBuf[r.arenaUsed : r.arenaUsed+n : r.arenaUsed+n]
	r.arenaUsed += n
	return b
}

// readLarge reads an n-byte body whose header claims more than
// DefaultArenaChunk. The buffer starts at DefaultArenaChunk and at
// most doubles per step, so a damaged length field costs memory in
// proportion to the bytes that actually arrive, not to the claim. In
// scratch mode the buffer is kept as the reusable scratch; in
// StableBodies mode the body is allocated on its own, as any body
// larger than a chunk is.
func (r *Reader) readLarge(n int) ([]byte, error) {
	var buf []byte
	if r.arena == 0 {
		buf = r.scratch[:0]
	}
	for len(buf) < n {
		want := min(n, max(2*len(buf), DefaultArenaChunk))
		if cap(buf) < want {
			buf = append(make([]byte, 0, want), buf...)
		}
		got, err := io.ReadFull(r.r, buf[len(buf):want])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, err
		}
	}
	if r.arena == 0 {
		r.scratch = buf
	}
	return buf, nil
}

// Next returns the next record, io.EOF at the end of the stream, an
// error wrapping ErrCorrupted for structurally damaged input (bad
// bytes, including truncation), or an error wrapping ErrSourceIO when
// the underlying reader itself failed mid-record (bad network — the
// input up to that point was fine). The record body is valid until
// the next call to Next (for the lifetime of the process in
// StableBodies mode).
func (r *Reader) Next() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	rec, err := r.next()
	if err != nil {
		r.err = err
	}
	return rec, err
}

//bgp:hotpath
func (r *Reader) next() (Record, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, corrupt("header", err)
		}
		return Record{}, readFailure("header", err)
	}
	h, err := DecodeHeader(r.hdr[:])
	if err != nil {
		return Record{}, err
	}
	var body []byte
	if n := int(h.Length); n <= DefaultArenaChunk {
		body = r.body(n)
		_, err = io.ReadFull(r.r, body)
	} else {
		body, err = r.readLarge(n)
	}
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// The stream ended inside a record the header promised:
			// structural truncation of the input itself.
			return Record{}, corrupt("body", err)
		}
		return Record{}, readFailure("body", err)
	}
	if h.Type == TypeBGP4MPET {
		if len(body) < 4 {
			return Record{}, corrupt("et timestamp", io.ErrUnexpectedEOF)
		}
		h.Microseconds = binary.BigEndian.Uint32(body)
		body = body[4:]
	}
	return Record{Header: h, Body: body}, nil
}

// Close releases the decompressor, if any. The underlying reader is
// not closed; the caller owns it.
func (r *Reader) Close() error {
	if r.gz != nil {
		return r.gz.Close()
	}
	return nil
}

// Writer writes MRT records to a stream, optionally gzip-compressed.
type Writer struct {
	w   io.Writer
	gz  *gzip.Writer
	buf []byte
}

// NewWriter creates an uncompressed MRT writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// NewGzipWriter creates a writer producing a gzip-compressed dump, as
// published by the RouteViews and RIPE RIS archives.
func NewGzipWriter(w io.Writer) *Writer {
	gz := gzip.NewWriter(w)
	return &Writer{w: gz, gz: gz}
}

// WriteRecord writes one record, fixing up the header length to match
// the body.
func (w *Writer) WriteRecord(rec Record) error {
	h := rec.Header
	h.Length = uint32(len(rec.Body))
	if h.Type == TypeBGP4MPET {
		h.Length += 4
	}
	w.buf = AppendHeader(w.buf[:0], h)
	if h.Type == TypeBGP4MPET {
		w.buf = binary.BigEndian.AppendUint32(w.buf, h.Microseconds)
	}
	w.buf = append(w.buf, rec.Body...)
	_, err := w.w.Write(w.buf)
	return err
}

// Close flushes and closes the compressor, if any.
func (w *Writer) Close() error {
	if w.gz != nil {
		return w.gz.Close()
	}
	return nil
}

// ReadAll decodes every record from r until EOF. It is a convenience
// for tests and small dumps; streaming callers should use Next. Record
// bodies are copied so they remain valid after return.
func ReadAll(r io.Reader) ([]Record, error) {
	mr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	defer mr.Close()
	var out []Record
	for {
		rec, err := mr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		rec.Body = append([]byte(nil), rec.Body...)
		out = append(out, rec)
	}
}
