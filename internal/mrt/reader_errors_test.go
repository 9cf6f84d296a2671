package mrt

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net"
	"net/netip"
	"runtime"
	"testing"
)

// failingReader yields data, then fails every subsequent read with
// err (simulating a source that dies mid-stream).
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// oneRecord encodes a minimal valid BGP4MP record.
func oneRecord(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := Record{
		Header: Header{Timestamp: 1456790400, Type: TypeBGP4MP, Subtype: SubtypeMessageAS4},
		Body:   bytes.Repeat([]byte{0xab}, 64),
	}
	if err := w.WriteRecord(rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestNextSourceErrorMidBodyIsNotCorruption(t *testing.T) {
	data := oneRecord(t)
	// Cut inside the second record's body and fail with a net error:
	// the reader must report a source failure, not corruption.
	stream := append(append([]byte{}, data...), data[:HeaderLen+10]...)
	netErr := &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset by peer")}
	r, err := NewReader(&failingReader{data: stream, err: netErr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, err = r.Next()
	if err == nil {
		t.Fatal("want error for mid-body source failure")
	}
	if !errors.Is(err, ErrSourceIO) {
		t.Fatalf("got %v, want ErrSourceIO in the chain", err)
	}
	if errors.Is(err, ErrCorrupted) {
		t.Fatalf("source failure misclassified as corruption: %v", err)
	}
	var oe *net.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("original cause lost from the chain: %v", err)
	}
}

func TestNextSourceErrorMidHeaderIsNotCorruption(t *testing.T) {
	netErr := &net.OpError{Op: "read", Net: "tcp", Err: errors.New("reset")}
	r, err := NewReader(&failingReader{data: oneRecord(t)[:4], err: netErr})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if !errors.Is(err, ErrSourceIO) || errors.Is(err, ErrCorrupted) {
		t.Fatalf("mid-header source failure: got %v, want ErrSourceIO and not ErrCorrupted", err)
	}
}

func TestNextTruncationIsStillCorruption(t *testing.T) {
	data := oneRecord(t)
	for _, cut := range []int{HeaderLen + 10, 4} { // mid-body, mid-header
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Next()
		if !errors.Is(err, ErrCorrupted) {
			t.Fatalf("cut=%d: got %v, want ErrCorrupted", cut, err)
		}
		if errors.Is(err, ErrSourceIO) {
			t.Fatalf("cut=%d: truncated input misclassified as source failure: %v", cut, err)
		}
	}
}

func TestNextGzipChecksumDamageIsCorruption(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(oneRecord(t))
	gz.Close()
	data := buf.Bytes()
	// Flip a bit in the trailer CRC so decompression fails at the end.
	data[len(data)-5] ^= 0xff
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for {
		_, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		t.Skip("gzip damage not observed (checksum verified only at EOF)")
	}
	if !errors.Is(lastErr, ErrCorrupted) || errors.Is(lastErr, ErrSourceIO) {
		t.Fatalf("gzip damage: got %v, want ErrCorrupted and not ErrSourceIO", lastErr)
	}
}

func TestReaderStopsAfterSourceError(t *testing.T) {
	netErr := &net.OpError{Op: "read", Err: errors.New("reset")}
	r, err := NewReader(&failingReader{data: oneRecord(t)[:HeaderLen+5], err: netErr})
	if err != nil {
		t.Fatal(err)
	}
	_, err1 := r.Next()
	_, err2 := r.Next()
	if err1 == nil || !errors.Is(err2, ErrSourceIO) {
		t.Fatalf("error not latched: first=%v second=%v", err1, err2)
	}
}

// readerModes runs a check against both body-allocation modes.
var readerModes = []struct {
	name   string
	stable bool
}{{"scratch", false}, {"stable", true}}

// TestNextFlippedLengthAllocatesByDelivery flips the high byte of one
// record's length field in a small gzipped update dump, so the header
// claims 48 MiB that never arrive. The reader must report corruption
// having allocated in proportion to the bytes delivered, not the claim.
func TestNextFlippedLengthAllocatesByDelivery(t *testing.T) {
	u := testUpdate()
	var raw bytes.Buffer
	w := NewWriter(&raw)
	var offs []int
	for i := 0; i < 20; i++ {
		offs = append(offs, raw.Len())
		rec := NewUpdateRecord(uint32(1000+i), 64512, 65000, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.254"), u)
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	dump := raw.Bytes()
	dump[offs[3]+8] = 0x03 // Length's high byte: ~48 MiB, under MaxRecordLen
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(dump)
	zw.Close()

	for _, mode := range readerModes {
		t.Run(mode.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err := NewReader(bytes.NewReader(gz.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if mode.stable {
				r.StableBodies(0)
			}
			var n int
			for err == nil {
				if _, err = r.Next(); err == nil {
					n++
				}
			}
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupted) || errors.Is(err, ErrSourceIO) {
				t.Fatalf("got %v, want ErrCorrupted and not ErrSourceIO", err)
			}
			if n != 3 {
				t.Errorf("read %d records before the damage, want 3", n)
			}
			d := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d bytes allocated", d)
			if d >= 1<<20 {
				t.Errorf("allocated %d bytes reading a %d-byte dump, want < 1 MiB", d, len(dump))
			}
		})
	}
}

// TestNextLargeRecordRoundTrip reads a record above DefaultArenaChunk,
// which takes the stepped read path, between two small ones.
func TestNextLargeRecordRoundTrip(t *testing.T) {
	big := make([]byte, 4*DefaultArenaChunk+3)
	for i := range big {
		big[i] = byte(i * 7)
	}
	small := bytes.Repeat([]byte{0xab}, 64)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, body := range [][]byte{small, big, small, big} {
		rec := Record{Header: Header{Timestamp: uint32(i), Type: TypeBGP4MP, Subtype: SubtypeMessageAS4}, Body: body}
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range readerModes {
		t.Run(mode.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if mode.stable {
				r.StableBodies(0)
			}
			for i, want := range [][]byte{small, big, small, big} {
				rec, err := r.Next()
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if !bytes.Equal(rec.Body, want) {
					t.Fatalf("record %d: body of %d bytes differs from the %d written", i, len(rec.Body), len(want))
				}
			}
			if _, err := r.Next(); !errors.Is(err, io.EOF) {
				t.Fatalf("after the last record: %v, want io.EOF", err)
			}
		})
	}
}

// TestNextSourceErrorInLargeBody fails the source part-way through a
// body above DefaultArenaChunk: still a source failure, not corruption.
func TestNextSourceErrorInLargeBody(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := Record{Header: Header{Type: TypeBGP4MP, Subtype: SubtypeMessageAS4}, Body: make([]byte, 3*DefaultArenaChunk)}
	if err := w.WriteRecord(rec); err != nil {
		t.Fatal(err)
	}
	netErr := &net.OpError{Op: "read", Err: errors.New("reset")}
	r, err := NewReader(&failingReader{data: buf.Bytes()[:2*DefaultArenaChunk], err: netErr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrSourceIO) || errors.Is(err, ErrCorrupted) {
		t.Fatalf("got %v, want ErrSourceIO and not ErrCorrupted", err)
	}
}
