package mrt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/bgpstream-go/bgpstream/internal/bgp"
)

func testUpdate() *bgp.Update {
	origin := uint8(bgp.OriginIGP)
	return &bgp.Update{
		Attrs: bgp.PathAttributes{
			Origin:      &origin,
			ASPath:      bgp.SequencePath(64512, 701, 174),
			HasASPath:   true,
			NextHop:     netip.MustParseAddr("192.0.2.1"),
			Communities: bgp.Communities{bgp.NewCommunity(701, 666)},
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Timestamp: 1438415400, Type: TypeBGP4MP, Subtype: SubtypeMessageAS4, Length: 99}
	enc := AppendHeader(nil, h)
	if len(enc) != HeaderLen {
		t.Fatalf("header length %d", len(enc))
	}
	got, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("got %+v want %+v", got, h)
	}
}

func TestHeaderRejectsGiantLength(t *testing.T) {
	h := Header{Length: MaxRecordLen + 1}
	if _, err := DecodeHeader(AppendHeader(nil, h)); !errors.Is(err, ErrCorrupted) {
		t.Errorf("giant length accepted: %v", err)
	}
}

func TestBGP4MPMessageRoundTrip(t *testing.T) {
	u := testUpdate()
	rec := NewUpdateRecord(1438415400, 64512, 65000, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.254"), u)
	if rec.Header.Subtype != SubtypeMessage {
		t.Errorf("subtype %d, want MESSAGE for 2-byte ASNs", rec.Header.Subtype)
	}
	var msg BGP4MPMessage
	if err := DecodeBGP4MPMessageTo(&msg, rec.Body, rec.Header.Subtype); err != nil {
		t.Fatal(err)
	}
	if msg.PeerAS != 64512 || msg.LocalAS != 65000 {
		t.Errorf("ASNs %d %d", msg.PeerAS, msg.LocalAS)
	}
	if msg.PeerIP != netip.MustParseAddr("192.0.2.1") {
		t.Errorf("peer IP %s", msg.PeerIP)
	}
	var d bgp.Decoder
	got, err := msg.UpdateInto(&d)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Attrs.ASPath.Equal(u.Attrs.ASPath) {
		t.Errorf("path %s want %s", got.Attrs.ASPath, u.Attrs.ASPath)
	}
	mt, err := msg.MessageType()
	if err != nil || mt != bgp.MsgUpdate {
		t.Errorf("MessageType %d %v", mt, err)
	}
}

func TestBGP4MPMessageAS4Selected(t *testing.T) {
	u := testUpdate()
	u.Attrs.ASPath = bgp.SequencePath(196608, 701)
	rec := NewUpdateRecord(1, 196608, 65000, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), u)
	if rec.Header.Subtype != SubtypeMessageAS4 {
		t.Fatalf("subtype %d, want MESSAGE_AS4", rec.Header.Subtype)
	}
	var msg BGP4MPMessage
	if err := DecodeBGP4MPMessageTo(&msg, rec.Body, rec.Header.Subtype); err != nil {
		t.Fatal(err)
	}
	if msg.PeerAS != 196608 {
		t.Errorf("peer AS %d", msg.PeerAS)
	}
	var d bgp.Decoder
	got, err := msg.UpdateInto(&d)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Attrs.ASPath.Equal(u.Attrs.ASPath) {
		t.Errorf("path %s", got.Attrs.ASPath)
	}
}

func TestBGP4MPMessageIPv6Peering(t *testing.T) {
	u := testUpdate()
	rec := NewUpdateRecord(1, 64512, 65000, netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2"), u)
	var msg BGP4MPMessage
	if err := DecodeBGP4MPMessageTo(&msg, rec.Body, rec.Header.Subtype); err != nil {
		t.Fatal(err)
	}
	if msg.AFI != bgp.AFIIPv6 || msg.PeerIP != netip.MustParseAddr("2001:db8::1") {
		t.Errorf("AFI %d peer %s", msg.AFI, msg.PeerIP)
	}
}

func TestStateChangeRoundTrip(t *testing.T) {
	rec := NewStateChangeRecord(99, 64512, 65000, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.254"), bgp.StateEstablished, bgp.StateIdle)
	var sc BGP4MPStateChange
	if err := DecodeBGP4MPStateChangeTo(&sc, rec.Body, rec.Header.Subtype); err != nil {
		t.Fatal(err)
	}
	if sc.OldState != bgp.StateEstablished || sc.NewState != bgp.StateIdle {
		t.Errorf("states %s -> %s", sc.OldState, sc.NewState)
	}
}

func TestPeerIndexTableRoundTrip(t *testing.T) {
	pit := &PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("198.51.100.1"),
		ViewName:       "test-view",
		Peers: []Peer{
			{BGPID: netip.MustParseAddr("10.0.0.1"), IP: netip.MustParseAddr("192.0.2.10"), AS: 701},
			{BGPID: netip.MustParseAddr("10.0.0.2"), IP: netip.MustParseAddr("2001:db8::10"), AS: 196608},
		},
	}
	got, err := DecodePeerIndexTable(EncodePeerIndexTable(pit))
	if err != nil {
		t.Fatal(err)
	}
	if got.ViewName != "test-view" || got.CollectorBGPID != pit.CollectorBGPID {
		t.Errorf("header: %+v", got)
	}
	if !reflect.DeepEqual(got.Peers, pit.Peers) {
		t.Errorf("peers: %+v want %+v", got.Peers, pit.Peers)
	}
}

func TestRIBRoundTrip(t *testing.T) {
	attrs := bgp.AppendAttributes(nil, &testUpdate().Attrs, 4)
	rib := &RIB{
		Sequence: 7,
		Prefix:   netip.MustParsePrefix("203.0.113.0/24"),
		Entries: []RIBEntry{
			{PeerIndex: 0, OriginatedTime: 1000, Attrs: attrs},
			{PeerIndex: 1, OriginatedTime: 2000, Attrs: attrs},
		},
	}
	rec := NewRIBRecord(5000, rib)
	if rec.Header.Subtype != SubtypeRIBIPv4Unicast {
		t.Fatalf("subtype %d", rec.Header.Subtype)
	}
	var got RIB
	if err := DecodeRIBTo(&got, rec.Body, bgp.AFIIPv4); err != nil {
		t.Fatal(err)
	}
	if got.Sequence != 7 || got.Prefix != rib.Prefix || len(got.Entries) != 2 {
		t.Fatalf("rib %+v", got)
	}
	var d bgp.Decoder
	pa, err := got.Entries[0].DecodeAttrsInto(&d)
	if err != nil {
		t.Fatal(err)
	}
	if !pa.ASPath.Equal(bgp.SequencePath(64512, 701, 174)) {
		t.Errorf("attrs path %s", pa.ASPath)
	}
}

func TestRIBIPv6Subtype(t *testing.T) {
	rib := &RIB{Prefix: netip.MustParsePrefix("2001:db8::/32")}
	rec := NewRIBRecord(1, rib)
	if rec.Header.Subtype != SubtypeRIBIPv6Unicast {
		t.Fatalf("subtype %d", rec.Header.Subtype)
	}
	var got RIB
	if err := DecodeRIBTo(&got, rec.Body, bgp.AFIIPv6); err != nil || got.Prefix != rib.Prefix {
		t.Errorf("%+v %v", got, err)
	}
}

func TestTableDumpV1RoundTrip(t *testing.T) {
	attrs := bgp.AppendAttributes(nil, &bgp.PathAttributes{
		ASPath:    bgp.SequencePath(701, 174),
		HasASPath: true,
		NextHop:   netip.MustParseAddr("192.0.2.1"),
	}, 2)
	td := &TableDump{
		ViewNumber:     0,
		Sequence:       12,
		Prefix:         netip.MustParsePrefix("10.0.0.0/8"),
		Status:         1,
		OriginatedTime: 777,
		PeerIP:         netip.MustParseAddr("192.0.2.10"),
		PeerAS:         701,
		Attrs:          attrs,
	}
	body, subtype := EncodeTableDump(td)
	if subtype != bgp.AFIIPv4 {
		t.Fatalf("subtype %d", subtype)
	}
	var got TableDump
	if err := DecodeTableDumpTo(&got, body, subtype); err != nil {
		t.Fatal(err)
	}
	if got.Prefix != td.Prefix || got.PeerAS != 701 || got.Sequence != 12 {
		t.Fatalf("%+v", got)
	}
	var d bgp.Decoder
	pa, err := got.DecodeAttrsInto(&d)
	if err != nil || !pa.ASPath.Equal(bgp.SequencePath(701, 174)) {
		t.Errorf("attrs %v %v", pa.ASPath, err)
	}
}

func writeTestStream(t *testing.T, gz bool, n int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	var w *Writer
	if gz {
		w = NewGzipWriter(&buf)
	} else {
		w = NewWriter(&buf)
	}
	u := testUpdate()
	for i := 0; i < n; i++ {
		rec := NewUpdateRecord(uint32(1000+i), 64512, 65000, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.254"), u)
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestReaderPlain(t *testing.T) {
	buf := writeTestStream(t, false, 5)
	recs, err := ReadAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, rec := range recs {
		if rec.Header.Timestamp != uint32(1000+i) {
			t.Errorf("rec %d ts %d", i, rec.Header.Timestamp)
		}
	}
}

func TestReaderGzipAutoDetect(t *testing.T) {
	buf := writeTestStream(t, true, 5)
	recs, err := ReadAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records from gzip stream", len(recs))
	}
}

func TestReaderEmpty(t *testing.T) {
	recs, err := ReadAll(bytes.NewReader(nil))
	if err != nil || len(recs) != 0 {
		t.Errorf("empty: %v %v", recs, err)
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	buf := writeTestStream(t, false, 1)
	data := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if !errors.Is(err, ErrCorrupted) {
		t.Fatalf("truncated body: got %v, want ErrCorrupted", err)
	}
	// Reader must stay in the failed state.
	if _, err := r.Next(); !errors.Is(err, ErrCorrupted) {
		t.Errorf("second Next after corruption: %v", err)
	}
}

func TestReaderTruncatedHeader(t *testing.T) {
	r, err := NewReader(bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupted) {
		t.Errorf("truncated header: %v", err)
	}
}

func TestExtendedTimestampRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := NewUpdateRecord(42, 701, 65000, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), testUpdate())
	rec.Header.Type = TypeBGP4MPET
	rec.Header.Microseconds = 123456
	if err := w.WriteRecord(rec); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	got := recs[0]
	if got.Header.Microseconds != 123456 {
		t.Errorf("microseconds %d", got.Header.Microseconds)
	}
	if !got.IsExtended() {
		t.Error("IsExtended false")
	}
	if got.Header.Time().Nanosecond() != 123456000 {
		t.Errorf("Time() %v", got.Header.Time())
	}
	// Body must parse identically after the ET strip.
	var m BGP4MPMessage
	if err := DecodeBGP4MPMessageTo(&m, got.Body, SubtypeMessage); err != nil {
		t.Errorf("ET body: %v", err)
	}
}

func TestQuickRecordStreamRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		w := NewWriter(&buf)
		n := 1 + r.Intn(10)
		var want []uint32
		for i := 0; i < n; i++ {
			ts := r.Uint32()
			want = append(want, ts)
			u := testUpdate()
			rec := NewUpdateRecord(ts, 64512, 65000, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.254"), u)
			if w.WriteRecord(rec) != nil {
				return false
			}
		}
		recs, err := ReadAll(&buf)
		if err != nil || len(recs) != n {
			return false
		}
		for i, rec := range recs {
			if rec.Header.Timestamp != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickPeerIndexTableRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pit := &PeerIndexTable{CollectorBGPID: netip.AddrFrom4([4]byte{byte(r.Intn(256)), 0, 0, 1})}
		n := r.Intn(20)
		for i := 0; i < n; i++ {
			var ip netip.Addr
			if r.Intn(2) == 0 {
				var raw [4]byte
				r.Read(raw[:])
				ip = netip.AddrFrom4(raw)
			} else {
				var raw [16]byte
				r.Read(raw[:])
				ip = netip.AddrFrom16(raw)
			}
			pit.Peers = append(pit.Peers, Peer{
				BGPID: netip.AddrFrom4([4]byte{1, 2, 3, byte(i)}),
				IP:    ip,
				AS:    r.Uint32(),
			})
		}
		got, err := DecodePeerIndexTable(EncodePeerIndexTable(pit))
		if err != nil {
			return false
		}
		if len(got.Peers) != len(pit.Peers) {
			return false
		}
		for i := range got.Peers {
			if got.Peers[i] != pit.Peers[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncatedBodies(t *testing.T) {
	// Every prefix of valid bodies must error, never panic.
	u := testUpdate()
	rec := NewUpdateRecord(1, 64512, 65000, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.254"), u)
	var m BGP4MPMessage
	for cut := 0; cut < len(rec.Body); cut++ {
		DecodeBGP4MPMessageTo(&m, rec.Body[:cut], rec.Header.Subtype)
	}
	pit := EncodePeerIndexTable(&PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("1.2.3.4"),
		Peers:          []Peer{{BGPID: netip.MustParseAddr("1.1.1.1"), IP: netip.MustParseAddr("2.2.2.2"), AS: 1}},
	})
	for cut := 0; cut < len(pit); cut++ {
		DecodePeerIndexTable(pit[:cut])
	}
	attrs := bgp.AppendAttributes(nil, &u.Attrs, 4)
	ribBody := EncodeRIB(&RIB{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Entries: []RIBEntry{{Attrs: attrs}}})
	var rib RIB
	for cut := 0; cut < len(ribBody); cut++ {
		DecodeRIBTo(&rib, ribBody[:cut], bgp.AFIIPv4)
	}
}

func BenchmarkReaderUpdates(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	u := testUpdate()
	for i := 0; i < 1000; i++ {
		w.WriteRecord(NewUpdateRecord(uint32(i), 64512, 65000, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.254"), u))
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := NewReader(bytes.NewReader(data))
		n := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != 1000 {
			b.Fatalf("read %d", n)
		}
	}
}
