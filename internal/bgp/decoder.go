package bgp

import (
	"encoding/binary"
	"net/netip"
)

// Decoder is the package's decoder for UPDATE messages and path
// attributes, and the owning side of the decode stack's memory model.
// One instance serves one stream consumer, decode worker or
// connection: it carries reusable scratch plus geometric arenas, so a
// steady-state decode performs no heap allocation at all.
//
// Outputs fall into two ownership classes with one caller-facing
// contract:
//
//   - Retained outputs — AS-path segments with their ASN backing, and
//     community lists: the pieces a core.Elem carries by reference.
//     These are carved from append-only arena chunks that are never
//     rewound; when a chunk fills, the Decoder simply starts a new one
//     and lets the old chunk live for as long as anything references
//     it. Carved slices are full-capacity (three-index) views, so a
//     later append can never scribble over them.
//   - Transient outputs — the *Update and *PathAttributes structs
//     themselves, their pointer-typed fields (Origin, MED, LocalPref,
//     Aggregator, MPReach, MPUnreach, AS4Path), NLRI prefix slices,
//     and Unknown attr headers. These live in scratch that is reused
//     by the next Decode* call on the same Decoder.
//
// The contract callers must honour: everything returned by a Decoder
// method is valid until the next Decode* call on that Decoder.
// Callers that need longer retention copy what they keep (core.Elem
// copies scalar fields at materialisation time and offers Elem.Clone
// for full independence). See docs/ARCHITECTURE.md "Memory ownership"
// for the whole-pipeline picture.
//
// The zero value is ready to use. A Decoder is not safe for concurrent
// use; give each goroutine its own.
type Decoder struct {
	// Transient per-message scratch, rewound/overwritten by the next
	// top-level Decode* call.
	upd       Update
	attrs     PathAttributes
	pfx       []netip.Prefix
	origin    uint8
	med       uint32
	localPref uint32
	agg       Aggregator
	mpReach   MPReach
	mpUnreach MPUnreach
	as4Path   ASPath

	// Retained-output arenas: append-only, geometrically grown chunks.
	// len() only ever moves forward within a chunk; a full chunk is
	// replaced, never recycled, so outstanding references stay valid.
	segChunk  []PathSegment
	segNext   int
	asnChunk  []uint32
	asnNext   int
	commChunk []Community
	commNext  int
}

// Arena chunk bounds. Chunks double from min to max; the cap bounds
// worst-case waste when a large request abandons a near-empty chunk.
const (
	minSegChunk  = 64
	maxSegChunk  = 4096
	minASNChunk  = 512
	maxASNChunk  = 32768
	minCommChunk = 128
	maxCommChunk = 8192
)

// Package-level empty slices give zero-length AS-path segments and
// community lists a non-nil value without per-call literals.
var (
	emptyASNs        = make([]uint32, 0)
	emptyCommunities = make(Communities, 0)
)

// segSlice carves n segments from the segment arena.
//
//bgp:hotpath
func (d *Decoder) segSlice(n int) []PathSegment {
	if cap(d.segChunk)-len(d.segChunk) < n {
		size := d.segNext
		if size < minSegChunk {
			size = minSegChunk
		}
		if size < n {
			size = n
		}
		d.segNext = size * 2
		if d.segNext > maxSegChunk {
			d.segNext = maxSegChunk
		}
		d.segChunk = make([]PathSegment, 0, size) //bgp:alloc-ok geometric arena chunk growth
	}
	start := len(d.segChunk)
	d.segChunk = d.segChunk[:start+n]
	return d.segChunk[start : start+n : start+n]
}

// asnSlice carves n ASNs from the ASN arena.
//
//bgp:hotpath
func (d *Decoder) asnSlice(n int) []uint32 {
	if cap(d.asnChunk)-len(d.asnChunk) < n {
		size := d.asnNext
		if size < minASNChunk {
			size = minASNChunk
		}
		if size < n {
			size = n
		}
		d.asnNext = size * 2
		if d.asnNext > maxASNChunk {
			d.asnNext = maxASNChunk
		}
		d.asnChunk = make([]uint32, 0, size) //bgp:alloc-ok geometric arena chunk growth
	}
	start := len(d.asnChunk)
	d.asnChunk = d.asnChunk[:start+n]
	return d.asnChunk[start : start+n : start+n]
}

// commSlice carves n communities from the community arena.
//
//bgp:hotpath
func (d *Decoder) commSlice(n int) []Community {
	if cap(d.commChunk)-len(d.commChunk) < n {
		size := d.commNext
		if size < minCommChunk {
			size = minCommChunk
		}
		if size < n {
			size = n
		}
		d.commNext = size * 2
		if d.commNext > maxCommChunk {
			d.commNext = maxCommChunk
		}
		d.commChunk = make([]Community, 0, size) //bgp:alloc-ok geometric arena chunk growth
	}
	start := len(d.commChunk)
	d.commChunk = d.commChunk[:start+n]
	return d.commChunk[start : start+n : start+n]
}

// DecodeASPath decodes an AS_PATH attribute body into arena-backed
// segments. asSize must be 2 or 4 (octets per ASN): BGP4MP MESSAGE
// records carry 2-octet paths unless the AS4 subtype is used, while
// TABLE_DUMP_V2 RIB entries always carry 4-octet paths (RFC 6396
// §4.3.4). The returned path's backing follows the arena rules above,
// so it remains valid across subsequent decodes for as long as it is
// referenced.
//
//bgp:hotpath
func (d *Decoder) DecodeASPath(buf []byte, asSize int) (ASPath, error) {
	// Pass 1: validate framing and size the carve.
	nSeg, nASN := 0, 0
	for off := 0; off < len(buf); {
		if len(buf)-off < 2 {
			return ASPath{}, wireErr("as-path", off, ErrTruncated)
		}
		count := int(buf[off+1])
		off += 2
		need := count * asSize
		if len(buf)-off < need {
			return ASPath{}, wireErr("as-path", off, ErrTruncated)
		}
		nSeg++
		nASN += count
		off += need
	}
	if nSeg == 0 {
		return ASPath{}, nil
	}
	// Pass 2: carve once, then fill.
	segs := d.segSlice(nSeg)
	asns := d.asnSlice(nASN)
	si, ai := 0, 0
	for off := 0; off < len(buf); {
		segType := buf[off]
		count := int(buf[off+1])
		off += 2
		seg := emptyASNs
		if count > 0 {
			seg = asns[ai : ai+count : ai+count]
			ai += count
		}
		for i := 0; i < count; i++ {
			if asSize == 2 {
				seg[i] = uint32(binary.BigEndian.Uint16(buf[off:]))
			} else {
				seg[i] = binary.BigEndian.Uint32(buf[off:])
			}
			off += asSize
		}
		segs[si] = PathSegment{Type: segType, ASNs: seg}
		si++
	}
	return ASPath{Segments: segs}, nil
}

// DecodeCommunities decodes a COMMUNITIES attribute body into the
// community arena. The returned list follows the arena retention rules
// (valid while referenced).
//
//bgp:hotpath
func (d *Decoder) DecodeCommunities(buf []byte) (Communities, error) {
	if len(buf)%4 != 0 {
		return nil, wireErr("communities", 0, ErrBadLength)
	}
	n := len(buf) / 4
	if n == 0 {
		return emptyCommunities, nil
	}
	out := d.commSlice(n)
	for i := 0; i < n; i++ {
		out[i] = Community(binary.BigEndian.Uint32(buf[i*4:]))
	}
	return Communities(out), nil
}

// nlriList decodes a packed NLRI sequence into the prefix scratch
// without rewinding it, so one message's withdrawn/MP/NLRI lists can
// share the buffer. Callers at the top level rewind first.
//
//bgp:hotpath
func (d *Decoder) nlriList(buf []byte, afi uint16) ([]netip.Prefix, error) {
	start := len(d.pfx)
	off := 0
	for off < len(buf) {
		p, n, err := DecodeNLRI(buf[off:], afi)
		if err != nil {
			if we, isWire := err.(*WireError); isWire {
				we.Offset += off
			}
			d.pfx = d.pfx[:start]
			return nil, err
		}
		d.pfx = append(d.pfx, p)
		off += n
	}
	if len(d.pfx) == start {
		return nil, nil
	}
	return d.pfx[start:len(d.pfx):len(d.pfx)], nil
}

// DecodeNLRIList decodes a packed NLRI sequence through the decoder's
// prefix scratch. The returned slice is transient: valid until the
// next Decode* call on this Decoder.
//
//bgp:hotpath
func (d *Decoder) DecodeNLRIList(buf []byte, afi uint16) ([]netip.Prefix, error) {
	d.pfx = d.pfx[:0]
	return d.nlriList(buf, afi)
}

// DecodeAttributes decodes a packed path-attribute block into the
// decoder's attribute scratch. The returned attributes and their
// pointer fields are transient (valid until the next Decode* call);
// the AS-path and community backing inside them is arena-retained.
// On error the partially-decoded attributes are still returned.
//
//bgp:hotpath
func (d *Decoder) DecodeAttributes(buf []byte, asSize int) (*PathAttributes, error) {
	d.pfx = d.pfx[:0]
	err := d.decodeAttributesInto(&d.attrs, buf, asSize)
	return &d.attrs, err
}

//bgp:hotpath
func (d *Decoder) decodeAttributesInto(a *PathAttributes, buf []byte, asSize int) error {
	*a = PathAttributes{}
	off := 0
	for off < len(buf) {
		h, next, err := decodeAttrHeader(buf, off)
		if err != nil {
			return err
		}
		val := buf[h.valueOff : h.valueOff+h.valueLen]
		if err := d.decodeOneInto(a, h, val, asSize); err != nil {
			return err
		}
		off = next
	}
	return nil
}

//bgp:hotpath
func (d *Decoder) decodeOneInto(a *PathAttributes, h attrHeader, val []byte, asSize int) error {
	switch h.typ {
	case AttrOrigin:
		if len(val) != 1 {
			return wireErr("origin", h.valueOff, ErrBadLength)
		}
		d.origin = val[0]
		a.Origin = &d.origin
	case AttrASPath:
		p, err := d.DecodeASPath(val, asSize)
		if err != nil {
			return err
		}
		a.ASPath = p
		a.HasASPath = true
	case AttrNextHop:
		if len(val) != 4 {
			return wireErr("next-hop", h.valueOff, ErrBadLength)
		}
		a.NextHop = netip.AddrFrom4([4]byte(val))
	case AttrMED:
		if len(val) != 4 {
			return wireErr("med", h.valueOff, ErrBadLength)
		}
		d.med = binary.BigEndian.Uint32(val)
		a.MED = &d.med
	case AttrLocalPref:
		if len(val) != 4 {
			return wireErr("local-pref", h.valueOff, ErrBadLength)
		}
		d.localPref = binary.BigEndian.Uint32(val)
		a.LocalPref = &d.localPref
	case AttrAtomicAggregate:
		a.AtomicAggregate = true
	case AttrAggregator:
		if err := decodeAggregatorInto(&d.agg, val, asSize); err != nil {
			return err
		}
		a.Aggregator = &d.agg
	case AttrAS4Aggregator:
		if err := decodeAggregatorInto(&d.agg, val, 4); err != nil {
			return err
		}
		a.Aggregator = &d.agg
	case AttrCommunities:
		cs, err := d.DecodeCommunities(val)
		if err != nil {
			return err
		}
		a.Communities = cs
	case AttrMPReachNLRI:
		if err := d.decodeMPReachInto(&d.mpReach, val); err != nil {
			return err
		}
		a.MPReach = &d.mpReach
	case AttrMPUnreachNLRI:
		if err := d.decodeMPUnreachInto(&d.mpUnreach, val); err != nil {
			return err
		}
		a.MPUnreach = &d.mpUnreach
	case AttrAS4Path:
		p, err := d.DecodeASPath(val, 4)
		if err != nil {
			return err
		}
		d.as4Path = p
		a.AS4Path = &d.as4Path
	default:
		a.Unknown = append(a.Unknown, RawAttr{
			Flags: h.flags, Type: h.typ, Value: cloneBytes(val),
		})
	}
	return nil
}

// cloneBytes copies an unknown attribute's value so it survives body
// reuse. Unknown attrs are rare in real feeds; this stays off the
// steady-state path.
func cloneBytes(b []byte) []byte {
	return append([]byte(nil), b...)
}

func decodeAggregatorInto(ag *Aggregator, val []byte, asSize int) error {
	switch {
	case asSize == 2 && len(val) == 6:
		ag.ASN = uint32(binary.BigEndian.Uint16(val))
		ag.Addr = netip.AddrFrom4([4]byte(val[2:6]))
	case len(val) == 8:
		ag.ASN = binary.BigEndian.Uint32(val)
		ag.Addr = netip.AddrFrom4([4]byte(val[4:8]))
	default:
		return wireErr("aggregator", 0, ErrBadLength)
	}
	return nil
}

//bgp:hotpath
func (d *Decoder) decodeMPReachInto(mp *MPReach, val []byte) error {
	if len(val) < 5 {
		return wireErr("mp-reach", 0, ErrTruncated)
	}
	*mp = MPReach{
		AFI:  binary.BigEndian.Uint16(val),
		SAFI: val[2],
	}
	nhLen := int(val[3])
	if len(val) < 4+nhLen+1 {
		return wireErr("mp-reach", 4, ErrTruncated)
	}
	nh := val[4 : 4+nhLen]
	switch nhLen {
	case 4:
		mp.NextHop = netip.AddrFrom4([4]byte(nh))
	case 16:
		mp.NextHop = netip.AddrFrom16([16]byte(nh))
	case 32:
		mp.NextHop = netip.AddrFrom16([16]byte(nh[:16]))
		mp.LinkLocal = netip.AddrFrom16([16]byte(nh[16:]))
	default:
		return wireErr("mp-reach", 3, ErrBadLength)
	}
	// one reserved octet then NLRI
	nlri, err := d.nlriList(val[4+nhLen+1:], mp.AFI)
	if err != nil {
		return err
	}
	mp.NLRI = nlri
	return nil
}

//bgp:hotpath
func (d *Decoder) decodeMPUnreachInto(mp *MPUnreach, val []byte) error {
	if len(val) < 3 {
		return wireErr("mp-unreach", 0, ErrTruncated)
	}
	*mp = MPUnreach{
		AFI:  binary.BigEndian.Uint16(val),
		SAFI: val[2],
	}
	nlri, err := d.nlriList(val[3:], mp.AFI)
	if err != nil {
		return err
	}
	mp.NLRI = nlri
	return nil
}

// DecodeUpdateBody decodes an UPDATE message body (everything after
// the 19-byte header) into the decoder's scratch. The returned update
// is transient: valid until the next Decode* call on this Decoder.
//
//bgp:hotpath
func (d *Decoder) DecodeUpdateBody(buf []byte, asSize int) (*Update, error) {
	d.pfx = d.pfx[:0]
	u := &d.upd
	*u = Update{}
	if len(buf) < 2 {
		return nil, wireErr("update", 0, ErrTruncated)
	}
	wlen := int(binary.BigEndian.Uint16(buf))
	off := 2
	if len(buf)-off < wlen {
		return nil, wireErr("update", off, ErrTruncated)
	}
	var err error
	u.Withdrawn, err = d.nlriList(buf[off:off+wlen], AFIIPv4)
	if err != nil {
		return nil, err
	}
	off += wlen
	if len(buf)-off < 2 {
		return nil, wireErr("update", off, ErrTruncated)
	}
	alen := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if len(buf)-off < alen {
		return nil, wireErr("update", off, ErrTruncated)
	}
	if err := d.decodeAttributesInto(&u.Attrs, buf[off:off+alen], asSize); err != nil {
		return nil, err
	}
	off += alen
	u.NLRI, err = d.nlriList(buf[off:], AFIIPv4)
	if err != nil {
		return nil, err
	}
	return u, nil
}

// DecodeUpdateMessage decodes a framed message, which must be an
// UPDATE, through the decoder's scratch. Same transience contract as
// DecodeUpdateBody.
//
//bgp:hotpath
func (d *Decoder) DecodeUpdateMessage(buf []byte, asSize int) (*Update, error) {
	msg, _, err := DecodeMessage(buf)
	if err != nil {
		return nil, err
	}
	if msg.Type != MsgUpdate {
		return nil, wireErr("message", 18, ErrBadAttr)
	}
	return d.DecodeUpdateBody(msg.Body, asSize)
}
