package bgp

import (
	"encoding/binary"
	"net/netip"
)

// A frozen, allocating reference decoder for the fuzz oracle. It is
// the straightforward one-allocation-per-value implementation the
// arena Decoder was derived from, kept verbatim and test-only so the
// differential fuzz targets (FuzzDecodeAttributes,
// FuzzDecodeUpdateBody) have an independent second opinion on every
// input: error strings, nil-vs-empty slice semantics and decoded
// fields must all agree. Do not "fix" it to track Decoder changes; a
// divergence the fuzzers find is a question about the Decoder first.
// It shares only the wire-framing primitives (decodeAttrHeader,
// DecodeNLRI, wireErr) with production code.

func refDecodeAttributes(buf []byte, asSize int) (PathAttributes, error) {
	var a PathAttributes
	off := 0
	for off < len(buf) {
		h, next, err := decodeAttrHeader(buf, off)
		if err != nil {
			return a, err
		}
		val := buf[h.valueOff : h.valueOff+h.valueLen]
		if err := refDecodeOne(&a, h, val, asSize); err != nil {
			return a, err
		}
		off = next
	}
	return a, nil
}

func refDecodeOne(a *PathAttributes, h attrHeader, val []byte, asSize int) error {
	switch h.typ {
	case AttrOrigin:
		if len(val) != 1 {
			return wireErr("origin", h.valueOff, ErrBadLength)
		}
		v := val[0]
		a.Origin = &v
	case AttrASPath:
		p, err := refDecodeASPath(val, asSize)
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
		v := binary.BigEndian.Uint32(val)
		a.MED = &v
	case AttrLocalPref:
		if len(val) != 4 {
			return wireErr("local-pref", h.valueOff, ErrBadLength)
		}
		v := binary.BigEndian.Uint32(val)
		a.LocalPref = &v
	case AttrAtomicAggregate:
		a.AtomicAggregate = true
	case AttrAggregator:
		ag, err := refDecodeAggregator(val, asSize)
		if err != nil {
			return err
		}
		a.Aggregator = ag
	case AttrAS4Aggregator:
		ag, err := refDecodeAggregator(val, 4)
		if err != nil {
			return err
		}
		a.Aggregator = ag
	case AttrCommunities:
		cs, err := refDecodeCommunities(val)
		if err != nil {
			return err
		}
		a.Communities = cs
	case AttrMPReachNLRI:
		mp, err := refDecodeMPReach(val)
		if err != nil {
			return err
		}
		a.MPReach = mp
	case AttrMPUnreachNLRI:
		mp, err := refDecodeMPUnreach(val)
		if err != nil {
			return err
		}
		a.MPUnreach = mp
	case AttrAS4Path:
		p, err := refDecodeASPath(val, 4)
		if err != nil {
			return err
		}
		a.AS4Path = &p
	default:
		a.Unknown = append(a.Unknown, RawAttr{
			Flags: h.flags, Type: h.typ, Value: append([]byte(nil), val...),
		})
	}
	return nil
}

func refDecodeAggregator(val []byte, asSize int) (*Aggregator, error) {
	switch {
	case asSize == 2 && len(val) == 6:
		return &Aggregator{
			ASN:  uint32(binary.BigEndian.Uint16(val)),
			Addr: netip.AddrFrom4([4]byte(val[2:6])),
		}, nil
	case len(val) == 8:
		return &Aggregator{
			ASN:  binary.BigEndian.Uint32(val),
			Addr: netip.AddrFrom4([4]byte(val[4:8])),
		}, nil
	default:
		return nil, wireErr("aggregator", 0, ErrBadLength)
	}
}

func refDecodeMPReach(val []byte) (*MPReach, error) {
	if len(val) < 5 {
		return nil, wireErr("mp-reach", 0, ErrTruncated)
	}
	mp := &MPReach{
		AFI:  binary.BigEndian.Uint16(val),
		SAFI: val[2],
	}
	nhLen := int(val[3])
	if len(val) < 4+nhLen+1 {
		return nil, wireErr("mp-reach", 4, ErrTruncated)
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
		return nil, wireErr("mp-reach", 3, ErrBadLength)
	}
	// one reserved octet then NLRI
	rest := val[4+nhLen+1:]
	nlri, err := refDecodeNLRIList(rest, mp.AFI)
	if err != nil {
		return nil, err
	}
	mp.NLRI = nlri
	return mp, nil
}

func refDecodeMPUnreach(val []byte) (*MPUnreach, error) {
	if len(val) < 3 {
		return nil, wireErr("mp-unreach", 0, ErrTruncated)
	}
	mp := &MPUnreach{
		AFI:  binary.BigEndian.Uint16(val),
		SAFI: val[2],
	}
	nlri, err := refDecodeNLRIList(val[3:], mp.AFI)
	if err != nil {
		return nil, err
	}
	mp.NLRI = nlri
	return mp, nil
}

func refDecodeUpdateBody(buf []byte, asSize int) (*Update, error) {
	if len(buf) < 2 {
		return nil, wireErr("update", 0, ErrTruncated)
	}
	wlen := int(binary.BigEndian.Uint16(buf))
	off := 2
	if len(buf)-off < wlen {
		return nil, wireErr("update", off, ErrTruncated)
	}
	u := &Update{}
	var err error
	u.Withdrawn, err = refDecodeNLRIList(buf[off:off+wlen], AFIIPv4)
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
	u.Attrs, err = refDecodeAttributes(buf[off:off+alen], asSize)
	if err != nil {
		return nil, err
	}
	off += alen
	u.NLRI, err = refDecodeNLRIList(buf[off:], AFIIPv4)
	if err != nil {
		return nil, err
	}
	return u, nil
}

func refDecodeASPath(buf []byte, asSize int) (ASPath, error) {
	var path ASPath
	off := 0
	for off < len(buf) {
		if len(buf)-off < 2 {
			return ASPath{}, wireErr("as-path", off, ErrTruncated)
		}
		segType := buf[off]
		count := int(buf[off+1])
		off += 2
		need := count * asSize
		if len(buf)-off < need {
			return ASPath{}, wireErr("as-path", off, ErrTruncated)
		}
		seg := PathSegment{Type: segType, ASNs: make([]uint32, count)}
		for i := 0; i < count; i++ {
			if asSize == 2 {
				seg.ASNs[i] = uint32(binary.BigEndian.Uint16(buf[off:]))
			} else {
				seg.ASNs[i] = binary.BigEndian.Uint32(buf[off:])
			}
			off += asSize
		}
		path.Segments = append(path.Segments, seg)
	}
	return path, nil
}

func refDecodeCommunities(buf []byte) (Communities, error) {
	if len(buf)%4 != 0 {
		return nil, wireErr("communities", 0, ErrBadLength)
	}
	out := make(Communities, 0, len(buf)/4)
	for off := 0; off < len(buf); off += 4 {
		out = append(out, Community(binary.BigEndian.Uint32(buf[off:])))
	}
	return out, nil
}

func refDecodeNLRIList(buf []byte, afi uint16) ([]netip.Prefix, error) {
	var out []netip.Prefix
	off := 0
	for off < len(buf) {
		p, n, err := DecodeNLRI(buf[off:], afi)
		if err != nil {
			if we, ok := err.(*WireError); ok {
				we.Offset += off
			}
			return nil, err
		}
		out = append(out, p)
		off += n
	}
	return out, nil
}
