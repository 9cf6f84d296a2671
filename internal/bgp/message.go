package bgp

import (
	"encoding/binary"
	"net/netip"
)

// Update is a decoded BGP UPDATE message (RFC 4271 §4.3). IPv6
// reachability travels in the MPReach/MPUnreach attributes rather than
// the top-level NLRI fields, exactly as on the wire.
type Update struct {
	Withdrawn []netip.Prefix
	Attrs     PathAttributes
	NLRI      []netip.Prefix
}

// Announced returns every prefix announced by the update across both
// the classic NLRI field and any MP_REACH_NLRI attribute.
func (u *Update) Announced() []netip.Prefix {
	if u.Attrs.MPReach == nil {
		return u.NLRI
	}
	out := make([]netip.Prefix, 0, len(u.NLRI)+len(u.Attrs.MPReach.NLRI))
	out = append(out, u.NLRI...)
	out = append(out, u.Attrs.MPReach.NLRI...)
	return out
}

// AllWithdrawn returns every prefix withdrawn by the update across
// both the classic field and any MP_UNREACH_NLRI attribute.
func (u *Update) AllWithdrawn() []netip.Prefix {
	if u.Attrs.MPUnreach == nil {
		return u.Withdrawn
	}
	out := make([]netip.Prefix, 0, len(u.Withdrawn)+len(u.Attrs.MPUnreach.NLRI))
	out = append(out, u.Withdrawn...)
	out = append(out, u.Attrs.MPUnreach.NLRI...)
	return out
}

// AppendUpdateBody appends the body encoding of u to dst.
func AppendUpdateBody(dst []byte, u *Update, asSize int) []byte {
	w := AppendNLRIList(nil, u.Withdrawn)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(w)))
	dst = append(dst, w...)
	attrs := AppendAttributes(nil, &u.Attrs, asSize)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(attrs)))
	dst = append(dst, attrs...)
	return AppendNLRIList(dst, u.NLRI)
}

// Message is a framed BGP message: type code plus undecoded body.
type Message struct {
	Type uint8
	Body []byte
}

// DecodeMessage decodes one framed BGP message from buf, validating
// the marker and length, and returns the message plus bytes consumed.
func DecodeMessage(buf []byte) (Message, int, error) {
	if len(buf) < HeaderLen {
		return Message{}, 0, wireErr("message", 0, ErrTruncated)
	}
	for i := 0; i < 16; i++ {
		if buf[i] != 0xFF {
			return Message{}, 0, wireErr("message", i, ErrBadMarker)
		}
	}
	length := int(binary.BigEndian.Uint16(buf[16:]))
	if length < HeaderLen || length > MaxMessageLen {
		return Message{}, 0, wireErr("message", 16, ErrBadLength)
	}
	if len(buf) < length {
		return Message{}, 0, wireErr("message", 18, ErrTruncated)
	}
	return Message{Type: buf[18], Body: buf[HeaderLen:length]}, length, nil
}

// AppendMessage appends a framed BGP message of the given type with
// the given body to dst.
func AppendMessage(dst []byte, typ uint8, body []byte) []byte {
	for i := 0; i < 16; i++ {
		dst = append(dst, 0xFF)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(HeaderLen+len(body)))
	dst = append(dst, typ)
	return append(dst, body...)
}

// EncodeUpdate frames a complete UPDATE message.
func EncodeUpdate(u *Update, asSize int) []byte {
	body := AppendUpdateBody(nil, u, asSize)
	return AppendMessage(nil, MsgUpdate, body)
}
