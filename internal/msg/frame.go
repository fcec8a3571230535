package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Datagram framing for the UDP transport backend. Every datagram carries
// exactly one frame:
//
//	offset  size  field
//	0       2     magic "LF"
//	2       1     frame version (FrameVersion)
//	3       1     flags (bit 0: reliable-class traffic; bit 1: fragment)
//	4       2     payload length, big-endian
//	6       4     CRC-32 (IEEE) of the payload
//	10      —     payload
//
// A plain frame's payload is a message count (2 bytes) and then that many
// entries, each a 2-byte length and one codec message (see Encode), all from
// one sender. A fragment frame's payload is a fragment header and a slice of
// one message's encoding (see AppendFragment).
//
// The magic and version reject foreign traffic on a reused port, the length
// rejects truncated or concatenated reads, and the checksum rejects
// corruption that UDP's 16-bit checksum missed. DecodeFrame and ParseBatch
// never panic on arbitrary input; anything malformed yields an error.

// Frame constants. Part of the wire format. Since version 4 a frame carries
// a list of messages, so a node's sends to one peer during one callback
// share a header, a checksum and a syscall; version 5 adds Handoff. A daemon
// speaking an older version is rejected loudly (ErrBadVersion) instead of
// having every frame die a silent codec death mid-deployment.
const (
	frameMagic0  = 'L'
	frameMagic1  = 'F'
	FrameVersion = 5
	// FrameHeaderSize is the number of bytes preceding the payload.
	FrameHeaderSize = 10
	// MaxFramePayload is the largest payload that fits a single IPv4 UDP
	// datagram alongside the frame header.
	MaxFramePayload = 65507 - FrameHeaderSize
	// CountSize is the message count ahead of a plain frame's entries, and
	// EntryHeaderSize the length ahead of each entry.
	CountSize       = 2
	EntryHeaderSize = 2
)

// Frame flags.
const (
	// FlagReliable marks traffic the protocol would send over a reliable
	// transport (audits); the UDP backend still ships it as a datagram but
	// keeps the class visible on the wire.
	FlagReliable = 0x01
	// FlagFragment marks a frame carrying one fragment of an encoded
	// message too large for a single datagram, prefixed by a fragment
	// header (see AppendFragment). The transport reassembles fragments
	// before decoding.
	FlagFragment = 0x02
)

// FragmentHeaderSize is the size of the fragment header inside a
// FlagFragment frame payload: message id (4), fragment index (2), fragment
// count (2).
const FragmentHeaderSize = 8

// MaxFragmentBody is the message-byte capacity of one fragment frame.
const MaxFragmentBody = MaxFramePayload - FragmentHeaderSize

// Framing errors.
var (
	ErrFrameTooShort   = errors.New("msg: frame shorter than header")
	ErrBadMagic        = errors.New("msg: bad frame magic")
	ErrBadVersion      = errors.New("msg: unsupported frame version")
	ErrFrameLength     = errors.New("msg: frame length mismatch")
	ErrBadChecksum     = errors.New("msg: frame checksum mismatch")
	ErrPayloadTooLarge = errors.New("msg: payload exceeds max datagram size")
	ErrBadFragment     = errors.New("msg: malformed fragment")
	ErrBadBatch        = errors.New("msg: malformed message list")
)

// minEntrySize is the shortest encoding an entry may hold: a kind and a
// sender, which every message starts with.
const minEntrySize = 5

// AppendFrame appends a plain frame carrying m alone to dst and returns the
// extended slice. Passing a reused dst[:0] avoids per-message allocations
// on the send path. FlagFragment is rejected: a complete message is by
// definition not a fragment (use AppendFragment to build fragment frames).
func AppendFrame(dst []byte, m Message, flags uint8) ([]byte, error) {
	if flags&FlagFragment != 0 {
		return nil, fmt.Errorf("%w: FlagFragment on a complete message", ErrBadFragment)
	}
	start := len(dst)
	out, err := appendMessage(StartFrame(dst, flags), start, m)
	if err != nil {
		return nil, err
	}
	SealFrame(out[start:])
	return out, nil
}

// StartFrame appends the header and an empty message list of a plain frame
// to dst. AppendMessage adds messages to the frame, and SealFrame fills in
// its length and checksum once the last one is in.
func StartFrame(dst []byte, flags uint8) []byte {
	return append(dst, frameMagic0, frameMagic1, FrameVersion, flags, 0, 0, 0, 0, 0, 0, 0, 0)
}

// AppendMessage appends m as the next entry of frame, a plain frame begun
// by StartFrame (frame[0] is its first byte), and returns the extended
// slice. If the entry would take the payload past MaxFramePayload it
// returns ErrPayloadTooLarge and leaves frame as it was. The payload bound
// also bounds the count: every entry takes at least 7 bytes.
func AppendMessage(frame []byte, m Message) ([]byte, error) {
	return appendMessage(frame, 0, m)
}

// appendMessage is AppendMessage for a frame that starts at buf[start].
func appendMessage(buf []byte, start int, m Message) ([]byte, error) {
	at := len(buf)
	out, err := AppendEncode(append(buf, 0, 0), m)
	if err != nil {
		return nil, err
	}
	if len(out)-start-FrameHeaderSize > MaxFramePayload {
		return nil, fmt.Errorf("%w: %T is %d bytes", ErrPayloadTooLarge, m, len(out)-at-EntryHeaderSize)
	}
	binary.BigEndian.PutUint16(out[at:], uint16(len(out)-at-EntryHeaderSize))
	count := out[start+FrameHeaderSize:]
	binary.BigEndian.PutUint16(count, binary.BigEndian.Uint16(count)+1)
	return out, nil
}

// SealFrame writes the payload length and checksum of a plain frame built
// with StartFrame and AppendMessage.
func SealFrame(frame []byte) {
	payload := frame[FrameHeaderSize:]
	binary.BigEndian.PutUint16(frame[4:], uint16(len(payload)))
	binary.BigEndian.PutUint32(frame[6:], crc32.ChecksumIEEE(payload))
}

// Batch walks the entries of a plain frame's payload that ParseBatch has
// checked whole. It holds no memory of its own.
type Batch struct {
	rest []byte
	// Sender is the one sender of every message in the frame.
	Sender NodeID
	// Len is the number of messages.
	Len int
}

// ParseBatch checks a plain frame's payload whole before anything in it is
// decoded: a count of at least one, exactly that many entries and not a
// byte after them, every entry at least a kind and a sender long and inside
// the payload, and every entry from the same sender. Any of these wrong
// drops the whole datagram: a peer that lies about one entry has said
// nothing about the others worth believing. It allocates nothing.
func ParseBatch(payload []byte) (Batch, error) {
	if len(payload) < CountSize {
		return Batch{}, ErrBadBatch
	}
	n := int(binary.BigEndian.Uint16(payload))
	rest := payload[CountSize:]
	var sender []byte
	for i := 0; i < n; i++ {
		if len(rest) < EntryHeaderSize {
			return Batch{}, ErrBadBatch
		}
		size := int(binary.BigEndian.Uint16(rest))
		if size < minEntrySize || size > len(rest)-EntryHeaderSize {
			return Batch{}, ErrBadBatch
		}
		entry := rest[EntryHeaderSize : EntryHeaderSize+size]
		if sender == nil {
			sender = entry[1:minEntrySize]
		} else if string(entry[1:minEntrySize]) != string(sender) {
			return Batch{}, ErrBadBatch
		}
		rest = rest[EntryHeaderSize+size:]
	}
	if n == 0 || len(rest) != 0 {
		return Batch{}, ErrBadBatch
	}
	return Batch{rest: payload[CountSize:], Sender: NodeID(binary.BigEndian.Uint32(sender)), Len: n}, nil
}

// Next returns the next message's encoding, aliasing the payload, or nil
// after the last one.
func (b *Batch) Next() []byte {
	if len(b.rest) == 0 {
		return nil
	}
	size := int(binary.BigEndian.Uint16(b.rest))
	entry := b.rest[EntryHeaderSize : EntryHeaderSize+size]
	b.rest = b.rest[EntryHeaderSize+size:]
	return entry
}

// appendHeader appends the header of a frame whose payload is n bytes with
// checksum sum.
func appendHeader(dst []byte, flags uint8, n int, sum uint32) []byte {
	dst = append(dst, frameMagic0, frameMagic1, FrameVersion, flags)
	dst = binary.BigEndian.AppendUint16(dst, uint16(n))
	return binary.BigEndian.AppendUint32(dst, sum)
}

// RawFrame validates the frame header and checksum of one datagram and
// returns its payload (aliasing b) and flags without decoding the message.
// The transport's receive path uses it so fragment frames can be reassembled
// before the codec runs.
func RawFrame(b []byte) ([]byte, uint8, error) {
	if len(b) < FrameHeaderSize {
		return nil, 0, ErrFrameTooShort
	}
	if b[0] != frameMagic0 || b[1] != frameMagic1 {
		return nil, 0, ErrBadMagic
	}
	if b[2] != FrameVersion {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadVersion, b[2])
	}
	flags := b[3]
	payload := b[FrameHeaderSize:]
	if int(binary.BigEndian.Uint16(b[4:])) != len(payload) {
		return nil, 0, fmt.Errorf("%w: header says %d, datagram carries %d",
			ErrFrameLength, binary.BigEndian.Uint16(b[4:]), len(payload))
	}
	if binary.BigEndian.Uint32(b[6:]) != crc32.ChecksumIEEE(payload) {
		return nil, 0, ErrBadChecksum
	}
	return payload, flags, nil
}

// AppendFragment appends one fragment frame to dst: a FlagFragment frame
// whose payload is the fragment header (msgID, index, count) followed by
// body — a slice of a complete message encoding. flags are OR'd with
// FlagFragment. The checksum runs over the fragment header and then body,
// so body is copied once, into dst.
func AppendFragment(dst []byte, msgID uint32, index, count uint16, body []byte, flags uint8) ([]byte, error) {
	if count == 0 || index >= count || len(body) > MaxFragmentBody {
		return nil, ErrBadFragment
	}
	var hdr [FragmentHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:], msgID)
	binary.BigEndian.PutUint16(hdr[4:], index)
	binary.BigEndian.PutUint16(hdr[6:], count)
	sum := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, body)
	dst = appendHeader(dst, flags|FlagFragment, len(hdr)+len(body), sum)
	dst = append(dst, hdr[:]...)
	return append(dst, body...), nil
}

// ParseFragment splits a FlagFragment frame payload into its fragment
// header and body. The body aliases payload.
func ParseFragment(payload []byte) (msgID uint32, index, count uint16, body []byte, err error) {
	if len(payload) < FragmentHeaderSize {
		return 0, 0, 0, nil, ErrBadFragment
	}
	msgID = binary.BigEndian.Uint32(payload[0:])
	index = binary.BigEndian.Uint16(payload[4:])
	count = binary.BigEndian.Uint16(payload[6:])
	if count == 0 || index >= count {
		return 0, 0, 0, nil, ErrBadFragment
	}
	return msgID, index, count, payload[FragmentHeaderSize:], nil
}

// EncodeFrame frames m into a fresh byte slice ready to ship as one UDP
// datagram.
//
//lint:allow no-orphan FuzzDecode's seed corpus and the frame round-trip tests build their datagrams with it
func EncodeFrame(m Message, flags uint8) ([]byte, error) {
	return AppendFrame(make([]byte, 0, FrameHeaderSize+64), m, flags)
}

// DecodeFrame parses one datagram previously produced by AppendFrame,
// returning its one message and the frame flags. A frame carrying several
// messages is ErrBadBatch here — the transport walks those with ParseBatch
// — and a fragment frame is ErrBadFragment: a single fragment is not a
// decodable message; the transport reassembles via RawFrame/ParseFragment.
func DecodeFrame(b []byte) (Message, uint8, error) {
	payload, flags, err := RawFrame(b)
	if err != nil {
		return nil, 0, err
	}
	if flags&FlagFragment != 0 {
		return nil, 0, fmt.Errorf("%w: fragment frame outside reassembly", ErrBadFragment)
	}
	batch, err := ParseBatch(payload)
	if err != nil {
		return nil, 0, err
	}
	if batch.Len != 1 {
		return nil, 0, fmt.Errorf("%w: %d messages where one was expected", ErrBadBatch, batch.Len)
	}
	m, err := Decode(batch.Next())
	if err != nil {
		return nil, 0, err
	}
	return m, flags, nil
}
