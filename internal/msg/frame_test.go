package msg

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

func TestFrameRoundTripAllKinds(t *testing.T) {
	for _, m := range allMessages() {
		for _, flags := range []uint8{0, FlagReliable} {
			b, err := EncodeFrame(m, flags)
			if err != nil {
				t.Fatalf("EncodeFrame(%T): %v", m, err)
			}
			got, gotFlags, err := DecodeFrame(b)
			if err != nil {
				t.Fatalf("DecodeFrame(%T): %v", m, err)
			}
			if gotFlags != flags {
				t.Errorf("%T: flags %d, want %d", m, gotFlags, flags)
			}
			if !reflect.DeepEqual(m, got) {
				t.Errorf("frame round trip mismatch for %T:\n  sent %+v\n  got  %+v", m, m, got)
			}
		}
	}
}

func TestAppendFrameReusesBuffer(t *testing.T) {
	m := &Propose{Sender: 1, Period: 9, Chunks: []ChunkID{3, 7, 9}}
	buf, err := AppendFrame(nil, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	cap0 := cap(buf)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendFrame(buf[:0], m, 0)
		if err != nil {
			t.Fatal(err)
		}
	})
	if cap(buf) != cap0 {
		t.Fatalf("buffer reallocated: cap %d → %d", cap0, cap(buf))
	}
	if allocs != 0 {
		t.Errorf("AppendFrame with a reused buffer allocates %.0f times per message, want 0", allocs)
	}
}

func TestDecodeFrameRejectsCorruption(t *testing.T) {
	valid, err := EncodeFrame(&Blame{Sender: 8, Target: 5, Value: 3.5, Reason: ReasonPartialServe}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		fn(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrFrameTooShort},
		{"short", valid[:FrameHeaderSize-1], ErrFrameTooShort},
		{"magic", mutate(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"version", mutate(func(b []byte) { b[2] = 99 }), ErrBadVersion},
		{"length-over", mutate(func(b []byte) { binary.BigEndian.PutUint16(b[4:], 9999) }), ErrFrameLength},
		{"length-under", mutate(func(b []byte) { binary.BigEndian.PutUint16(b[4:], 1) }), ErrFrameLength},
		{"checksum", mutate(func(b []byte) { b[len(b)-1] ^= 0x40 }), ErrBadChecksum},
		{"truncated-payload", valid[:len(valid)-2], ErrFrameLength},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeFrameRejectsBadPayload(t *testing.T) {
	// A well-formed frame around a truncated message must surface the codec
	// error, not panic.
	b, err := AppendFrame(nil, &ScoreReq{Sender: 1, Target: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cut := b[:len(b)-1]
	binary.BigEndian.PutUint16(cut[4:], uint16(len(cut)-FrameHeaderSize))
	// Recompute the checksum so only the payload is wrong.
	binary.BigEndian.PutUint32(cut[6:], crc32.ChecksumIEEE(cut[FrameHeaderSize:]))
	if _, _, err := DecodeFrame(cut); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestAppendFrameRejectsFlagFragment(t *testing.T) {
	if _, err := AppendFrame(nil, &ScoreReq{Sender: 1, Target: 2}, FlagFragment); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("err = %v, want ErrBadFragment", err)
	}
}

func TestFragmentRoundTrip(t *testing.T) {
	// Split a message across fragment frames the way the transport does and
	// reassemble by hand.
	m := &Serve{Sender: 1, Period: 2, Chunk: 3, PayloadSize: 100}
	body, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 7 // force several fragments from a small message
	count := (len(body) + chunk - 1) / chunk
	var frames [][]byte
	for i := 0; i < count; i++ {
		end := (i + 1) * chunk
		if end > len(body) {
			end = len(body)
		}
		f, err := AppendFragment(nil, 42, uint16(i), uint16(count), body[i*chunk:end], FlagReliable)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	var reassembled []byte
	for i, f := range frames {
		// Fragment frames must be invisible to DecodeFrame.
		if _, _, err := DecodeFrame(f); !errors.Is(err, ErrBadFragment) {
			t.Fatalf("DecodeFrame(fragment) err = %v, want ErrBadFragment", err)
		}
		payload, flags, err := RawFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if flags != FlagReliable|FlagFragment {
			t.Fatalf("flags = %#x, want %#x", flags, FlagReliable|FlagFragment)
		}
		msgID, index, n, part, err := ParseFragment(payload)
		if err != nil {
			t.Fatal(err)
		}
		if msgID != 42 || index != uint16(i) || n != uint16(count) {
			t.Fatalf("fragment header = (%d, %d, %d), want (42, %d, %d)", msgID, index, n, i, count)
		}
		reassembled = append(reassembled, part...)
	}
	got, err := Decode(reassembled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("reassembled mismatch: %+v vs %+v", m, got)
	}
}

func TestFragmentRejectsMalformed(t *testing.T) {
	if _, err := AppendFragment(nil, 1, 0, 0, []byte{1}, 0); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("count 0: err = %v, want ErrBadFragment", err)
	}
	if _, err := AppendFragment(nil, 1, 2, 2, []byte{1}, 0); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("index >= count: err = %v, want ErrBadFragment", err)
	}
	if _, err := AppendFragment(nil, 1, 0, 1, make([]byte, MaxFragmentBody+1), 0); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("oversize body: err = %v, want ErrBadFragment", err)
	}
	if _, _, _, _, err := ParseFragment([]byte{1, 2, 3}); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("short payload: err = %v, want ErrBadFragment", err)
	}
	if _, _, _, _, err := ParseFragment([]byte{0, 0, 0, 1, 0, 5, 0, 2}); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("index >= count: err = %v, want ErrBadFragment", err)
	}
}

func TestRawFrameRoundTrip(t *testing.T) {
	b := append(appendHeader(nil, FlagReliable, 5, crc32.ChecksumIEEE([]byte("hello"))), "hello"...)
	payload, flags, err := RawFrame(b)
	if err != nil || string(payload) != "hello" || flags != FlagReliable {
		t.Fatalf("RawFrame = (%q, %#x, %v)", payload, flags, err)
	}
}

func TestFramePayloadCarryingServe(t *testing.T) {
	// A full-size video chunk rides one datagram with room to spare.
	payload := make([]byte, 1316)
	for i := range payload {
		payload[i] = byte(i)
	}
	m := &Serve{Sender: 1, Period: 2, Chunk: 3, PayloadSize: len(payload), Hash: 7, Payload: payload}
	b, err := EncodeFrame(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("payload-carrying serve did not survive the frame round trip")
	}
}

func TestAppendFrameRejectsOversizedPayload(t *testing.T) {
	huge := &AuditResp{Sender: 1}
	for i := 0; i < 3000; i++ {
		huge.Proposals = append(huge.Proposals, ProposalRecord{
			Period: Period(i), Partner: 2, Chunks: []ChunkID{1, 2, 3, 4},
		})
	}
	if _, err := AppendFrame(nil, huge, 0); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("err = %v, want ErrPayloadTooLarge", err)
	}
}
