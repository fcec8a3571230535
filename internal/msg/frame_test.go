package msg

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"runtime"
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

// TestDecodeFrameRejectsVersion4: a daemon of the version before Handoff
// speaks frame version 4; its frames, a Handoff's included, are refused
// whole with ErrBadVersion before any entry is looked at.
func TestDecodeFrameRejectsVersion4(t *testing.T) {
	for _, m := range []Message{&ScoreReq{Sender: 1, Target: 2}, &Handoff{Sender: 1, Target: 2, TotalBlame: 3, JoinPeriod: 4}} {
		b, err := EncodeFrame(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		b[2] = 4
		if _, _, err := DecodeFrame(b); !errors.Is(err, ErrBadVersion) {
			t.Errorf("a version-4 frame of a %s: err %v, want ErrBadVersion", m.Kind(), err)
		}
		if _, _, err := RawFrame(b); !errors.Is(err, ErrBadVersion) {
			t.Errorf("RawFrame of a version-4 frame of a %s: err %v, want ErrBadVersion", m.Kind(), err)
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
	entry := cut[FrameHeaderSize+CountSize:]
	binary.BigEndian.PutUint16(entry, uint16(len(entry)-EntryHeaderSize))
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

// resent returns a copy of m as sent by sender.
func resent(t testing.TB, m Message, sender NodeID) Message {
	t.Helper()
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(b[1:], uint32(sender))
	out, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// batchFrame frames ms, in order, as one plain frame.
func batchFrame(t testing.TB, flags uint8, ms ...Message) []byte {
	t.Helper()
	frame := StartFrame(nil, flags)
	for _, m := range ms {
		var err error
		if frame, err = AppendMessage(frame, m); err != nil {
			t.Fatal(err)
		}
	}
	SealFrame(frame)
	return frame
}

// TestBatchRoundTrip: one frame carrying a message of every kind from one
// sender gives them all back, in order, and is exactly the v4 layout:
// header, count, then a length and an encoding per message.
func TestBatchRoundTrip(t *testing.T) {
	var sent []Message
	want := []byte{0, 0}
	for _, m := range allMessages() {
		m = resent(t, m, 9)
		sent = append(sent, m)
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		want = binary.BigEndian.AppendUint16(want, uint16(len(b)))
		want = append(want, b...)
	}
	binary.BigEndian.PutUint16(want, uint16(len(sent)))
	frame := batchFrame(t, FlagReliable, sent...)
	payload, flags, err := RawFrame(frame)
	if err != nil || flags != FlagReliable {
		t.Fatalf("RawFrame: flags %#x, err %v", flags, err)
	}
	if string(payload) != string(want) {
		t.Fatalf("payload is not count | (length | encoding)…:\n got % x\nwant % x", payload, want)
	}
	batch, err := ParseBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Sender != 9 || batch.Len != len(sent) {
		t.Fatalf("batch of %d from %d, want %d from 9", batch.Len, batch.Sender, len(sent))
	}
	var dec Decoder
	for i, m := range sent {
		got, err := dec.Decode(batch.Next())
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("entry %d: sent %+v, got %+v", i, m, got)
		}
	}
	if e := batch.Next(); e != nil {
		t.Fatalf("an entry past the last: % x", e)
	}
	if _, _, err := DecodeFrame(frame); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("DecodeFrame of a %d-message frame: err %v, want ErrBadBatch", len(sent), err)
	}
}

// TestAppendMessageStopsAtOneDatagram: serves fill a frame up to
// MaxFramePayload; the one that would pass it is refused and leaves the
// frame as it was, ready to seal.
func TestAppendMessageStopsAtOneDatagram(t *testing.T) {
	serve := &Serve{Sender: 1, Chunk: 3, PayloadSize: 1316, Payload: make([]byte, 1316)}
	frame := StartFrame(nil, 0)
	n := 0
	for {
		next, err := AppendMessage(frame, serve)
		if errors.Is(err, ErrPayloadTooLarge) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frame, n = next, n+1
	}
	if len(frame) > FrameHeaderSize+MaxFramePayload || len(frame)+EntryHeaderSize+1345 <= FrameHeaderSize+MaxFramePayload {
		t.Fatalf("%d serves make a %d-byte frame; the datagram holds %d", n, len(frame), FrameHeaderSize+MaxFramePayload)
	}
	SealFrame(frame)
	payload, _, err := RawFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if batch, err := ParseBatch(payload); err != nil || batch.Len != n {
		t.Fatalf("the refused serve changed the frame: %d entries (err %v), want %d", batch.Len, err, n)
	}
	huge := &AuditResp{Sender: 1, Proposals: make([]ProposalRecord, (MaxFramePayload-CountSize-EntryHeaderSize)/10)}
	if _, err := AppendMessage(StartFrame(nil, 0), huge); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("a message longer than one frame's payload holds: err %v, want ErrPayloadTooLarge", err)
	}
}

// TestHostileBatches: a message list that lies about itself drops the whole
// datagram, checked before anything in it is decoded, and costs at most
// 1 KB per parse however large the lie: a count that disagrees with the
// entries either way, a length running past the payload, a zero-length or
// a sender-less entry, and a datagram that mixes senders.
func TestHostileBatches(t *testing.T) {
	entry := func(b []byte) []byte { return append(binary.BigEndian.AppendUint16(nil, uint16(len(b))), b...) }
	encode := func(m Message) []byte {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := entry(encode(&ScoreReq{Sender: 7, Target: 2}))
	two := entry(encode(&Blame{Sender: 7, Target: 2, Value: 1}))
	other := entry(encode(&ScoreReq{Sender: 8, Target: 2}))
	list := func(count uint16, entries ...[]byte) []byte {
		b := binary.BigEndian.AppendUint16(nil, count)
		for _, e := range entries {
			b = append(b, e...)
		}
		return b
	}
	cases := map[string][]byte{
		"empty payload":          {},
		"half a count":           {1},
		"count of zero":          list(0),
		"count past the entries": list(3, one, two),
		"count bomb":             list(0xFFFF, one),
		"count short of entries": list(1, one, two),
		"length past payload":    list(2, one, two[:len(two)-1]),
		"length bomb":            list(1, []byte{0xFF, 0xFF, 1, 2, 3, 4, 5}),
		"zero-length entry":      list(2, one, []byte{0, 0}),
		"sender-less entry":      list(1, entry([]byte{byte(KindScoreReq), 0, 0, 7})),
		"half a length":          list(2, one, []byte{0}),
		"mixed senders":          list(3, one, two, other),
	}
	for name, payload := range cases {
		frame := append(appendHeader(nil, 0, len(payload), crc32.ChecksumIEEE(payload)), payload...)
		if _, _, err := DecodeFrame(frame); !errors.Is(err, ErrBadBatch) {
			t.Errorf("%s: DecodeFrame err %v, want ErrBadBatch", name, err)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := ParseBatch(payload); !errors.Is(err, ErrBadBatch) {
				t.Fatalf("%s: ParseBatch err %v, want ErrBadBatch", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1<<10 {
			t.Errorf("%s: %d bytes allocated per parse, want ≤ 1 KB", name, per)
		}
	}
	if b, err := ParseBatch(list(2, one, two)); err != nil || b.Len != 2 || b.Sender != 7 {
		t.Fatalf("the honest list: %+v, %v", b, err)
	}
}
