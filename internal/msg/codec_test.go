package msg

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	return []Message{
		&Propose{Sender: 1, Period: 9, Chunks: []ChunkID{3, 7, 9}, Origins: []NodeID{4, 5, 6}},
		&Propose{Sender: 2, Period: 0, Chunks: nil, Origins: nil},
		&Request{Sender: 3, Period: 9, Chunks: []ChunkID{3, 9}},
		&Serve{Sender: 4, Period: 9, Chunk: 3, PayloadSize: 1316},
		&Serve{Sender: 4, Period: 9, Chunk: 5, PayloadSize: 6,
			Hash: 0xdeadbeefcafef00d, Payload: []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x0d}},
		&Ack{Sender: 5, Period: 10, Chunks: []ChunkID{3}, Partners: []NodeID{6, 7}},
		&Confirm{Sender: 6, Suspect: 5, Period: 10, Chunks: []ChunkID{3}},
		&ConfirmResp{Sender: 7, Suspect: 5, Period: 10, Confirmed: true},
		&ConfirmResp{Sender: 7, Suspect: 5, Period: 10, Confirmed: false},
		&Blame{Sender: 8, Target: 5, Value: 3.5, Reason: ReasonPartialServe},
		&ScoreReq{Sender: 9, Target: 5},
		&ScoreResp{Sender: 10, Target: 5, Score: -12.25, Expelled: true, Tracked: true},
		&ScoreResp{Sender: 10, Target: 6, Tracked: false},
		&Expel{Sender: 11, Target: 5, Reason: ReasonAuditEntropy},
		&AuditReq{Sender: 12, Horizon: 25 * time.Second},
		&AuditResp{Sender: 13, Proposals: []ProposalRecord{
			{Period: 1, Partner: 2, Chunks: []ChunkID{10, 11}},
			{Period: 2, Partner: 3, Chunks: nil},
		}, Serves: []ServeRecord{
			{Period: 1, Server: 4, Chunks: []ChunkID{10}},
		}},
		&AuditResp{Sender: 14},
		&AuditPoll{Sender: 15, Suspect: 5, Period: 2, Chunks: []ChunkID{1, 2, 3}},
		&AuditPollResp{Sender: 16, Suspect: 5, Period: 2, Confirmed: true, Askers: []NodeID{1, 9}},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, m := range allMessages() {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%T): %v", m, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%T): %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("round trip mismatch for %T:\n  sent %+v\n  got  %+v", m, m, got)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	for _, m := range allMessages() {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := Decode(b[:cut]); err == nil {
				t.Errorf("%T: decoding %d/%d bytes succeeded, want error", m, cut, len(b))
				break
			}
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	b, err := Encode(&ScoreReq{Sender: 1, Target: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(b, 0xFF)); err == nil {
		t.Fatal("decoding with trailing bytes succeeded, want error")
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	_, err := Decode([]byte{0xEE, 0, 0, 0, 1})
	if !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
}

func TestDecodeEmpty(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Decode(nil) err = %v, want ErrTruncated", err)
	}
}

func TestEncodeTooLongList(t *testing.T) {
	chunks := make([]ChunkID, maxListLen+1)
	_, err := Encode(&Request{Sender: 1, Chunks: chunks})
	if !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestBlameValuePrecision(t *testing.T) {
	for _, v := range []float64{0, 1, -9.75, 12.0 / 7.0, math.MaxFloat64} {
		b, err := Encode(&Blame{Sender: 1, Target: 2, Value: v})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.(*Blame).Value != v {
			t.Errorf("blame value %v did not survive the round trip: %v", v, got.(*Blame).Value)
		}
	}
}

func TestProposeQuickRoundTrip(t *testing.T) {
	f := func(sender uint32, period uint32, chunks []uint32, origins []uint8) bool {
		m := &Propose{Sender: NodeID(sender), Period: Period(period)}
		for _, c := range chunks {
			m.Chunks = append(m.Chunks, ChunkID(c))
		}
		for _, o := range origins {
			m.Origins = append(m.Origins, NodeID(o))
		}
		b, err := Encode(m)
		if err != nil {
			return len(m.Chunks) > maxListLen || len(m.Origins) > maxListLen
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWireSizeMatchesScale(t *testing.T) {
	// WireSize is a model, not the codec's exact output, but it must grow
	// with content and dominate for serve payloads.
	small := (&Propose{Sender: 1, Chunks: []ChunkID{1}}).WireSize()
	big := (&Propose{Sender: 1, Chunks: make([]ChunkID, 100)}).WireSize()
	if big-small != 99*4 {
		t.Fatalf("propose wire size growth = %d, want %d", big-small, 99*4)
	}
	serve := &Serve{Sender: 1, Chunk: 1, PayloadSize: 1316}
	if serve.WireSize() < 1316 {
		t.Fatal("serve wire size must include payload")
	}
}

func TestServePayloadBounds(t *testing.T) {
	cases := []*Serve{
		{Sender: 1, PayloadSize: -1},
		{Sender: 1, PayloadSize: MaxChunkPayload + 1},
		{Sender: 1, PayloadSize: 10, Payload: make([]byte, MaxChunkPayload+1)},
	}
	for i, m := range cases {
		if _, err := Encode(m); !errors.Is(err, ErrPayloadBounds) {
			t.Errorf("case %d: err = %v, want ErrPayloadBounds", i, err)
		}
	}
	// A claimed payload length past the bound must error at decode too,
	// before any allocation.
	b, err := Encode(&Serve{Sender: 1, Period: 2, Chunk: 3, PayloadSize: 4, Payload: []byte{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	bomb := append([]byte(nil), b...)
	// The payload length prefix is the last u32 before the payload bytes.
	copy(bomb[len(bomb)-8:len(bomb)-4], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Decode(bomb); !errors.Is(err, ErrPayloadBounds) {
		t.Fatalf("decode of oversize payload length: err = %v, want ErrPayloadBounds", err)
	}
}

func TestDecodeServeAliasesInput(t *testing.T) {
	// The hot receive path depends on decode not copying payload bytes; the
	// transport clones once after reassembly instead.
	payload := []byte{9, 8, 7, 6, 5}
	b, err := Encode(&Serve{Sender: 1, Period: 2, Chunk: 3, PayloadSize: 5, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Serve).Payload
	if !reflect.DeepEqual(got, payload) {
		t.Fatalf("payload = %v, want %v", got, payload)
	}
	if &got[0] != &b[len(b)-5] {
		t.Fatal("decoded payload does not alias the input buffer")
	}
}

// Every list a decoded message carries is the message's own. The UDP receive
// loop reads the next datagram into the same buffer, while nodes keep these
// lists: history.Log records Propose.Chunks by reference for nh periods, and
// the verifier's open checks hold Request.Chunks, Ack.Chunks and Ack.Partners.
// Serve.Payload alone aliases the buffer, on purpose (above); the transport
// clones that one.
func TestDecodedListsDoNotAliasInput(t *testing.T) {
	for _, m := range allMessages() {
		if s, ok := m.(*Serve); ok && s.Payload != nil {
			continue
		}
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%T): %v", m, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%T): %v", m, err)
		}
		for i := range b {
			b[i] ^= 0xFF
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T changed when the buffer it was decoded from was overwritten:\n  sent %+v\n  now  %+v", m, m, got)
		}
	}
}

func TestServeEmptyPayloadCanonical(t *testing.T) {
	// A zero-length payload decodes as nil, so modelled-only serves stay the
	// canonical form and encode is a fixed point either way.
	b, err := Encode(&Serve{Sender: 1, Period: 2, Chunk: 3, PayloadSize: 1316})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.(*Serve).Payload != nil {
		t.Fatal("empty payload should decode as nil")
	}
	b2, err := Encode(m)
	if err != nil || !reflect.DeepEqual(b, b2) {
		t.Fatalf("modelled serve is not an encode fixed point (err %v)", err)
	}
}

func TestKindClassification(t *testing.T) {
	for _, m := range allMessages() {
		isProto := m.Kind() == KindPropose || m.Kind() == KindRequest || m.Kind() == KindServe
		if m.Kind().IsVerification() == isProto {
			t.Errorf("%v: IsVerification() = %v inconsistent", m.Kind(), m.Kind().IsVerification())
		}
	}
}

func TestKindAndReasonStrings(t *testing.T) {
	for _, m := range allMessages() {
		if m.Kind().String() == "unknown" {
			t.Errorf("kind %d has no name", m.Kind())
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("unknown kind should stringify as unknown")
	}
	for r := ReasonUnknown; r <= ReasonInvalidPayload; r++ {
		if r.String() == "" {
			t.Errorf("reason %d has empty name", r)
		}
	}
	if ReasonPartialServe.String() != "partial-serve" {
		t.Fatalf("ReasonPartialServe = %q", ReasonPartialServe.String())
	}
}

func TestEncodedSizeCloseToModel(t *testing.T) {
	// The model includes a 28-byte transport header the codec does not
	// emit; otherwise the two should be within a few bytes of each other
	// for non-payload messages.
	for _, m := range allMessages() {
		if m.Kind() == KindServe {
			continue // model includes payload bytes, codec does not
		}
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		model := m.WireSize() - 28
		if diff := model - len(b); diff < -4 || diff > 12 {
			t.Errorf("%T: model %d vs encoded %d (diff %d)", m, model, len(b), diff)
		}
	}
}
