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
		&Handoff{Sender: 11, Target: 5, TotalBlame: 41.5, JoinPeriod: 3, Expelled: true, Reason: ReasonFanoutDecrease},
		&Handoff{Sender: 12, Target: 6, JoinPeriod: 40},
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

// TestDecodeRejectsNonFinite: a blame's value, a score and a handed-off
// blame total are amounts, and a NaN or an infinity in any is a peer
// reaching for a manager's arithmetic — a NaN score never compares under η,
// a −Inf blame absolves any freerider. Both decoders refuse them; every honest value of every
// kind, the extremes of the finite range included, still round-trips.
func TestDecodeRejectsNonFinite(t *testing.T) {
	var dec Decoder
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8dead00000001)} {
		for _, m := range []Message{
			&Blame{Sender: 1, Target: 2, Value: v, Reason: ReasonNoAck},
			&ScoreResp{Sender: 1, Target: 2, Score: v, Tracked: true},
			&Handoff{Sender: 1, Target: 2, TotalBlame: v, JoinPeriod: 3},
		} {
			b, err := Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(b); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Decode of a %s carrying %v: err %v, want ErrNonFinite", m.Kind(), v, err)
			}
			if _, err := dec.Decode(b); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Decoder.Decode of a %s carrying %v: err %v, want ErrNonFinite", m.Kind(), v, err)
			}
		}
	}
	finite := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64}
	msgs := allMessages()
	for _, v := range finite {
		msgs = append(msgs, &Blame{Sender: 1, Target: 2, Value: v}, &ScoreResp{Sender: 1, Target: 2, Score: v},
			&Handoff{Sender: 1, Target: 2, TotalBlame: v})
	}
	for _, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for how, decode := range map[string]func([]byte) (Message, error){"Decode": Decode, "Decoder": dec.Decode} {
			got, err := decode(b)
			if err != nil {
				t.Fatalf("%s of an honest %s: %v", how, m.Kind(), err)
			}
			if again, err := Encode(got); err != nil || string(again) != string(b) {
				t.Fatalf("%s of an honest %s did not round-trip: % x vs % x (err %v)", how, m.Kind(), again, b, err)
			}
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
	// WireSize grows with content and, for a serve, with its payload.
	small := (&Propose{Sender: 1, Chunks: []ChunkID{1}}).WireSize()
	big := (&Propose{Sender: 1, Chunks: make([]ChunkID, 100)}).WireSize()
	if big-small != 99*4 {
		t.Fatalf("propose wire size growth = %d, want %d", big-small, 99*4)
	}
	serve := &Serve{Sender: 1, Chunk: 1, PayloadSize: 1316, Payload: make([]byte, 1316)}
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

// Decode and Decoder copy a serve's payload out of the input like every
// list: the UDP receive loop reads the next datagram into the same buffer
// while the node still holds the chunk.
func TestDecodeServeCopiesPayload(t *testing.T) {
	payload := []byte{9, 8, 7, 6, 5}
	b, err := Encode(&Serve{Sender: 1, Period: 2, Chunk: 3, PayloadSize: 5, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	for name, decode := range map[string]func([]byte) (Message, error){"Decode": Decode, "Decoder": dec.Decode} {
		m, err := decode(b)
		if err != nil {
			t.Fatal(err)
		}
		got := m.(*Serve).Payload
		if !reflect.DeepEqual(got, payload) {
			t.Fatalf("%s: payload = %v, want %v", name, got, payload)
		}
		if &got[0] == &b[len(b)-5] {
			t.Fatalf("%s: decoded payload aliases the input buffer", name)
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: payload has cap %d, len %d", name, cap(got), len(got))
		}
	}
}

// Nothing a decoded message carries shares memory with the input. The UDP
// receive loop reads the next datagram into the same buffer, while nodes
// keep what they were handed: history.Log records Propose.Chunks by
// reference for nh periods, the verifier's open checks hold Request.Chunks,
// Ack.Chunks and Ack.Partners, and the chunk store keeps Serve.Payload.
func TestDecodedListsDoNotAliasInput(t *testing.T) {
	var dec Decoder
	for name, decode := range map[string]func([]byte) (Message, error){"Decode": Decode, "Decoder": dec.Decode} {
		for _, m := range allMessages() {
			b, err := Encode(m)
			if err != nil {
				t.Fatalf("Encode(%T): %v", m, err)
			}
			got, err := decode(b)
			if err != nil {
				t.Fatalf("%s(%T): %v", name, m, err)
			}
			for i := range b {
				b[i] ^= 0xFF
			}
			if !reflect.DeepEqual(m, got) {
				t.Errorf("%s: %T changed when the buffer it was decoded from was overwritten:\n  sent %+v\n  now  %+v", name, m, m, got)
			}
		}
	}
}

// TestDecoderResultsAreIndependent decodes a mixed stream, several blocks'
// worth of every hot kind, through one Decoder, then writes over and appends
// to every list and payload it returned, last message first. Each message
// must end up equal to its Decode twin treated the same way: a write that
// reached a neighbour's memory, or an append that found spare capacity,
// shows as a difference. Every returned slice must have cap == len.
func TestDecoderResultsAreIndependent(t *testing.T) {
	stream := decoderStream()
	var dec Decoder
	got, want := make([]Message, len(stream)), make([]Message, len(stream))
	for i, b := range stream {
		var err error
		if got[i], err = dec.Decode(b); err != nil {
			t.Fatalf("message %d: Decoder: %v", i, err)
		}
		if want[i], err = Decode(b); err != nil {
			t.Fatalf("message %d: Decode: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("message %d: Decoder gave %+v, Decode %+v", i, got[i], want[i])
		}
		eachSlice(reflect.ValueOf(got[i]).Elem(), func(s reflect.Value) {
			if s.Cap() != s.Len() {
				t.Fatalf("message %d (%T): a %s with len %d, cap %d", i, got[i], s.Type(), s.Len(), s.Cap())
			}
		})
	}
	for i := len(got) - 1; i >= 0; i-- {
		scribble(got[i], i)
		scribble(want[i], i)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("message %d (%T) was changed by writes to another message's lists", i, got[i])
		}
	}
}

// decoderStream encodes every kind, the hot ones 200 times each with list
// and payload lengths that run past a quarter of a block now and then:
// more than three blocks of every struct, id list and the payloads.
func decoderStream() [][]byte {
	var msgs []Message
	for i := 0; i < 200; i++ {
		n := i % 25
		if i%50 == 7 {
			n = idBlock/4 + 1 + i
		}
		chunks := make([]ChunkID, n)
		nodes := make([]NodeID, n)
		for k := range chunks {
			chunks[k], nodes[k] = ChunkID(1000*i+k), NodeID(2000*i+k)
		}
		p := []byte(nil)
		if size := []int{0, 1, 700, 1316, payloadBlock / 4, payloadBlock/4 + 1, 5264}[i%7]; size > 0 {
			p = make([]byte, size)
			for k := range p {
				p[k] = byte(i + k)
			}
		}
		msgs = append(msgs,
			&Propose{Sender: NodeID(i), Period: Period(i), Chunks: chunks, Origins: nodes},
			&Request{Sender: NodeID(i), Period: Period(i), Chunks: chunks},
			&Serve{Sender: NodeID(i), Period: Period(i), Chunk: ChunkID(i), PayloadSize: len(p), Hash: uint64(i), Payload: p},
			&Ack{Sender: NodeID(i), Period: Period(i), Chunks: chunks, Partners: nodes},
			&Confirm{Sender: NodeID(i), Suspect: 7, Period: Period(i), Chunks: chunks},
			&ConfirmResp{Sender: NodeID(i), Suspect: 7, Period: Period(i), Confirmed: i%2 == 0},
			&Blame{Sender: NodeID(i), Target: 7, Value: float64(i), Reason: ReasonNoAck},
		)
		if i%20 == 0 {
			msgs = append(msgs, allMessages()...)
		}
	}
	stream := make([][]byte, len(msgs))
	for i, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			panic(err)
		}
		stream[i] = b
	}
	return stream
}

// eachSlice calls fn on every slice a message struct holds, records'
// included.
func eachSlice(v reflect.Value, fn func(reflect.Value)) {
	for f := 0; f < v.NumField(); f++ {
		s := v.Field(f)
		if s.Kind() != reflect.Slice || s.IsNil() {
			continue
		}
		fn(s)
		if s.Type().Elem().Kind() == reflect.Struct {
			for k := 0; k < s.Len(); k++ {
				eachSlice(s.Index(k), fn)
			}
		}
	}
}

// scribble overwrites every element of every list and payload m holds with
// values unique to seed, then appends one more to each.
func scribble(m Message, seed int) {
	v := reflect.ValueOf(m).Elem()
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for f := 0; f < v.NumField(); f++ {
			s := v.Field(f)
			if s.Kind() != reflect.Slice || s.IsNil() {
				continue
			}
			if s.Type().Elem().Kind() == reflect.Struct {
				for k := 0; k < s.Len(); k++ {
					walk(s.Index(k))
				}
				continue
			}
			for k := 0; k < s.Len(); k++ {
				s.Index(k).SetUint(uint64(seed*7919 + k + 1))
			}
			s.Set(reflect.Append(s, reflect.ValueOf(uint64(seed)).Convert(s.Type().Elem())))
		}
	}
	walk(v)
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

// TestWireSizeIsEncodingPlusHeader pins the one byte count both runtimes
// charge: a message's encoding plus the IP/UDP header, exactly, for every
// kind — a serve without a payload included, which ships no payload bytes.
// Every simulated send counts it, so it must not allocate.
func TestWireSizeIsEncodingPlusHeader(t *testing.T) {
	for _, m := range allMessages() {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.WireSize(), TransportHeaderSize+len(b); got != want {
			t.Errorf("%T: WireSize %d, want %d (%d encoded bytes)", m, got, want, len(b))
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = m.WireSize() }); allocs != 0 {
			t.Errorf("%T: WireSize allocates %.1f times", m, allocs)
		}
	}
}
