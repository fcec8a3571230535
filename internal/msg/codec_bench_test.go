package msg

import "testing"

// benchMessages is the hot wire-path mix: the dissemination triple plus the
// chattiest verification messages, roughly in their live traffic proportions.
func benchMessages() []Message {
	return []Message{
		&Propose{Sender: 1, Period: 40, Chunks: []ChunkID{100, 101, 102, 103, 104, 105}},
		&Request{Sender: 2, Period: 40, Chunks: []ChunkID{100, 102, 105}},
		&Serve{Sender: 1, Period: 40, Chunk: 102, PayloadSize: 1316},
		&Ack{Sender: 2, Period: 40, Chunks: []ChunkID{100, 102, 105}, Partners: []NodeID{3, 4, 5, 6, 7, 8, 9}},
		&Confirm{Sender: 1, Suspect: 2, Period: 40, Chunks: []ChunkID{100, 102, 105}},
		&ConfirmResp{Sender: 3, Suspect: 2, Period: 40, Confirmed: true},
		&Blame{Sender: 1, Target: 2, Value: 1.5, Reason: ReasonPartialServe},
	}
}

func BenchmarkEncode(b *testing.B) {
	msgs := benchMessages()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendEncode(buf[:0], msgs[i%len(msgs)])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeFresh(b *testing.B) {
	msgs := benchMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(msgs[i%len(msgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	benchDecode(b, Decode)
}

// BenchmarkDecoder decodes the same mix through one Decoder, as a receive
// loop does.
func BenchmarkDecoder(b *testing.B) {
	var dec Decoder
	benchDecode(b, dec.Decode)
}

func benchDecode(b *testing.B, decode func([]byte) (Message, error)) {
	var encoded [][]byte
	for _, m := range benchMessages() {
		e, err := Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		encoded = append(encoded, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(encoded[i%len(encoded)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeServePayload measures the content-plane hot path: framing a
// full-size video chunk with a reused buffer must stay 0-alloc.
func BenchmarkEncodeServePayload(b *testing.B) {
	payload := make([]byte, 1316)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	m := &Serve{Sender: 1, Period: 40, Chunk: 102, PayloadSize: len(payload), Hash: 99, Payload: payload}
	var buf []byte
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], m, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeServePayload measures the decode of a payload-carrying
// serve frame, one copy of the payload included.
func BenchmarkDecodeServePayload(b *testing.B) {
	payload := make([]byte, 1316)
	m := &Serve{Sender: 1, Period: 40, Chunk: 102, PayloadSize: len(payload), Hash: 99, Payload: payload}
	frame, err := EncodeFrame(m, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	msgs := benchMessages()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], msgs[i%len(msgs)], 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSize measures the count pass every simulated send makes: the
// encoder's walk over the mix, adding up lengths instead of writing bytes.
func BenchmarkWireSize(b *testing.B) {
	msgs := benchMessages()
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n += msgs[i%len(msgs)].WireSize()
	}
	if n == 0 {
		b.Fatal("no bytes counted")
	}
}
