package msg

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// TestDecodeNeverPanics feeds random byte strings to the decoder: whatever
// arrives from the network must produce a message or an error, never a
// panic or a hang.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %x: %v", data, r)
			}
		}()
		m, err := Decode(data)
		// Either a valid message or an error, not both nil.
		return (m != nil) != (err != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeValidPrefixMutations flips bytes of valid encodings: decoding
// must stay panic-free, and successful decodes must re-encode.
func TestDecodeValidPrefixMutations(t *testing.T) {
	seeds := allMessages()
	for _, m := range seeds {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			for _, delta := range []byte{0x01, 0x80, 0xFF} {
				mut := append([]byte(nil), b...)
				mut[i] ^= delta
				decoded, err := Decode(mut)
				if err != nil {
					continue
				}
				if _, err := Encode(decoded); err != nil {
					t.Fatalf("re-encoding a decoded mutation failed: %v", err)
				}
			}
		}
	}
}

// FuzzDecode is the network-facing robustness target: arbitrary bytes go
// through both the raw codec and the datagram framing. Whatever a remote
// peer puts in a datagram must produce a message or an error — never a
// panic, a hang, or an unbounded allocation. Successful decodes must
// re-encode, the re-encoding must be a fixed point (canonical form), and
// the count pass must agree with the decoder: WireSize is the input's
// length plus TransportHeaderSize. A Decoder shared across inputs, as a
// receive loop shares one across datagrams, must agree with Decode on every
// input. A plain frame's message list is checked whole; when every entry
// decodes, re-framing the messages gives a frame whose own re-framing is
// itself (canonical form again). The seed corpus under
// testdata/fuzz/FuzzDecode holds one framed encoding of every message kind,
// frames of several messages, and the malformed shapes that matter (length
// bombs, bad checksums, truncations, lying message lists, mixed senders, a
// v3 and a v4 frame, a Handoff with a non-finite blame total or an
// out-of-range reason); `go test` replays it on every run.
func FuzzDecode(f *testing.F) {
	for _, m := range allMessages() {
		if b, err := Encode(m); err == nil {
			f.Add(b)
		}
		if b, err := EncodeFrame(m, 0); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindPropose), 0, 0, 0, 1, 0, 0, 0, 2, 0xFF, 0xFF}) // length bomb
	for _, seed := range batchSeeds() {
		f.Add(seed.data)
	}
	for _, seed := range malformedSeeds() {
		f.Add(seed.data)
	}
	for _, seed := range handoffSeeds() {
		f.Add(seed.data)
	}
	// A NaN score: both decoders refuse it.
	f.Add([]byte("\t00000000\xff\xff00000000"))
	var dec Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if (m != nil) == (err != nil) {
			t.Fatalf("Decode: message %v, err %v — want exactly one", m, err)
		}
		dm, derr := dec.Decode(data)
		if fmt.Sprint(derr) != fmt.Sprint(err) {
			t.Fatalf("Decoder gave error %v, Decode %v", derr, err)
		}
		if err == nil {
			if got, want := m.WireSize(), TransportHeaderSize+len(data); got != want {
				t.Fatalf("a %d-byte %s: WireSize %d, want %d", len(data), m.Kind(), got, want)
			}
			b, err := Encode(m)
			if err != nil {
				t.Fatalf("re-encoding a decoded message failed: %v", err)
			}
			if db, err := Encode(dm); err != nil || string(db) != string(b) {
				t.Fatalf("Decoder gave %+v, Decode %+v (err %v)", dm, m, err)
			}
			m2, err := Decode(b)
			if err != nil {
				t.Fatalf("decoding a re-encoded message failed: %v", err)
			}
			b2, err := Encode(m2)
			if err != nil || string(b) != string(b2) {
				t.Fatalf("encoding is not a fixed point: % x vs % x (err %v)", b, b2, err)
			}
		}
		fm, flags, ferr := DecodeFrame(data)
		if (fm != nil) == (ferr != nil) {
			t.Fatalf("DecodeFrame: message %v, err %v — want exactly one", fm, ferr)
		}
		if ferr == nil {
			if _, err := AppendFrame(nil, fm, flags); err != nil {
				t.Fatalf("re-framing a decoded frame failed: %v", err)
			}
		}
		payload, flags, err := RawFrame(data)
		if err != nil || flags&FlagFragment != 0 {
			return
		}
		batch, err := ParseBatch(payload)
		if err != nil {
			return
		}
		ms := decodeBatch(t, &dec, batch)
		if ms == nil {
			return
		}
		again := reframe(t, flags, ms)
		payload, _, err = RawFrame(again)
		if err != nil {
			t.Fatalf("re-framed %d messages do not frame: %v", len(ms), err)
		}
		batch2, err := ParseBatch(payload)
		if err != nil || batch2.Len != batch.Len || batch2.Sender != batch.Sender {
			t.Fatalf("re-framed %d messages from %d parse as %d from %d (err %v)", batch.Len, batch.Sender, batch2.Len, batch2.Sender, err)
		}
		if again2 := reframe(t, flags, decodeBatch(t, &dec, batch2)); string(again2) != string(again) {
			t.Fatalf("re-framing is not a fixed point:\n% x\n% x", again, again2)
		}
	})
}

// decodeBatch decodes every entry of batch, or returns nil if one fails.
func decodeBatch(t *testing.T, dec *Decoder, batch Batch) []Message {
	var ms []Message
	for e := batch.Next(); e != nil; e = batch.Next() {
		m, err := dec.Decode(e)
		if err != nil {
			return nil
		}
		if m.From() != batch.Sender {
			t.Fatalf("a %s from %d in a batch from %d", m.Kind(), m.From(), batch.Sender)
		}
		ms = append(ms, m)
	}
	return ms
}

// reframe frames ms as one plain frame.
func reframe(t *testing.T, flags uint8, ms []Message) []byte {
	frame := StartFrame(nil, flags)
	for _, m := range ms {
		var err error
		if frame, err = AppendMessage(frame, m); err != nil {
			t.Fatalf("re-framing a decoded %s failed: %v", m.Kind(), err)
		}
	}
	SealFrame(frame)
	return frame
}

// batchSeeds are frames of several messages — every kind from one sender,
// three serves — and the list shapes a hostile peer would try (see
// TestHostileBatches), plus frames of the retired versions 3 and 4.
func batchSeeds() []corpusSeed {
	encode := func(m Message) []byte {
		b, err := Encode(m)
		if err != nil {
			panic(err)
		}
		return b
	}
	entry := func(b []byte) []byte { return append(binary.BigEndian.AppendUint16(nil, uint16(len(b))), b...) }
	list := func(count uint16, entries ...[]byte) []byte {
		b := binary.BigEndian.AppendUint16(nil, count)
		for _, e := range entries {
			b = append(b, e...)
		}
		return b
	}
	frame := func(flags uint8, payload []byte) []byte {
		return append(appendHeader(nil, flags, len(payload), crc32.ChecksumIEEE(payload)), payload...)
	}
	var every [][]byte
	for _, m := range allMessages() {
		b := encode(m)
		binary.BigEndian.PutUint32(b[1:], 9)
		every = append(every, entry(b))
	}
	var serves [][]byte
	for i := 0; i < 3; i++ {
		serves = append(serves, entry(encode(&Serve{Sender: 4, Chunk: ChunkID(i), PayloadSize: 3, Hash: 1, Payload: []byte("abc")})))
	}
	req7, req8 := entry(encode(&ScoreReq{Sender: 7, Target: 2})), entry(encode(&ScoreReq{Sender: 8, Target: 2}))
	v3, v4 := frame(0, list(1, req7)), frame(0, list(1, req7))
	v3[2], v4[2] = 3, 4
	return []corpusSeed{
		{"seed-batch-every-kind", frame(0, list(uint16(len(every)), every...))},
		{"seed-batch-serves", frame(FlagReliable, list(3, serves...))},
		{"seed-batch-mixed-senders", frame(0, list(2, req7, req8))},
		{"seed-batch-count-over", frame(0, list(3, req7, req7))},
		{"seed-batch-count-under", frame(0, list(1, req7, req7))},
		{"seed-batch-count-bomb", frame(0, list(0xFFFF, req7))},
		{"seed-batch-length-over", frame(0, list(1, req7[:len(req7)-1]))},
		{"seed-batch-zero-length", frame(0, list(2, req7, []byte{0, 0}))},
		{"seed-frame-v3", v3},
		{"seed-frame-v4", v4},
	}
}

type corpusSeed struct {
	name string
	data []byte
}

// malformedSeeds are the handcrafted corpus entries: the failure shapes that
// matter, each of which must decode to an error without panicking.
func malformedSeeds() []corpusSeed {
	payloadServe := &Serve{Sender: 4, Period: 9, Chunk: 5, PayloadSize: 1316,
		Hash: 0x1234, Payload: []byte("content plane payload")}
	served, err := Encode(payloadServe)
	if err != nil {
		panic(err)
	}
	// Claimed payload length far past what the buffer holds.
	truncated := append([]byte(nil), served...)
	truncated[len(truncated)-len(payloadServe.Payload)-4] = 0
	truncated[len(truncated)-len(payloadServe.Payload)-3] = 0x01
	// Claimed payload length past MaxChunkPayload.
	bomb := append([]byte(nil), served...)
	copy(bomb[len(bomb)-len(payloadServe.Payload)-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	// A lone fragment frame: valid framing, but DecodeFrame must refuse it.
	fragment, err := AppendFragment(nil, 7, 0, 2, served[:10], 0)
	if err != nil {
		panic(err)
	}
	badsum, err := EncodeFrame(payloadServe, 0)
	if err != nil {
		panic(err)
	}
	badsum = append([]byte(nil), badsum...)
	badsum[len(badsum)-1] ^= 0x40
	framed, err := EncodeFrame(payloadServe, FlagReliable)
	if err != nil {
		panic(err)
	}
	return []corpusSeed{
		{"seed-empty", nil},
		{"seed-length-bomb", []byte{byte(KindPropose), 0, 0, 0, 1, 0, 0, 0, 2, 0xFF, 0xFF}},
		{"seed-unknown-kind", []byte{0xEE, 0, 0, 0, 1}},
		{"seed-serve-truncated-payload", truncated},
		{"seed-serve-payload-bomb", bomb},
		{"seed-frame-fragment", fragment},
		{"seed-frame-badsum", badsum},
		{"seed-frame-truncated", framed[:len(framed)-3]},
	}
}

// handoffSeeds are hostile Handoffs: blame totals that are NaN or infinite,
// which the codec refuses like any non-finite amount, and reasons past the
// last one, which decode — a reason is a label, as on a Blame or an Expel —
// and are the receiving manager's to judge.
func handoffSeeds() []corpusSeed {
	var seeds []corpusSeed
	for _, s := range []struct {
		name string
		m    Handoff
	}{
		{"nan", Handoff{Sender: 3, Target: 5, TotalBlame: math.NaN(), JoinPeriod: 2}},
		{"inf", Handoff{Sender: 3, Target: 5, TotalBlame: math.Inf(1), JoinPeriod: 2}},
		{"neg-inf", Handoff{Sender: 3, Target: 5, TotalBlame: math.Inf(-1), JoinPeriod: 2, Expelled: true}},
		{"reason-over", Handoff{Sender: 3, Target: 5, TotalBlame: 7, JoinPeriod: 2, Expelled: true, Reason: ReasonInvalidPayload + 1}},
		{"reason-max", Handoff{Sender: 3, Target: 5, TotalBlame: 7, Reason: 0xFF}},
	} {
		raw, err := Encode(&s.m)
		if err != nil {
			panic(err)
		}
		framed, err := EncodeFrame(&s.m, 0)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds,
			corpusSeed{"seed-raw-handoff-" + s.name, raw},
			corpusSeed{"seed-frame-handoff-" + s.name, framed})
	}
	return seeds
}

// TestRegenFuzzCorpus rewrites testdata/fuzz/FuzzDecode from the live
// encoders. Run it after any wire-format change (like v4's message lists):
//
//	LIFTING_REGEN_CORPUS=1 go test ./internal/msg -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("LIFTING_REGEN_CORPUS") == "" {
		t.Skip("set LIFTING_REGEN_CORPUS=1 to rewrite the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var seeds []corpusSeed
	counts := map[string]int{}
	for _, m := range allMessages() {
		base := strings.ReplaceAll(m.Kind().String(), "_", "-")
		counts[base]++
		if counts[base] > 1 {
			base = fmt.Sprintf("%s-%d", base, counts[base])
		}
		raw, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		framed, err := EncodeFrame(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds,
			corpusSeed{"seed-raw-" + base, raw},
			corpusSeed{"seed-frame-" + base, framed})
	}
	seeds = append(seeds, batchSeeds()...)
	seeds = append(seeds, malformedSeeds()...)
	seeds = append(seeds, handoffSeeds()...)
	for _, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus files to %s", len(seeds), dir)
}

// TestDecodeLengthBomb: a claimed count is checked against the bytes left
// before anything is allocated for it. Each of these datagrams once bought a
// quarter or more of a megabyte per decode.
func TestDecodeLengthBomb(t *testing.T) {
	bombs := map[string][]byte{
		// kind, sender, period, 65 535 chunks and none of their bytes.
		"propose": {byte(KindPropose), 0, 0, 0, 1, 0, 0, 0, 2, 0xFF, 0xFF},
		// kind, sender, period, no chunks, 65 535 partners.
		"ack": {byte(KindAck), 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0xFF, 0xFF},
		// kind, sender, 65 535 proposal records.
		"audit-resp": {byte(KindAuditResp), 0, 0, 0, 1, 0xFF, 0xFF},
	}
	var dec Decoder
	for name, b := range bombs {
		for how, decode := range map[string]func([]byte) (Message, error){"Decode": Decode, "Decoder": dec.Decode} {
			const runs = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := decode(b); err == nil {
					t.Fatalf("%s: the %s bomb decoded", how, name)
				}
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1<<10 {
				t.Errorf("%s: the %d-byte %s bomb allocates %d bytes per decode, want ≤ 1 KB", how, len(b), name, per)
			}
		}
	}
}
