package transport

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"lifting/internal/msg"
)

// FuzzReassembly feeds the receive loop's fragment reassembler an arbitrary
// sequence of datagram payloads — truncated headers, contradictory trains,
// duplicate indices, interleavings from two sources — and then proves the
// properties the transport relies on still hold: no panic, the half-built
// table never exceeds its bound, what it holds never exceeds what the peers
// sent by more than a bounded parts table per entry (no datagram buys more
// memory than its own bytes plus that), the fragment bytes it holds stay
// inside maxReassemblyBytes and match its books, and a legitimate fragment
// train delivered afterwards (with duplicates, out of order) reassembles
// byte-exactly.
//
// The input is a length-prefixed stream: each record is one byte N followed
// by N&0x7F payload bytes, handed to the reassembler as if RawFrame had
// unwrapped it off the socket, alternating between two source addresses.
// With N's top bit set the fragment body past the 8-byte header is repeated
// out to a full msg.MaxFragmentBody, so a short input can reach the byte
// budget. The committed corpus under testdata/fuzz/FuzzReassembly holds
// reassemblySeeds and what the fuzzer found; `go test` replays it.
func FuzzReassembly(f *testing.F) {
	for _, seed := range reassemblySeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		ra := newReassembler()
		srcs := [2]netip.AddrPort{netip.MustParseAddrPort("10.0.0.1:9000"), netip.MustParseAddrPort("10.0.0.2:9000")}
		fresh := netip.MustParseAddrPort("10.0.0.3:9000")
		received := 0
		for i, n := 0, 0; i < len(stream); n++ {
			full := stream[i]&0x80 != 0
			end := min(i+1+int(stream[i]&0x7F), len(stream))
			payload := stream[i+1 : end]
			i = end
			if full && len(payload) > msg.FragmentHeaderSize {
				payload = append([]byte(nil), payload...)
				for len(payload) < msg.FragmentHeaderSize+msg.MaxFragmentBody {
					payload = append(payload, payload[msg.FragmentHeaderSize:]...)
				}
				payload = payload[:msg.FragmentHeaderSize+msg.MaxFragmentBody]
			}
			out, done := ra.add(srcs[n%2], payload)
			received += len(payload)
			if done && len(out) == 0 {
				t.Fatal("reassembler reported a completed message with no bytes")
			}
			if len(ra.entries) > maxReassembly {
				t.Fatalf("reassembly table overflowed its bound: %d entries", len(ra.entries))
			}
			if held, budget := heldBytes(ra), received+len(ra.entries)*maxFragments*sliceHeaderBytes; held > budget {
				t.Fatalf("reassembler holds %d bytes for %d received in %d entries, budget %d", held, received, len(ra.entries), budget)
			}
			checkBooks(t, ra)
		}

		// Whatever state the garbage left behind, a well-formed train from a
		// fresh source must still get through. Build a body from the fuzz
		// input itself, fragment it exactly as writeFragments does, and
		// deliver the train out of order with every fragment duplicated.
		body := append(append([]byte(nil), stream...), "tail"...)
		for len(body) < msg.MaxFragmentBody+1 {
			body = append(body, body...)
		}
		count := (len(body) + msg.MaxFragmentBody - 1) / msg.MaxFragmentBody
		frames := make([][]byte, 0, count)
		for i := 0; i < count; i++ {
			start, end := i*msg.MaxFragmentBody, (i+1)*msg.MaxFragmentBody
			if end > len(body) {
				end = len(body)
			}
			frame, err := msg.AppendFragment(nil, 7, uint16(i), uint16(count), body[start:end], msg.FlagFragment)
			if err != nil {
				t.Fatalf("fragmenting %d bytes: %v", len(body), err)
			}
			frames = append(frames, frame)
		}
		var got []byte
		completions := 0
		for i := range frames {
			// Reverse order, each fragment twice: reassembly must tolerate
			// both reordering and fault-injected duplication.
			frame := frames[len(frames)-1-i]
			payload, _, err := msg.RawFrame(frame)
			if err != nil {
				t.Fatalf("unwrapping our own fragment frame: %v", err)
			}
			for rep := 0; rep < 2; rep++ {
				if out, done := ra.add(fresh, payload); done {
					got = out
					completions++
				}
			}
		}
		if completions != 1 {
			t.Fatalf("valid train completed %d times, want exactly once", completions)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("reassembled %d bytes differ from the %d-byte original", len(got), len(body))
		}
	})
}

// reassemblySeeds: a complete single-fragment message, a two-source split
// train with a contradictory count, interleaved trains, a short header,
// raw garbage, nothing, one byte of a train longer than any message, 40
// full-size fragments from each source (past the byte budget), and v4
// message lists posing as fragments — what a plain frame of several
// messages becomes when a peer sets FlagFragment on it.
func reassemblySeeds() []struct {
	name string
	data []byte
} {
	var flood []byte
	for n := byte(0); n < 80; n++ {
		flood = append(flood, 0x80|10, 0, 0, 0, n/32, 0, n/2%16, 0, maxFragments, 'x', 'y')
	}
	record := func(full bool, payload []byte) []byte {
		n := byte(len(payload))
		if full {
			n |= 0x80
		}
		return append([]byte{n}, payload...)
	}
	list := func(ms ...msg.Message) []byte {
		frame := msg.StartFrame(nil, 0)
		for _, m := range ms {
			var err error
			if frame, err = msg.AppendMessage(frame, m); err != nil {
				panic(err)
			}
		}
		return frame[msg.FrameHeaderSize:]
	}
	serves := list(
		&msg.Serve{Sender: 4, Chunk: 1, PayloadSize: 3, Hash: 1, Payload: []byte("abc")},
		&msg.Serve{Sender: 4, Chunk: 2, PayloadSize: 3, Hash: 2, Payload: []byte("def")},
	)
	blames := list(&msg.ScoreReq{Sender: 7, Target: 2}, &msg.Blame{Sender: 7, Target: 2, Value: 1})
	return []struct {
		name string
		data []byte
	}{
		{"seed-complete-single", []byte("\t\x00\x00\x00\x01\x00\x00\x00\x01A")},
		{"seed-contradictory-count", []byte("\n\x00\x00\x00\x02\x00\x00\x00\x02xx\n\x00\x00\x00\x02\x00\x01\x00\x03yy")},
		{"seed-interleaved-trains", []byte("\n\x00\x00\x00\x05\x00\x00\x00\x02aa\n\x00\x00\x00\x06\x00\x00\x00\x02bb\n\x00\x00\x00\x05\x00\x01\x00\x02cc\n\x00\x00\x00\x06\x00\x01\x00\x02dd")},
		{"seed-short-header", []byte("\x03abc")},
		{"seed-garbage", []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00\x00")},
		{"seed-garbage-short", []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff")},
		{"seed-empty", []byte{}},
		{"seed-count-bomb", []byte("\t\x00\x00\x00\x03\x00\x00\xff\xffA")},
		{"seed-byte-budget-flood", flood},
		{"seed-batch-as-fragments", append(record(false, serves), record(false, blames)...)},
		{"seed-batch-as-full-fragments", append(record(true, serves), record(true, blames)...)},
	}
}

// TestRegenFuzzCorpus rewrites the seed files of testdata/fuzz/FuzzReassembly
// from reassemblySeeds, leaving what the fuzzer found. Run it after any
// wire-format change:
//
//	LIFTING_REGEN_CORPUS=1 go test ./internal/transport -run TestRegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("LIFTING_REGEN_CORPUS") == "" {
		t.Skip("set LIFTING_REGEN_CORPUS=1 to rewrite the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReassembly")
	for _, s := range reassemblySeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const sliceHeaderBytes = int(unsafe.Sizeof([]byte(nil)))

// heldBytes is the memory the half-built messages pin: every parts table and
// every fragment body copied into one.
func heldBytes(ra *reassembler) int {
	held := 0
	for _, e := range ra.entries {
		held += cap(e.parts) * sliceHeaderBytes
		for _, p := range e.parts {
			held += len(p)
		}
	}
	return held
}

// checkBooks holds the reassembler to its byte budget and its books to
// what its entries really hold.
func checkBooks(t *testing.T, ra *reassembler) {
	t.Helper()
	perSource := map[netip.AddrPort]load{}
	total := 0
	for key, e := range ra.entries {
		n := 0
		for _, p := range e.parts {
			n += len(p)
		}
		if n != e.bytes {
			t.Fatalf("an entry holds %d fragment bytes, its books say %d", n, e.bytes)
		}
		l := perSource[key.src]
		l.entries++
		l.bytes += n
		perSource[key.src] = l
		total += n
	}
	if total != ra.bytes || len(perSource) != len(ra.held) {
		t.Fatalf("the table holds %d bytes from %d sources, its books say %d from %d", total, len(perSource), ra.bytes, len(ra.held))
	}
	for src, l := range perSource {
		if ra.held[src] != l {
			t.Fatalf("%v holds %+v, the books say %+v", src, l, ra.held[src])
		}
	}
	if ra.bytes > maxReassemblyBytes {
		t.Fatalf("the table holds %d fragment bytes, budget %d", ra.bytes, maxReassemblyBytes)
	}
}

// TestReassemblyByteBudget: a source sending real, full-size fragments used
// to park its 32 entries' worth of 16-fragment trains, ≈ 33.5 MB, in one
// socket's table. The table now holds at most maxReassemblyBytes of
// fragments; the flood evicts the flooder, the source holding the most, and
// a lighter source's Serve of msg.MaxChunkPayload, started before the flood
// and finished after it, still arrives whole.
func TestReassemblyByteBudget(t *testing.T) {
	ra := newReassembler()
	fragment := func(msgID uint32, index, count uint16, body []byte) []byte {
		frame, err := msg.AppendFragment(nil, msgID, index, count, body, 0)
		if err != nil {
			t.Fatal(err)
		}
		payload, _, err := msg.RawFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	victim := netip.MustParseAddrPort("10.0.0.1:9000")
	spammer := netip.MustParseAddrPort("10.6.6.6:666")

	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: msg.MaxChunkPayload, Payload: bytes.Repeat([]byte{7}, msg.MaxChunkPayload)}
	body, err := msg.Encode(serve)
	if err != nil {
		t.Fatal(err)
	}
	count := (len(body) + msg.MaxFragmentBody - 1) / msg.MaxFragmentBody
	part := func(i int) []byte { return body[i*msg.MaxFragmentBody : min((i+1)*msg.MaxFragmentBody, len(body))] }
	for i := 0; i < count-1; i++ {
		ra.add(victim, fragment(1, uint16(i), uint16(count), part(i)))
	}

	full := bytes.Repeat([]byte{'x'}, msg.MaxFragmentBody)
	most := 0
	for id := uint32(0); id < maxReassemblyPerSource; id++ {
		for i := uint16(0); i < maxFragments-1; i++ {
			ra.add(spammer, fragment(id, i, maxFragments, full))
			checkBooks(t, ra)
			most = max(most, ra.bytes)
		}
	}
	if most < maxReassemblyBytes-msg.MaxFragmentBody {
		t.Fatalf("the flood never reached the budget: at most %d bytes held, budget %d", most, maxReassemblyBytes)
	}
	out, done := ra.add(victim, fragment(1, uint16(count-1), uint16(count), part(count-1)))
	if !done || !bytes.Equal(out, body) {
		t.Fatalf("the victim's %d-byte train gave %d bytes, done %v, after the flood", len(body), len(out), done)
	}
	if cap(out) != len(out) {
		t.Fatalf("the assembled message has cap %d for %d bytes", cap(out), len(out))
	}
}

// TestHostileFragmentCountIsRejected: one small datagram announcing a train
// of 65 535 fragments used to make the receiver allocate a 1.5 MB parts
// table, 256 of them 400 MB before the table cleared. The longest train the
// transport ships is maxFragments; a longer one is dropped at the header,
// and a flood of the longest admissible ones pins what was sent plus one
// small parts table each.
func TestHostileFragmentCountIsRejected(t *testing.T) {
	ra := newReassembler()
	src := netip.MustParseAddrPort("10.6.6.6:666")
	fragment := func(msgID uint32, count uint16) []byte {
		frame, err := msg.AppendFragment(nil, msgID, 0, count, []byte{'x'}, 0)
		if err != nil {
			t.Fatal(err)
		}
		payload, _, err := msg.RawFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	for _, count := range []uint16{0xFFFF, maxFragments + 1} {
		if _, done := ra.add(src, fragment(1, count)); done || len(ra.entries) != 0 {
			t.Fatalf("a train of %d fragments was admitted: %d entries, %d bytes held", count, len(ra.entries), heldBytes(ra))
		}
	}
	for id := uint32(0); id < 4*maxReassembly; id++ {
		ra.add(src, fragment(id, maxFragments))
		if held, budget := heldBytes(ra), maxReassembly*(maxFragments*sliceHeaderBytes+1); len(ra.entries) > maxReassembly || held > budget {
			t.Fatalf("%d entries holding %d bytes after %d one-byte fragments, budget %d", len(ra.entries), held, id+1, budget)
		}
	}
	if len(ra.entries) == 0 {
		t.Fatal("the longest admissible train was rejected")
	}

	// The largest message the codec can emit still fits the bound.
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: msg.MaxChunkPayload, Payload: make([]byte, msg.MaxChunkPayload)}
	body, err := msg.Encode(serve)
	if err != nil {
		t.Fatal(err)
	}
	if need := (len(body) + msg.MaxFragmentBody - 1) / msg.MaxFragmentBody; need > maxFragments {
		t.Fatalf("a Serve of MaxChunkPayload needs %d fragments, maxFragments is %d", need, maxFragments)
	}
}

// TestOneSourceCannotEvictAnother: a peer flooding one-fragment starts of
// fresh trains used to fill the table and make everyone's half-built
// messages go with it. Past its quota only its own go; a second source's
// train, started before the flood, still completes after it — and so does
// one started by a third source while the table is full of the flooder's
// and of many small sources'.
func TestOneSourceCannotEvictAnother(t *testing.T) {
	ra := newReassembler()
	fragment := func(msgID uint32, index, count uint16, body string) []byte {
		frame, err := msg.AppendFragment(nil, msgID, index, count, []byte(body), 0)
		if err != nil {
			t.Fatal(err)
		}
		payload, _, err := msg.RawFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	victim := netip.MustParseAddrPort("10.0.0.1:9000")
	spammer := netip.MustParseAddrPort("10.6.6.6:666")
	if _, done := ra.add(victim, fragment(1, 0, 2, "hello ")); done {
		t.Fatal("half a train completed")
	}
	most := 0
	for id := uint32(0); id < 4*maxReassembly; id++ {
		ra.add(spammer, fragment(id, 0, 2, "x"))
		most = max(most, len(ra.entries))
	}
	out, done := ra.add(victim, fragment(1, 1, 2, "world"))
	if !done || string(out) != "hello world" {
		t.Fatalf("the victim's train gave %q, %v after the flood; want \"hello world\"", out, done)
	}
	if most > 1+maxReassemblyPerSource {
		t.Fatalf("the flood grew the table to %d entries; the spammer's quota is %d", most, maxReassemblyPerSource)
	}

	// Many sources, each under its quota, fill the table: a newcomer evicts
	// the heaviest of them, and a lighter source's train survives.
	for s := 0; len(ra.entries) < maxReassembly; s++ {
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, byte(s), 0}), 9000)
		for id := uint32(0); id < maxReassemblyPerSource-1 && len(ra.entries) < maxReassembly; id++ {
			ra.add(src, fragment(id, 0, 2, "y"))
		}
	}
	ra.add(victim, fragment(2, 0, 2, "still "))
	newcomer := netip.MustParseAddrPort("10.9.9.9:9000")
	ra.add(newcomer, fragment(1, 0, 2, "x"))
	if len(ra.entries) > maxReassembly {
		t.Fatalf("%d entries, bound %d", len(ra.entries), maxReassembly)
	}
	if out, done := ra.add(victim, fragment(2, 1, 2, "here")); !done || string(out) != "still here" {
		t.Fatalf("a one-entry source's train gave %q, %v in a full table; want \"still here\"", out, done)
	}
}
