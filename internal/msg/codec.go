package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Codec errors.
var (
	ErrTruncated     = errors.New("msg: truncated message")
	ErrUnknownKind   = errors.New("msg: unknown message kind")
	ErrTooLong       = errors.New("msg: list too long for wire format")
	ErrPayloadBounds = errors.New("msg: chunk payload exceeds MaxChunkPayload")
	ErrNonFinite     = errors.New("msg: non-finite number")
)

const maxListLen = 1<<16 - 1

// Encode serializes m into a fresh byte slice. The layout is
// kind(1) | sender(4) | kind-specific body, all big-endian.
func Encode(m Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 64), m)
}

// AppendEncode serializes m onto the end of dst and returns the extended
// slice. The hot send paths pass a reused buffer (dst[:0]) so steady-state
// encoding allocates nothing.
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	w := &writer{buf: dst}
	w.u8(uint8(m.Kind()))
	w.u32(uint32(m.From()))
	switch v := m.(type) {
	case *Propose:
		w.u32(uint32(v.Period))
		if err := w.chunkList(v.Chunks); err != nil {
			return nil, err
		}
		if err := w.nodeList(v.Origins); err != nil {
			return nil, err
		}
	case *Request:
		w.u32(uint32(v.Period))
		if err := w.chunkList(v.Chunks); err != nil {
			return nil, err
		}
	case *Serve:
		if v.PayloadSize < 0 || v.PayloadSize > MaxChunkPayload || len(v.Payload) > MaxChunkPayload {
			return nil, ErrPayloadBounds
		}
		// Serves dominate wire traffic: reserve the fixed 24-byte body in
		// one grow instead of five appends, then append the payload bytes
		// directly after their 4-byte length (the zero-copy half of the
		// hot encode path).
		n := len(w.buf)
		w.buf = append(w.buf, make([]byte, 24)...)
		b := w.buf[n : n+24 : n+24]
		binary.BigEndian.PutUint32(b[0:], uint32(v.Period))
		binary.BigEndian.PutUint32(b[4:], uint32(v.Chunk))
		binary.BigEndian.PutUint32(b[8:], uint32(v.PayloadSize))
		binary.BigEndian.PutUint64(b[12:], v.Hash)
		binary.BigEndian.PutUint32(b[20:], uint32(len(v.Payload)))
		w.buf = append(w.buf, v.Payload...)
	case *Ack:
		w.u32(uint32(v.Period))
		if err := w.chunkList(v.Chunks); err != nil {
			return nil, err
		}
		if err := w.nodeList(v.Partners); err != nil {
			return nil, err
		}
	case *Confirm:
		w.u32(uint32(v.Suspect))
		w.u32(uint32(v.Period))
		if err := w.chunkList(v.Chunks); err != nil {
			return nil, err
		}
	case *ConfirmResp:
		w.u32(uint32(v.Suspect))
		w.u32(uint32(v.Period))
		w.bool(v.Confirmed)
	case *Blame:
		w.u32(uint32(v.Target))
		w.f64(v.Value)
		w.u8(uint8(v.Reason))
	case *ScoreReq:
		w.u32(uint32(v.Target))
	case *ScoreResp:
		w.u32(uint32(v.Target))
		w.f64(v.Score)
		w.bool(v.Expelled)
		w.bool(v.Tracked)
	case *Expel:
		w.u32(uint32(v.Target))
		w.u8(uint8(v.Reason))
	case *AuditReq:
		w.u64(uint64(v.Horizon))
	case *AuditResp:
		if len(v.Proposals) > maxListLen || len(v.Serves) > maxListLen {
			return nil, ErrTooLong
		}
		w.u16(uint16(len(v.Proposals)))
		for i := range v.Proposals {
			r := &v.Proposals[i]
			w.u32(uint32(r.Period))
			w.u32(uint32(r.Partner))
			if err := w.chunkList(r.Chunks); err != nil {
				return nil, err
			}
		}
		w.u16(uint16(len(v.Serves)))
		for i := range v.Serves {
			r := &v.Serves[i]
			w.u32(uint32(r.Period))
			w.u32(uint32(r.Server))
			if err := w.chunkList(r.Chunks); err != nil {
				return nil, err
			}
		}
	case *AuditPoll:
		w.u32(uint32(v.Suspect))
		w.u32(uint32(v.Period))
		if err := w.chunkList(v.Chunks); err != nil {
			return nil, err
		}
	case *AuditPollResp:
		w.u32(uint32(v.Suspect))
		w.u32(uint32(v.Period))
		w.bool(v.Confirmed)
		if err := w.nodeList(v.Askers); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownKind, m)
	}
	return w.buf, nil
}

// Decode parses a message previously produced by Encode. Everything it
// returns is allocated for this one message, exactly sized, and shares no
// memory with b: the caller may reuse b at once.
func Decode(b []byte) (Message, error) {
	d := Decoder{exact: true}
	return d.Decode(b)
}

// Block sizes of a Decoder, one block per field: message structs per hot
// kind, ids per list field, payload bytes. A socket's decoder holds one
// partly used block of each for good, so the sizes trade that standing cost
// (DESIGN.md, "Wire frame") against how often a block is refilled.
const (
	structBlock  = 32
	idBlock      = 512
	payloadBlock = 16 << 10
)

// Block sizes of a Sends set: SendBlock structs of each kind but Serve,
// sendServeBlock serves, sendIDBlock ids per list field. An execution
// context holds one partly used block of each for good — one set per engine
// shard on the sim, one per node on udp — so the sizes trade that standing
// cost (DESIGN.md, "The send side") against how often a block is refilled.
const (
	SendBlock      = 16
	sendServeBlock = 64
	sendIDBlock    = 512
)

// Blocks hands out values of T carved from blocks it allocates, for one
// goroutine at a time. It is the one way this package's messages share an
// allocation, in both directions: a Decoder carves what it receives from
// them, and a Sends set what an execution context sends. Nothing is ever
// carved twice: a block is refilled, never reused, so whoever is handed a
// carved value may keep it forever, and nothing it holds shares memory with
// another value — every carved slice has cap == len, so even an append
// cannot reach a neighbour. A block stays alive while anything carved from
// it does. The zero value is ready to use; a nil *Blocks allocates every
// carve on its own.
type Blocks[T any] struct {
	free []T
}

// carve cuts an n-element slice with cap == len off the current block,
// refilling it with a fresh block of size elements when it runs short. A nil
// b and a request over a quarter of a block get an allocation of their own.
func (b *Blocks[T]) carve(n, size int) []T {
	if b == nil || n > size/4 {
		return make([]T, n)
	}
	if len(b.free) < n {
		b.free = make([]T, size)
	}
	s := b.free[:n:n]
	b.free = b.free[n:]
	return s
}

// Place copies v into a struct carved from blocks of size structs and
// returns it.
func (b *Blocks[T]) Place(v T, size int) *T {
	s := b.carve(1, size)
	s[0] = v
	return &s[0]
}

// Sends is the set of blocks the messages of one execution context are
// carved from as they are sent: every Propose, Request, Serve, Ack, Confirm,
// ConfirmResp and Blame, and the id lists they carry. Every node of the
// context shares it, each with all of its components — gossip, verifier,
// blame client — and, like Blocks, it is used by one goroutine at a time:
// there is one set per engine shard on the sim (a shard's window runs on one
// goroutine, and the global phase only while every shard is parked) and one
// per node on udp, whose callbacks the node's lock serializes. The lists a
// history.Log keeps for nh periods — a proposal, a fan-in block, a propose
// phase's partners — come from blocks of their own, so that one long-held
// list does not pin a block of short-lived ones. Nothing is carved twice
// (see Blocks), so a receiver on the sim, which is handed the sender's very
// message, may keep what it holds. The zero value is ready to use.
type Sends struct {
	proposes     Blocks[Propose]
	requests     Blocks[Request]
	serves       Blocks[Serve]
	acks         Blocks[Ack]
	confirms     Blocks[Confirm]
	confirmResps Blocks[ConfirmResp]
	blames       Blocks[Blame]

	chunks   Blocks[ChunkID] // request and serve lists: held until a timeout
	kept     Blocks[ChunkID] // proposals and fan-in blocks: held nh periods
	origins  Blocks[NodeID]
	partners Blocks[NodeID] // partner lists: held nh periods
}

// Propose returns v carved from the set.
func (s *Sends) Propose(v Propose) *Propose { return s.proposes.Place(v, SendBlock) }

// Request returns v carved from the set.
func (s *Sends) Request(v Request) *Request { return s.requests.Place(v, SendBlock) }

// Ack returns v carved from the set.
func (s *Sends) Ack(v Ack) *Ack { return s.acks.Place(v, SendBlock) }

// Confirm returns v carved from the set.
func (s *Sends) Confirm(v Confirm) *Confirm { return s.confirms.Place(v, SendBlock) }

// ConfirmResp returns v carved from the set.
func (s *Sends) ConfirmResp(v ConfirmResp) *ConfirmResp {
	return s.confirmResps.Place(v, SendBlock)
}

// Blame returns v carved from the set.
func (s *Sends) Blame(v Blame) *Blame { return s.blames.Place(v, SendBlock) }

// Serves returns n zero serves carved from the set: the serves of one
// request.
func (s *Sends) Serves(n int) []Serve { return s.serves.carve(n, sendServeBlock) }

// Chunks returns a copy of ids carved from the set's short-lived lists: a
// request's, a serve list.
func (s *Sends) Chunks(ids []ChunkID) []ChunkID {
	out := s.chunks.carve(len(ids), sendIDBlock)
	copy(out, ids)
	return out
}

// KeptChunks returns n zero ids carved from the set's long-lived lists: a
// proposal, a fan-in block.
func (s *Sends) KeptChunks(n int) []ChunkID { return s.kept.carve(n, sendIDBlock) }

// Origins returns n zero node ids carved from the set: a proposal's origins.
func (s *Sends) Origins(n int) []NodeID { return s.origins.carve(n, sendIDBlock) }

// Partners returns an empty list with room for n node ids, carved from the
// set's long-lived lists: a propose phase's partners, appended to it.
func (s *Sends) Partners(n int) []NodeID { return s.partners.carve(n, sendIDBlock)[:0] }

// Decoder decodes exactly as Decode does, for one goroutine at a time, but
// carves the structs, id lists and payloads of the hot message kinds (serve,
// blame, confirm, confirm-resp, propose, request, ack) from Blocks it owns,
// one per field, so a steady stream of messages costs a block refill every
// few dozen messages instead of an allocation or three each. A receiver may
// keep whatever a Decoder hands it, under the Blocks contract. The zero
// value is ready to use.
type Decoder struct {
	exact bool // Decode's one-off decoder: every carve is its own allocation

	proposes     Blocks[Propose]
	requests     Blocks[Request]
	serves       Blocks[Serve]
	acks         Blocks[Ack]
	confirms     Blocks[Confirm]
	confirmResps Blocks[ConfirmResp]
	blames       Blocks[Blame]

	proposeChunks  Blocks[ChunkID]
	proposeOrigins Blocks[NodeID]
	requestChunks  Blocks[ChunkID]
	ackChunks      Blocks[ChunkID]
	ackPartners    Blocks[NodeID]
	confirmChunks  Blocks[ChunkID]

	payloads Blocks[byte]
}

// block returns a field's block size, or 0 for Decode's one-off decoder:
// every carve is larger than a quarter of nothing, so each is then an
// allocation of its own.
func (d *Decoder) block(size int) int {
	if d.exact {
		return 0
	}
	return size
}

// Decode parses one message; see Decoder.
func (d *Decoder) Decode(b []byte) (Message, error) {
	r := reader{buf: b}
	kind := Kind(r.u8())
	sender := r.node()
	if r.err != nil {
		return nil, r.err
	}
	var m Message
	structs, idList := d.block(structBlock), d.block(idBlock)
	switch kind {
	case KindPropose:
		v := Propose{Sender: sender, Period: r.period()}
		v.Chunks = ids(&r, &d.proposeChunks, idList)
		v.Origins = ids(&r, &d.proposeOrigins, idList)
		m = place(&r, &d.proposes, v, structs)
	case KindRequest:
		v := Request{Sender: sender, Period: r.period()}
		v.Chunks = ids(&r, &d.requestChunks, idList)
		m = place(&r, &d.requests, v, structs)
	case KindServe:
		v := Serve{Sender: sender, Period: r.period(), Chunk: ChunkID(r.u32())}
		if size := r.u32(); size <= MaxChunkPayload {
			v.PayloadSize = int(size)
		} else {
			r.fail(ErrPayloadBounds)
		}
		v.Hash = r.u64()
		v.Payload = chunkPayload(&r, &d.payloads, d.block(payloadBlock))
		m = place(&r, &d.serves, v, structs)
	case KindAck:
		v := Ack{Sender: sender, Period: r.period()}
		v.Chunks = ids(&r, &d.ackChunks, idList)
		v.Partners = ids(&r, &d.ackPartners, idList)
		m = place(&r, &d.acks, v, structs)
	case KindConfirm:
		v := Confirm{Sender: sender, Suspect: r.node(), Period: r.period()}
		v.Chunks = ids(&r, &d.confirmChunks, idList)
		m = place(&r, &d.confirms, v, structs)
	case KindConfirmResp:
		v := ConfirmResp{Sender: sender, Suspect: r.node(), Period: r.period(), Confirmed: r.bool()}
		m = place(&r, &d.confirmResps, v, structs)
	case KindBlame:
		v := Blame{Sender: sender, Target: r.node(), Value: r.f64(), Reason: BlameReason(r.u8())}
		m = place(&r, &d.blames, v, structs)
	case KindScoreReq:
		m = &ScoreReq{Sender: sender, Target: r.node()}
	case KindScoreResp:
		m = &ScoreResp{Sender: sender, Target: r.node(), Score: r.f64(), Expelled: r.bool(), Tracked: r.bool()}
	case KindExpel:
		m = &Expel{Sender: sender, Target: r.node(), Reason: BlameReason(r.u8())}
	case KindAuditReq:
		m = &AuditReq{Sender: sender, Horizon: time.Duration(r.u64())}
	case KindAuditResp:
		v := &AuditResp{Sender: sender}
		if n := r.records(); n > 0 {
			v.Proposals = make([]ProposalRecord, n)
			for i := range v.Proposals {
				v.Proposals[i] = ProposalRecord{Period: r.period(), Partner: r.node(), Chunks: ids[ChunkID](&r, nil, 0)}
			}
		}
		if n := r.records(); n > 0 {
			v.Serves = make([]ServeRecord, n)
			for i := range v.Serves {
				v.Serves[i] = ServeRecord{Period: r.period(), Server: r.node(), Chunks: ids[ChunkID](&r, nil, 0)}
			}
		}
		m = v
	case KindAuditPoll:
		m = &AuditPoll{Sender: sender, Suspect: r.node(), Period: r.period(), Chunks: ids[ChunkID](&r, nil, 0)}
	case KindAuditPollResp:
		m = &AuditPollResp{Sender: sender, Suspect: r.node(), Period: r.period(), Confirmed: r.bool(), Askers: ids[NodeID](&r, nil, 0)}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
	if !r.done() {
		return nil, r.err
	}
	return m, nil
}

// place copies a parsed message into a struct carved from blocks once the
// parse is known to be good, so a message that fails takes no struct. It
// returns nil otherwise; Decode then returns the reader's error.
func place[T any](r *reader, blocks *Blocks[T], v T, size int) *T {
	if !r.done() {
		return nil
	}
	return blocks.Place(v, size)
}

// ids reads a length-prefixed list of 4-byte ids into a slice carved from
// blocks of size ids (nil blocks for the rare kinds), once the bytes are
// known to be there: a datagram a few bytes long must not buy a 65 535-id
// list. An empty list decodes as nil, so encodings stay canonical.
func ids[T ~uint32](r *reader, blocks *Blocks[T], size int) []T {
	b := r.take(4 * int(r.u16()))
	if len(b) == 0 {
		return nil
	}
	out := blocks.carve(len(b)/4, size)
	for i := range out {
		out[i] = T(binary.BigEndian.Uint32(b[4*i:]))
	}
	return out
}

// chunkPayload reads a 4-byte-length-prefixed byte string, bounded by
// MaxChunkPayload, and copies it into a slice carved from blocks of size
// bytes. An empty payload decodes as nil so encodings stay canonical.
func chunkPayload(r *reader, blocks *Blocks[byte], size int) []byte {
	n := r.u32()
	if n > MaxChunkPayload {
		r.fail(ErrPayloadBounds)
		return nil
	}
	src := r.take(int(n))
	if len(src) == 0 {
		return nil
	}
	p := blocks.carve(len(src), size)
	copy(p, src)
	return p
}

type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) chunkList(chunks []ChunkID) error {
	if len(chunks) > maxListLen {
		return ErrTooLong
	}
	w.u16(uint16(len(chunks)))
	for _, c := range chunks {
		w.u32(uint32(c))
	}
	return nil
}

func (w *writer) nodeList(nodes []NodeID) error {
	if len(nodes) > maxListLen {
		return ErrTooLong
	}
	w.u16(uint16(len(nodes)))
	for _, n := range nodes {
		w.u32(uint32(n))
	}
	return nil
}

// reader walks one encoded message. The first error sticks: every later
// read returns zero and allocates nothing, so a parse reads straight
// through and checks once, at the end.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take returns the next n bytes, aliasing buf, or nil once anything failed.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf)-r.off {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// minRecordSize is the fewest bytes a history record takes on the wire:
// period, node and list length. A 7-byte message must not buy 65 535 of
// them.
const minRecordSize = 10

// records reads a 2-byte record count and checks it against the bytes left,
// each record taking at least minRecordSize of them, before anything is
// allocated for the list.
func (r *reader) records() int {
	n := int(r.u16())
	if n*minRecordSize > len(r.buf)-r.off {
		r.fail(ErrTruncated)
		return 0
	}
	return n
}

// done reports whether the message parsed and used every byte.
func (r *reader) done() bool {
	if r.err == nil && r.off != len(r.buf) {
		r.err = fmt.Errorf("msg: %d trailing bytes after %s", len(r.buf)-r.off, Kind(r.buf[0]))
	}
	return r.err == nil
}

func (r *reader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// f64 reads a float the protocol only ever means as a finite amount (a
// blame's value, a score): a NaN or an infinity fails the message, so a peer
// cannot smuggle one into a manager's arithmetic, where NaN never compares
// under η and −Inf outweighs every honest blame.
func (r *reader) f64() float64 {
	v := math.Float64frombits(r.u64())
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(ErrNonFinite)
		return 0
	}
	return v
}

func (r *reader) bool() bool     { return r.u8() != 0 }
func (r *reader) node() NodeID   { return NodeID(r.u32()) }
func (r *reader) period() Period { return Period(r.u32()) }
