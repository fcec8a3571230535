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

// Encode serializes m into a fresh byte slice (see walk for the layout).
func Encode(m Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 64), m)
}

// AppendEncode serializes m onto the end of dst and returns the extended
// slice. The hot send paths pass a reused buffer (dst[:0]) so steady-state
// encoding allocates nothing.
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	b, _, err := walk(dst, false, m)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// EncodedSize returns the length of m's encoding: AppendEncode's walk,
// adding up lengths instead of writing bytes, so it allocates nothing. A
// message Encode rejects is counted as its layout would hold it.
func EncodedSize(m Message) int {
	_, n, _ := walk(nil, true, m)
	return n
}

// walk walks m in its wire layout: kind(1) | sender(4) | kind-specific
// body, all big-endian; an id list is a 2-byte length and then 4 bytes per
// id. It is the one statement of every message's layout: AppendEncode has
// it append to dst, EncodedSize has it count. It returns the extended dst,
// the bytes counted and the walk's error. Two choices keep it as fast as
// the appends it replaced: the writer is a local of walk, so storing its
// buffer takes no write barrier, and each case walks its own head, so a
// count makes no interface call.
func walk(dst []byte, count bool, m Message) ([]byte, int, error) {
	w := &writer{buf: dst, count: count}
	switch v := m.(type) {
	case *Propose:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Period))
		list(w, v.Chunks)
		list(w, v.Origins)
	case *Request:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Period))
		list(w, v.Chunks)
	case *Serve:
		w.head(v.Kind(), v.Sender)
		if v.PayloadSize < 0 || v.PayloadSize > MaxChunkPayload || len(v.Payload) > MaxChunkPayload {
			w.err = ErrPayloadBounds
		}
		w.u32(uint32(v.Period))
		w.u32(uint32(v.Chunk))
		w.u32(uint32(v.PayloadSize))
		w.u64(v.Hash)
		w.u32(uint32(len(v.Payload)))
		w.raw(v.Payload)
	case *Ack:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Period))
		list(w, v.Chunks)
		list(w, v.Partners)
	case *Confirm:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Suspect))
		w.u32(uint32(v.Period))
		list(w, v.Chunks)
	case *ConfirmResp:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Suspect))
		w.u32(uint32(v.Period))
		w.bool(v.Confirmed)
	case *Blame:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Target))
		w.f64(v.Value)
		w.u8(uint8(v.Reason))
	case *ScoreReq:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Target))
	case *ScoreResp:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Target))
		w.f64(v.Score)
		w.bool(v.Expelled)
		w.bool(v.Tracked)
	case *Expel:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Target))
		w.u8(uint8(v.Reason))
	case *Handoff:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Target))
		w.f64(v.TotalBlame)
		w.u32(uint32(v.JoinPeriod))
		w.bool(v.Expelled)
		w.u8(uint8(v.Reason))
	case *AuditReq:
		w.head(v.Kind(), v.Sender)
		w.u64(uint64(v.Horizon))
	case *AuditResp:
		w.head(v.Kind(), v.Sender)
		w.length(len(v.Proposals))
		for i := range v.Proposals {
			r := &v.Proposals[i]
			w.u32(uint32(r.Period))
			w.u32(uint32(r.Partner))
			list(w, r.Chunks)
		}
		w.length(len(v.Serves))
		for i := range v.Serves {
			r := &v.Serves[i]
			w.u32(uint32(r.Period))
			w.u32(uint32(r.Server))
			list(w, r.Chunks)
		}
	case *AuditPoll:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Suspect))
		w.u32(uint32(v.Period))
		list(w, v.Chunks)
	case *AuditPollResp:
		w.head(v.Kind(), v.Sender)
		w.u32(uint32(v.Suspect))
		w.u32(uint32(v.Period))
		w.bool(v.Confirmed)
		list(w, v.Askers)
	default:
		w.err = fmt.Errorf("%w: %T", ErrUnknownKind, m)
	}
	return w.buf, w.n, w.err
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

// Block sizes of a Sends set one node carves from: SendBlock structs of each
// kind but Serve, sendServeBlock serves, sendIDBlock ids per list field,
// sendBitBlock words of a propose phase's consumed marks. An
// execution context holds one partly used block of each for good — one set
// per engine shard on the sim, one per node on udp — so the sizes trade that
// standing cost (DESIGN.md, "The send side") against how often a block is
// refilled. A set that k nodes carve from takes blocks min(k, maxSendShare)
// times as large (Sends.Wire).
const (
	SendBlock      = 16
	sendServeBlock = 64
	sendIDBlock    = 512
	sendBitBlock   = 128
	maxSendShare   = 64
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
// ConfirmResp, Blame, Expel and Handoff, and their id lists. Every node of the
// context shares it, each with all of its components — gossip, verifier,
// blame client — and, like Blocks, it is used by one goroutine at a time:
// there is one set per engine shard on the sim (a shard's window runs on one
// goroutine, and the global phase only while every shard is parked) and one
// per node on udp, whose callbacks the node's lock serializes. The lists a
// history.Log keeps for nh periods — a proposal, a fan-in block, a propose
// phase's partners, and the marks of what its partners requested — come
// from blocks of their own, so that one long-held list does not pin a block
// of short-lived ones. Nothing is carved twice (see Blocks), so a receiver
// on the sim, which is handed the sender's very message, may keep what it
// holds.
//
// The set also keeps the context's scratch lists (ScratchChunks,
// ScratchNodes, ScratchServes): a list a component gathers, reads and drops
// within one call, which the context's nodes take in turn, so its capacity
// is paid once per context and not once per node. A scratch list is good
// until the call that took it returns, and nothing it calls may take the
// same kind. The zero value is ready to use, with the blocks of a set one
// node carves from.
type Sends struct {
	share int // nodes wired to the set (Wire), at most maxSendShare

	proposes     Blocks[Propose]
	requests     Blocks[Request]
	serves       Blocks[Serve]
	acks         Blocks[Ack]
	confirms     Blocks[Confirm]
	confirmResps Blocks[ConfirmResp]
	blames       Blocks[Blame]
	expels       Blocks[Expel]
	handoffs     Blocks[Handoff]

	chunks   Blocks[ChunkID] // request and serve lists: held until a timeout
	kept     Blocks[ChunkID] // proposals and fan-in blocks: held nh periods
	origins  Blocks[NodeID]
	partners Blocks[NodeID] // partner lists: held nh periods
	marks    Blocks[uint64] // propose phases' consumed marks: held nh periods

	scratchChunks []ChunkID
	scratchNodes  []NodeID
	scratchServes []ServeRecord
}

// Wire records one more node carving from the set; whoever hands a node its
// set calls it once per node it wires. A set's blocks are its one-node sizes
// times the nodes wired to it, up to maxSendShare times: the nodes share the
// set's refills, so a block lasts each of them about as long as a one-node
// set's would, while the set's standing partial blocks are paid once for all
// of them. A sim shard's thousands of nodes get blocks maxSendShare times
// the one-node size; a udp node's set, wired once, keeps it.
func (s *Sends) Wire() {
	if s.share < maxSendShare {
		s.share++
	}
}

// block returns the size of the set's blocks of a field whose one-node
// block is base.
func (s *Sends) block(base int) int { return base * max(s.share, 1) }

// Propose returns v carved from the set.
func (s *Sends) Propose(v Propose) *Propose { return s.proposes.Place(v, s.block(SendBlock)) }

// Request returns v carved from the set.
func (s *Sends) Request(v Request) *Request { return s.requests.Place(v, s.block(SendBlock)) }

// Ack returns v carved from the set.
func (s *Sends) Ack(v Ack) *Ack { return s.acks.Place(v, s.block(SendBlock)) }

// Confirm returns v carved from the set.
func (s *Sends) Confirm(v Confirm) *Confirm { return s.confirms.Place(v, s.block(SendBlock)) }

// ConfirmResp returns v carved from the set.
func (s *Sends) ConfirmResp(v ConfirmResp) *ConfirmResp {
	return s.confirmResps.Place(v, s.block(SendBlock))
}

// Blame returns v carved from the set.
func (s *Sends) Blame(v Blame) *Blame { return s.blames.Place(v, s.block(SendBlock)) }

// Expel returns v carved from the set.
func (s *Sends) Expel(v Expel) *Expel { return s.expels.Place(v, s.block(SendBlock)) }

// Handoff returns v carved from the set.
func (s *Sends) Handoff(v Handoff) *Handoff { return s.handoffs.Place(v, s.block(SendBlock)) }

// Serves returns n zero serves carved from the set: the serves of one
// request.
func (s *Sends) Serves(n int) []Serve { return s.serves.carve(n, s.block(sendServeBlock)) }

// Chunks returns a copy of ids carved from the set's short-lived lists: a
// request's, a serve list.
func (s *Sends) Chunks(ids []ChunkID) []ChunkID {
	out := s.chunks.carve(len(ids), s.block(sendIDBlock))
	copy(out, ids)
	return out
}

// KeptChunks returns n zero ids carved from the set's long-lived lists: a
// proposal, a fan-in block.
func (s *Sends) KeptChunks(n int) []ChunkID { return s.kept.carve(n, s.block(sendIDBlock)) }

// Origins returns n zero node ids carved from the set: a proposal's origins.
func (s *Sends) Origins(n int) []NodeID { return s.origins.carve(n, s.block(sendIDBlock)) }

// Partners returns an empty list with room for n node ids, carved from the
// set's long-lived lists: a propose phase's partners, appended to it.
func (s *Sends) Partners(n int) []NodeID { return s.partners.carve(n, s.block(sendIDBlock))[:0] }

// Marks returns n zero words carved from the set's long-lived lists: the
// bitset that marks which chunks of a propose phase its partners requested.
func (s *Sends) Marks(n int) []uint64 { return s.marks.carve(n, s.block(sendBitBlock)) }

// ScratchChunks returns the set's scratch id list, emptied: append to it
// through the pointer, and what it grows to serves the next call.
func (s *Sends) ScratchChunks() *[]ChunkID {
	s.scratchChunks = s.scratchChunks[:0]
	return &s.scratchChunks
}

// ScratchNodes returns the set's scratch node list, emptied, as
// ScratchChunks does.
func (s *Sends) ScratchNodes() *[]NodeID {
	s.scratchNodes = s.scratchNodes[:0]
	return &s.scratchNodes
}

// ScratchServes returns the set's scratch list of fan-in records, emptied,
// as ScratchChunks does. The records' chunk lists are the caller's; what
// the list last held keeps them alive until the next call overwrites it.
func (s *Sends) ScratchServes() *[]ServeRecord {
	s.scratchServes = s.scratchServes[:0]
	return &s.scratchServes
}

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
	case KindHandoff:
		m = &Handoff{Sender: sender, Target: r.node(), TotalBlame: r.f64(), JoinPeriod: r.period(), Expelled: r.bool(), Reason: BlameReason(r.u8())}
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

// writer walks one message (see walk): it appends the bytes to buf or,
// counting, only adds their number to n. err holds the walk's error, if
// any.
type writer struct {
	buf   []byte
	count bool
	n     int
	err   error
}

// head walks what every message starts with: its kind and its sender.
func (w *writer) head(k Kind, sender NodeID) {
	w.u8(uint8(k))
	w.u32(uint32(sender))
}

func (w *writer) u8(v uint8) {
	if w.count {
		w.n++
		return
	}
	w.buf = append(w.buf, v)
}

func (w *writer) u32(v uint32) {
	if w.count {
		w.n += 4
		return
	}
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

func (w *writer) u64(v uint64) {
	if w.count {
		w.n += 8
		return
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	w.u8(b)
}

// raw walks p as it is.
func (w *writer) raw(p []byte) {
	if w.count {
		w.n += len(p)
		return
	}
	w.buf = append(w.buf, p...)
}

// length walks a list's 2-byte length.
func (w *writer) length(n int) {
	if n > maxListLen {
		w.err = ErrTooLong
	}
	if w.count {
		w.n += 2
		return
	}
	w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(n))
}

// list walks a length-prefixed list of 4-byte ids; counting, by arithmetic.
func list[T ~uint32](w *writer, ids []T) {
	w.length(len(ids))
	if w.count {
		w.n += 4 * len(ids)
		return
	}
	for _, id := range ids {
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(id))
	}
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
