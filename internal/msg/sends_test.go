package msg

import (
	"runtime"
	"testing"
)

// A Sends set's blocks are its one-node sizes times the nodes wired to it,
// up to maxSendShare times. A set one node carves from — a udp node's —
// refills exactly every SendBlock structs, sendServeBlock serves,
// sendIDBlock ids and sendBitBlock mark words, so its standing partial blocks stay those of one node; a
// set a shard's thousands of nodes carve from refills maxSendShare times
// less often. Carving one block's worth allocates exactly one block, wherever
// the carves before left it: a block twice too large would read 0 here, one
// half too small 2.
func TestSendsBlocksScaleWithWiredNodes(t *testing.T) {
	// The runtime's first collection starts its mark workers, allocating
	// as it does; with the blocks these cases allocate it can fall inside
	// a measurement. One collection now keeps it out of them.
	runtime.GC()
	for _, tc := range []struct {
		name         string
		wired, share int
	}{
		{"one node", 1, 1},
		{"two nodes", 2, 2},
		{"a shard", 2000, maxSendShare},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s Sends
			for i := 0; i < tc.wired; i++ {
				s.Wire()
			}
			ids := make([]ChunkID, 8) // one list of a steady round's length
			for _, k := range []struct {
				name  string
				block int
				carve func()
			}{
				{"Propose", SendBlock, func() { s.Propose(Propose{}) }},
				{"Request", SendBlock, func() { s.Request(Request{}) }},
				{"Ack", SendBlock, func() { s.Ack(Ack{}) }},
				{"Confirm", SendBlock, func() { s.Confirm(Confirm{}) }},
				{"ConfirmResp", SendBlock, func() { s.ConfirmResp(ConfirmResp{}) }},
				{"Blame", SendBlock, func() { s.Blame(Blame{}) }},
				{"Expel", SendBlock, func() { s.Expel(Expel{}) }},
				{"Handoff", SendBlock, func() { s.Handoff(Handoff{}) }},
				{"Serves", sendServeBlock, func() { s.Serves(1) }},
				{"Chunks", sendIDBlock / len(ids), func() { s.Chunks(ids) }},
				{"KeptChunks", sendIDBlock / len(ids), func() { s.KeptChunks(len(ids)) }},
				{"Origins", sendIDBlock / len(ids), func() { s.Origins(len(ids)) }},
				{"Partners", sendIDBlock / len(ids), func() { s.Partners(len(ids)) }},
				{"Marks", sendBitBlock / 2, func() { s.Marks(2) }},
			} {
				carves := k.block * tc.share
				got := testing.AllocsPerRun(3, func() {
					for i := 0; i < carves; i++ {
						k.carve()
					}
				})
				if got != 1 {
					t.Errorf("%s: %d carves from a set wired to %d nodes allocate %v blocks, want 1", k.name, carves, tc.wired, got)
				}
			}
		})
	}
}
