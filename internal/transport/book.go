package transport

import (
	"fmt"
	gonet "net"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync"

	"lifting/internal/msg"
)

// Book is the peer address book: it maps node ids to UDP addresses. The
// runtime adds every socket it binds; every other member's address comes
// from a bootstrap peer spec (-peers on the daemon, which must name every
// member). Nothing is learned from inbound traffic. A Book is safe for
// concurrent use and may be shared by several runtimes in one process (the
// single-process-many-sockets mode).
type Book struct {
	mu    sync.RWMutex
	addrs map[msg.NodeID]netip.AddrPort
}

// NewBook returns an empty address book.
func NewBook() *Book {
	return &Book{addrs: make(map[msg.NodeID]netip.AddrPort)}
}

// Set resolves addr ("host:port") and records it as id's address,
// overwriting any previous entry.
func (b *Book) Set(id msg.NodeID, addr string) error {
	u, err := gonet.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolving %q for node %d: %w", addr, id, err)
	}
	b.SetAddr(id, u.AddrPort())
	return nil
}

// SetAddr records a resolved address for id, overwriting any previous entry.
func (b *Book) SetAddr(id msg.NodeID, addr netip.AddrPort) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs[id] = unmap(addr)
}

// unmap stores IPv4 peers in their 4-byte form, whichever socket family
// reported them: a dual-stack socket reads ::ffff:a.b.c.d, and an IPv4
// socket cannot write to that form.
func unmap(a netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(a.Addr().Unmap(), a.Port())
}

// Lookup returns id's address.
func (b *Book) Lookup(id msg.NodeID) (netip.AddrPort, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	a, ok := b.addrs[id]
	return a, ok
}

// IDs returns every node with a known address, in id order.
func (b *Book) IDs() []msg.NodeID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ids := make([]msg.NodeID, 0, len(b.addrs))
	for id := range b.addrs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ParsePeers parses a bootstrap peer spec: comma-separated "id=host:port"
// entries, e.g. "0=127.0.0.1:9000,1=127.0.0.1:9001". Empty entries are
// skipped so trailing commas are harmless.
func ParsePeers(spec string) (map[msg.NodeID]string, error) {
	out := make(map[msg.NodeID]string)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addr, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("transport: peer %q is not id=host:port", entry)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(id), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("transport: peer %q: bad node id: %w", entry, err)
		}
		if _, dup := out[msg.NodeID(n)]; dup {
			return nil, fmt.Errorf("transport: node %d appears twice in peer spec", n)
		}
		out[msg.NodeID(n)] = strings.TrimSpace(addr)
	}
	return out, nil
}
