package netsim

import (
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
)

// Arena slab-allocates a fabric's node state. Building a k=32 fat-tree
// port-by-port costs ~460k heap objects; with an arena the same fabric
// is a handful of slabs — ports (each with its link embedded), hosts,
// switches, and the switches' port-reference tables — cut down to one
// allocation per kind. Pointers into the slabs are stable for the
// arena's lifetime: the slabs never grow, and requests beyond a slab's
// capacity fall back to individual heap allocations (fail-soft, counted
// in Overflow) rather than reallocating.
//
// An arena is single-threaded during construction. In sharded fabrics
// each shard gets its own arena so that two shards' hot port state
// never shares a cache line (the slabs are distinct heap blocks).
//
// Reset reclaims the slabs for building a replacement fabric; the
// caller must guarantee nothing references the old one. Packets are
// NOT arena state — they stay on the global pkt pool, whose lifecycle
// (and poison-debug mode) is orthogonal to topology memory.
type Arena struct {
	ports    []Port
	hosts    []Host
	switches []Switch
	portRefs []*Port

	overflow int
}

// ArenaSpec reserves slab capacities: the exact object counts of the
// fabric about to be built. PortRefs is the total switch port-table
// capacity (sum over switches of their port count).
type ArenaSpec struct {
	Ports    int
	Hosts    int
	Switches int
	PortRefs int
}

// NewArena reserves slabs per the spec.
func NewArena(spec ArenaSpec) *Arena {
	return &Arena{
		ports:    make([]Port, 0, spec.Ports),
		hosts:    make([]Host, 0, spec.Hosts),
		switches: make([]Switch, 0, spec.Switches),
		portRefs: make([]*Port, 0, spec.PortRefs),
	}
}

// NewPort carves a port from the slab (or falls back to the heap when
// the reservation is exhausted) and initializes it like NewPort. The
// link is embedded by value.
func (a *Arena) NewPort(link Link, cfg PortConfig) *Port {
	var p *Port
	if len(a.ports) < cap(a.ports) {
		a.ports = a.ports[:len(a.ports)+1]
		p = &a.ports[len(a.ports)-1]
	} else {
		a.overflow++
		p = &Port{}
	}
	p.init(link, cfg)
	return p
}

// NewHost carves a host.
func (a *Arena) NewHost(eng *sim.Engine, id pkt.NodeID) *Host {
	if len(a.hosts) < cap(a.hosts) {
		a.hosts = a.hosts[:len(a.hosts)+1]
		h := &a.hosts[len(a.hosts)-1]
		h.eng = eng
		h.id = id
		return h
	}
	a.overflow++
	return NewHost(eng, id)
}

// NewSwitch carves a switch whose port table (capacity portCap) is cut
// from the shared reference slab. The three-index slice expression caps
// the table so an over-AddPort appends into a fresh heap slice instead
// of clobbering the next switch's entries.
func (a *Arena) NewSwitch(eng *sim.Engine, id pkt.NodeID, portCap int) *Switch {
	var s *Switch
	if len(a.switches) < cap(a.switches) {
		a.switches = a.switches[:len(a.switches)+1]
		s = &a.switches[len(a.switches)-1]
		s.eng = eng
		s.id = id
	} else {
		a.overflow++
		s = NewSwitch(eng, id)
	}
	if n := len(a.portRefs); n+portCap <= cap(a.portRefs) {
		a.portRefs = a.portRefs[:n+portCap]
		s.ports = a.portRefs[n : n : n+portCap]
	}
	return s
}

// Overflow reports how many objects were requested beyond the reserved
// capacities (0 for a correctly sized spec).
func (a *Arena) Overflow() int { return a.overflow }
