package pkt

import (
	"sync"
	"sync/atomic"
)

// Packet pooling removes the per-packet heap allocation from the
// simulator's hot loop. Ownership is linear and follows the packet's
// journey through the network:
//
//   - A producer obtains a packet with Get and hands it to the network
//     (Host.Send / Port.Send). From then on the packet is owned by
//     whichever component currently holds it: a scheduler queue, an
//     in-flight link event, or a dispatch handler.
//   - The terminal consumer — the transport endpoint that absorbs an
//     ACK or data packet, a port drop path, a host with no handler for
//     the flow, or a benchmark sink — calls Release exactly once.
//   - Components that merely observe a packet (taps, markers,
//     schedulers) never release it and must not retain the pointer past
//     their callback: after Release the record may be reused for an
//     unrelated packet.
//
// Holding a packet forever without releasing it is always safe (the
// pool is an optimization, not reference counting — unreleased packets
// are simply garbage collected), which keeps tests and tracing code
// that stash packet pointers correct by construction.
//
// The pool is safe for concurrent use; parallel experiment runners
// share it across engines. Determinism is unaffected because Get fully
// resets the record: no simulation state depends on which physical
// record a packet occupies.
var pool = sync.Pool{New: func() any { return new(Packet) }}

// debugPoison enables the use-after-release detector (see SetPoolDebug).
var debugPoison atomic.Bool

// SetPoolDebug toggles the pool's debug mode. When on, Release poisons
// every field of the returned packet with loud sentinel values (negative
// sizes and times, a 0xdead… ID) so any consumer that kept the pointer
// reads obviously-broken state instead of silently aliasing a future
// packet, and a double Release panics. The mode is race-clean: the flag
// is atomic and poisoning happens strictly before the record re-enters
// the (synchronized) pool.
func SetPoolDebug(on bool) { debugPoison.Store(on) }

// poisoned is the debug-mode sentinel state. Every numeric field is
// negative or nonsensical so downstream arithmetic (serialization
// times, buffer accounting, sequence matching) fails fast and visibly.
var poisoned = Packet{
	ID:         0xdeaddeaddeaddead,
	Flow:       0xdeaddeaddeaddead,
	Src:        NoNode,
	Dst:        NoNode,
	Size:       -1,
	Payload:    -1,
	Seq:        -1 << 62,
	AckNo:      -1 << 62,
	Service:    -1,
	SentAt:     -1 << 62,
	Echo:       -1 << 62,
	EnqueuedAt: -1 << 62,
	released:   true,
}

// statsState is the optional pool self-profile (see EnablePoolStats):
// gets/releases throughput counters and an in-use high-water mark. Like
// debugPoison, the whole block is gated on one atomic.Bool load so the
// disabled hot path pays a single predictable branch and no contended
// cache lines.
type statsState struct {
	enabled  atomic.Bool
	gets     atomic.Uint64
	releases atomic.Uint64
	inUse    atomic.Int64
	hiwater  atomic.Int64
}

var stats statsState

// PoolStats is a snapshot of the pool self-profile.
type PoolStats struct {
	// Gets / Releases count pool round-trips since EnablePoolStats.
	Gets     uint64 `json:"gets"`
	Releases uint64 `json:"releases"`
	// InUse is the current outstanding (got, not yet released) packet
	// count; HiWater is its maximum — the live packet population the
	// simulation actually needed.
	InUse   int64 `json:"inUse"`
	HiWater int64 `json:"hiwater"`
}

// EnablePoolStats toggles pool self-profiling, resetting the counters
// when turning it on. Counting is approximate only in that packets
// already outstanding at enable time make InUse go negative-leaning;
// enable before the simulation starts for exact numbers.
func EnablePoolStats(on bool) {
	if on {
		stats.gets.Store(0)
		stats.releases.Store(0)
		stats.inUse.Store(0)
		stats.hiwater.Store(0)
	}
	stats.enabled.Store(on)
}

// ReadPoolStats returns the current pool self-profile (zeros when
// profiling was never enabled).
func ReadPoolStats() PoolStats {
	return PoolStats{
		Gets:     stats.gets.Load(),
		Releases: stats.releases.Load(),
		InUse:    stats.inUse.Load(),
		HiWater:  stats.hiwater.Load(),
	}
}

// Get returns a zeroed packet from the pool. The caller owns it until
// it hands the packet to the network; see the ownership rules above.
func Get() *Packet {
	if stats.enabled.Load() {
		stats.gets.Add(1)
		n := stats.inUse.Add(1)
		for {
			hw := stats.hiwater.Load()
			if n <= hw || stats.hiwater.CompareAndSwap(hw, n) {
				break
			}
		}
	}
	p := pool.Get().(*Packet)
	*p = Packet{}
	return p
}

// Release returns a packet to the pool. Only the packet's terminal
// consumer may call it, exactly once; the pointer must not be used
// afterwards. Releasing nil is a no-op. Packets not obtained from Get
// may also be released (the pool absorbs them).
func Release(p *Packet) {
	if p == nil {
		return
	}
	if stats.enabled.Load() {
		stats.releases.Add(1)
		stats.inUse.Add(-1)
	}
	if debugPoison.Load() {
		if p.released {
			panic("pkt: double Release of the same packet")
		}
		*p = poisoned
	}
	pool.Put(p)
}
