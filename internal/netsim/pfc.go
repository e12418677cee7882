package netsim

import (
	"pmsb/internal/obs"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
)

// PFC implements hop-by-hop PAUSE flow control (802.3x-style, the
// lossless-fabric substrate DCQCN assumes): when the guarded switch's
// buffered bytes exceed Xoff, every registered upstream transmitter is
// paused; when they drain below Xon, transmission resumes. Pause
// signalling is modelled as instantaneous (real PAUSE frames take one
// link delay; the simplification is conservative for losslessness).
//
// The model is switch-level (one watermark over all the switch's output
// ports) because the simulator is output-queued; per-priority PFC would
// partition the watermark per service class.
type PFC struct {
	eng      *sim.Engine
	xoff     int
	xon      int
	buffered int
	paused   bool
	upstream []*Port

	pauses int64

	// node identifies the guarded switch in trace events; bus is nil
	// unless Observe was called.
	bus  *obs.Bus
	node pkt.NodeID
}

// NewPFC returns a controller with the given watermarks in bytes
// (xon < xoff; values are swapped if given in the wrong order).
func NewPFC(eng *sim.Engine, xoff, xon int) *PFC {
	if xon > xoff {
		xoff, xon = xon, xoff
	}
	return &PFC{eng: eng, xoff: xoff, xon: xon}
}

// Guard watches sw's current output ports: their combined occupancy
// drives the pause state. Call after all ports are added.
func (f *PFC) Guard(sw *Switch) {
	for i := 0; i < sw.NumPorts(); i++ {
		port := sw.Port(i)
		port.OnEnqueue(func(p *pkt.Packet, _ int) {
			f.add(p.Size)
		})
		port.OnDequeue(func(p *pkt.Packet, _ int) {
			f.add(-p.Size)
		})
	}
}

// Upstream registers a transmitter to pause when the guarded switch is
// congested (typically the ports of neighboring nodes whose links feed
// the switch).
func (f *PFC) Upstream(p *Port) {
	f.upstream = append(f.upstream, p)
	if f.paused {
		p.Pause()
	}
}

// Observe reports pause/resume transitions to bus, attributing them to
// the guarded switch's node ID. A nil bus disables reporting.
func (f *PFC) Observe(bus *obs.Bus, node pkt.NodeID) {
	f.bus = bus
	f.node = node
}

// Pauses counts Xoff crossings (pause events).
func (f *PFC) Pauses() int64 { return f.pauses }

func (f *PFC) add(delta int) {
	f.buffered += delta
	switch {
	case !f.paused && f.buffered > f.xoff:
		f.paused = true
		f.pauses++
		f.bus.PFCPause(f.eng.Now(), f.node, f.buffered)
		for _, p := range f.upstream {
			p.Pause()
		}
	case f.paused && f.buffered < f.xon:
		f.paused = false
		f.bus.PFCResume(f.eng.Now(), f.node, f.buffered)
		for _, p := range f.upstream {
			p.Resume()
		}
	}
}
