package flowsim

// Marking maps an ECN marking scheme onto the fluid model as the
// standing queue (bytes) the DCTCP sawtooth pins a saturated port at.
// Per-port schemes (PMSB, plain per-port) hold it at the port threshold
// K regardless of how many queues are busy; MQ-ECN's per-queue dynamic
// thresholds aggregate back to its standard threshold.
//
// The fluid per-service depth split is weight-proportional (round-based
// schedulers drain queues by weight, so standing occupancy settles the
// same way): service s holds q * w_s / W_busy of the port depth q
// (Sim.ServiceDepth works it out on read; no rate depends on it). With
// that split, PMSB's selective-blindness filter (q_s < K * w_s / W_busy)
// is exactly q < K, so it never exempts a service of a link whose depth
// overshot K: in this model PMSB equals plain per-port marking, and the
// solve needs only the port target, which is constant for a run.
type Marking interface {
	// PortTarget returns the standing fluid queue (bytes) at a
	// saturated link.
	PortTarget() float64
}

// PMSB is per-port marking with selective blindness; in the fluid
// model it reduces to per-port marking at its port threshold (see
// Marking).
type PMSB struct {
	// KBytes is the port threshold in bytes.
	KBytes float64
}

// PortTarget implements Marking: the port threshold, independent of the
// busy-queue count.
func (m PMSB) PortTarget() float64 { return m.KBytes }

// PerPort is plain per-port marking (PMSB without the blindness
// filter): every busy service reacts to port-level congestion.
type PerPort struct {
	// KBytes is the port threshold in bytes.
	KBytes float64
}

// PortTarget implements Marking.
func (m PerPort) PortTarget() float64 { return m.KBytes }

// MQECN models MQ-ECN: per-queue dynamic thresholds that aggregate to
// the standard threshold, so the port-level standing queue is K
// regardless of the busy-queue count (its weakness versus PMSB is the
// larger K it needs, not buildup).
type MQECN struct {
	// KBytes is the standard threshold in bytes.
	KBytes float64
}

// PortTarget implements Marking.
func (m MQECN) PortTarget() float64 { return m.KBytes }
