// Package flowsim is the flow-level fluid fast path: it evolves active
// flows as rates over an engine-free topo.PathGraph instead of moving
// individual packets, trading packet-level fidelity for two to three
// orders of magnitude in wall clock. The packet engine stays the ground
// truth; internal/experiment's calibrate harness runs the same scenario
// (topology + workload + seed) through both and reports the FCT
// percentile error, which is the only license for trusting this model
// at scales the packet engine cannot reach (100k-host fabrics).
//
// The model has three layers (DESIGN.md section 10):
//
//   - Rates: a max-min fair water-filling solve over the path graph's
//     links assigns every active flow its bottleneck share, with a
//     slow-start ramp cap (the DCTCP window doubling, continuous form)
//     bounding young flows; only caps at or below the largest link
//     capacity can bind, so only those flows are ordered by cap. Solves
//     are quantum-coalesced: arrivals, finishes and ramp growth mark the
//     solver dirty, and one solve per quantum re-prices the fabric — the
//     solve count is bounded by simulated-time/quantum, not by the event
//     count, which is what makes 100k-host scenarios tractable.
//   - Fluid queues: each saturated link carries a fluid standing queue
//     relaxing toward the marking scheme's threshold target (the
//     DCTCP sawtooth mean), and draining at line rate when arrivals
//     fall below capacity. Marking schemes — PMSB, per-port, MQ-ECN —
//     are threshold targets for this depth (marking.go). Depth feeds
//     back into flow rates once: queue delay inflates the effective RTT
//     that paces the slow-start ramp. The depth never overshoots the
//     target (it relaxes toward it from below or drains), so there is
//     no DCTCP alpha cut to model; the max-min share already holds a
//     saturated link at its capacity.
//   - FCT accounting: a flow's completion time is its rate-integral
//     transmission time plus the delivery tail (per-hop propagation,
//     store-and-forward serialization, fluid queue delay) and the ACK
//     return path — the same last-byte-acked semantics the packet
//     transport reports.
//
// Flow events ride the simulation engine's calendar queue (sim.Engine),
// so flowsim composes with the existing run loop, monitors and
// deterministic-replay machinery unchanged.
package flowsim

import (
	"cmp"
	"math"
	"slices"
	"time"

	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

const (
	// utilBusy is the utilization above which a link is treated as
	// saturated (its fluid queue relaxes toward the marking target).
	utilBusy = 0.99
	// finishEps is the residual byte count below which a flow counts as
	// complete (absorbs float integration error).
	finishEps = 1.0
	// rampExpMax clamps the slow-start doubling exponent so the ramp cap
	// stays a finite float long after it stopped binding.
	rampExpMax = 40
	// relaxRTTs is the fluid queue relaxation time constant in units of
	// the graph's BaseRTT (the DCTCP sawtooth period scale).
	relaxRTTs = 2
)

// Config tunes a flow-level simulation.
type Config struct {
	// Marking is the fluid marking scheme (required).
	Marking Marking
	// Weights are the per-service scheduler weights; services index it
	// modulo its length (default: one service, weight 1).
	Weights []int
	// InitWindow is the initial congestion window in segments
	// (default 16), the slow-start ramp's starting rate.
	InitWindow int
	// NoSlowStart disables the ramp cap: flows jump straight to their
	// max-min share. Used by the closed-form solver tests.
	NoSlowStart bool
	// OnFinish, when non-nil, receives every completed flow.
	OnFinish func(FlowResult)
}

// FlowResult reports one completed flow.
type FlowResult struct {
	// Index is the flow's position in the Start specs (its flow ID is
	// Index+1, matching transport.FlowIDGen's assignment order).
	Index int
	// Spec is the generating spec.
	Spec workload.FlowSpec
	// FCT is the completion time (start to last byte acked).
	FCT time.Duration
}

// flowRec is one flow's state.
type flowRec struct {
	spec workload.FlowSpec
	// path holds the directed link indices (engine-free routing).
	path [8]int32
	plen int8
	done bool
	// remaining is the unsent byte count at lastT.
	remaining float64
	// rate is the current sending rate in bytes/sec (piecewise constant
	// between solves; -1 marks "unfrozen" during a solve).
	rate float64
	// tail is the flow-constant part of the delivery tail: propagation
	// both ways, store-and-forward MTU serialization downstream, ACK
	// serialization on the return path.
	tail time.Duration
	// lastT is the time remaining was last integrated to.
	lastT time.Duration
	// activeIdx is the flow's slot in the active list (-1 when done).
	activeIdx int32
}

// linkState is one directed link's rate-solver and fluid-queue state.
type linkState struct {
	cap float64 // bytes/sec
	// Fluid state.
	q      float64       // standing queue depth, bytes
	arr    float64       // aggregate arrival rate from the last solve
	qdelay float64       // q/cap seconds, cached per solve
	seen   time.Duration // last solve that touched this link
	// Solver scratch.
	rem    float64
	nUn    int32
	nFlows int32
	stamp  uint32
	csrPos int32
}

// rampKey orders a flow for the water-filling by its ramp cap, flow
// index breaking ties.
type rampKey struct {
	cap float64
	idx int32
}

func cmpRamp(a, b rampKey) int {
	if c := cmp.Compare(a.cap, b.cap); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// Sim is a flow-level simulation bound to an engine.
type Sim struct {
	eng     *sim.Engine
	cfg     Config
	g       *topo.PathGraph
	quantum time.Duration
	baseRTT float64 // seconds
	relax   float64 // fluid relaxation time constant, seconds
	nsvc    int
	target  float64 // the marking scheme's standing queue, bytes
	maxCap  float64 // the largest link capacity, bytes/sec

	flows  []flowRec
	order  []int32 // arrival order (specs sorted by start, stable)
	nextA  int     // next arrival cursor into order
	active []int32

	links []linkState

	touched  []int32
	csrFlows []int32
	heap     []heapEnt
	rampOrd  []rampKey

	finishQ []finishEnt
	fi      int

	lastSolve   time.Duration
	solveSet    bool
	solveTimer  sim.Timer
	finishSet   bool
	finishTimer sim.Timer
	arrTimer    sim.Timer

	completed int
}

type finishEnt struct {
	t   time.Duration
	idx int32
}

// New binds a flow-level simulation to an engine and a path graph. Flow
// events (arrivals, quantum solves, finishes) are scheduled on eng's
// calendar queue; drive the run with eng.RunUntil as usual.
func New(eng *sim.Engine, g *topo.PathGraph, cfg Config) *Sim {
	if cfg.Marking == nil {
		panic("flowsim: Config.Marking is required")
	}
	if len(cfg.Weights) == 0 {
		cfg.Weights = []int{1}
	}
	if cfg.InitWindow <= 0 {
		cfg.InitWindow = 16
	}
	// The solver coalescing interval is BaseRTT/2, clamped to
	// [1us, 100us]. Rates are piecewise constant per quantum, so it
	// bounds both the solve count and the FCT error; half an RTT keeps
	// roughly two solves per slow-start doubling round (the ramp is the
	// fastest-moving rate input) while bounding FCT error by a fraction
	// of the base RTT.
	q := g.BaseRTT / 2
	if q < time.Microsecond {
		q = time.Microsecond
	}
	if q > 100*time.Microsecond {
		q = 100 * time.Microsecond
	}
	s := &Sim{
		eng:     eng,
		cfg:     cfg,
		g:       g,
		quantum: q,
		baseRTT: g.BaseRTT.Seconds(),
		relax:   relaxRTTs * g.BaseRTT.Seconds(),
		nsvc:    len(cfg.Weights),
		target:  cfg.Marking.PortTarget(),
		links:   make([]linkState, len(g.Links)),
	}
	for i := range g.Links {
		c := float64(g.Links[i].Rate) / 8
		s.links[i].cap = c
		s.maxCap = max(s.maxCap, c)
	}
	return s
}

// Quantum returns the solver coalescing interval in effect.
func (s *Sim) Quantum() time.Duration { return s.quantum }

// Completed returns the number of finished flows.
func (s *Sim) Completed() int { return s.completed }

// FlowRate returns flow i's current rate in bytes/sec (0 once done).
func (s *Sim) FlowRate(i int) float64 {
	f := &s.flows[i]
	if f.done || f.rate < 0 {
		return 0
	}
	return f.rate
}

// PortDepth returns link l's fluid standing-queue depth in bytes.
func (s *Sim) PortDepth(l int) float64 { return s.links[l].q }

// ServiceDepth returns service svc's weight-proportional share of link
// l's fluid depth — the per-queue occupancy the packet engine's traces
// report per (node, port, queue). The busy services are those with a
// flow in the link's slice of the last solve's index; nothing in the
// solve itself depends on the split.
func (s *Sim) ServiceDepth(l, svc int) float64 {
	ls := &s.links[l]
	busy := make([]bool, s.nsvc)
	for _, idx := range s.csrFlows[ls.csrPos : ls.csrPos+ls.nFlows] {
		busy[s.flows[idx].spec.Service%s.nsvc] = true
	}
	if !busy[svc%s.nsvc] {
		return 0
	}
	busyW := 0
	for sv, b := range busy {
		if b {
			busyW += s.weight(sv)
		}
	}
	return ls.q * float64(s.weight(svc)) / float64(busyW)
}

func (s *Sim) weight(svc int) int {
	w := s.cfg.Weights[svc%s.nsvc]
	if w <= 0 {
		w = 1
	}
	return w
}

// Start registers the workload and schedules its arrivals. Flow i gets
// flow ID i+1 — the same IDs transport.FlowIDGen hands the packet
// engine for the identical spec slice, so ECMP path choices agree
// between engines. Call once, before running the engine.
func (s *Sim) Start(specs []workload.FlowSpec) {
	if len(s.flows) > 0 {
		panic("flowsim: Start called twice")
	}
	s.flows = make([]flowRec, len(specs))
	s.order = make([]int32, len(specs))
	for i, spec := range specs {
		f := &s.flows[i]
		f.spec = spec
		f.rate = 0
		f.remaining = float64(spec.Size)
		f.activeIdx = -1
		path := s.g.PathFor(spec.Src, spec.Dst, uint64(i)+1, f.path[:0])
		if len(path) == 0 || len(path) > len(f.path) {
			panic("flowsim: spec path degenerate or longer than the inline path array")
		}
		copy(f.path[:], path)
		f.plen = int8(len(path))
		f.tail = s.deliveryTail(path)
		s.order[i] = int32(i)
	}
	// Arrivals fire in start order; the stable sort keeps spec order as
	// the tiebreak so same-instant arrivals admit deterministically.
	slices.SortStableFunc(s.order, func(a, b int32) int {
		return cmp.Compare(s.flows[a].spec.Start, s.flows[b].spec.Start)
	})
	if len(s.order) > 0 {
		s.arrTimer = s.eng.ScheduleCallAt(s.flows[s.order[0]].spec.Start, arriveFn, s)
	}
}

// deliveryTail precomputes the flow-constant delivery latency: the last
// data byte propagates every hop and is store-and-forwarded (one MTU
// serialization) at every hop past the first — the first link's
// serialization is inside the rate integral — and the ACK returns over
// the reverse path (propagation plus its own serialization per hop).
func (s *Sim) deliveryTail(path []int32) time.Duration {
	var tail time.Duration
	for i, li := range path {
		l := s.g.Links[li]
		tail += 2 * l.Delay
		if i > 0 {
			tail += units.Serialization(units.MTU, l.Rate)
		}
		tail += units.Serialization(units.AckSize, l.Rate)
	}
	return tail
}

// arriveFn admits every flow whose start time has come, then
// reschedules itself for the next arrival.
func arriveFn(arg any) {
	s := arg.(*Sim)
	now := s.eng.Now()
	for s.nextA < len(s.order) {
		f := &s.flows[s.order[s.nextA]]
		if f.spec.Start > now {
			break
		}
		s.admit(s.order[s.nextA], now)
		s.nextA++
	}
	if s.nextA < len(s.order) {
		s.arrTimer = s.eng.ScheduleCallAt(s.flows[s.order[s.nextA]].spec.Start, arriveFn, s)
	}
	s.ensureSolve(now)
}

// admit activates a flow. Until the next quantum solve re-prices the
// fabric it sends at the initial-window rate (the packet sender's first
// RTT is cwnd-limited the same way), bounded by its path's capacity.
func (s *Sim) admit(idx int32, now time.Duration) {
	f := &s.flows[idx]
	f.lastT = now
	if s.cfg.NoSlowStart {
		f.rate = 0
	} else {
		r := float64(s.cfg.InitWindow) * units.MSS / s.baseRTT
		for _, li := range f.path[:f.plen] {
			if c := s.links[li].cap; c < r {
				r = c
			}
		}
		f.rate = r
	}
	f.activeIdx = int32(len(s.active))
	s.active = append(s.active, idx)
}

// ensureSolve schedules a quantum-aligned solve if none is pending.
// Arrivals may solve at the current instant (so a NoSlowStart flow gets
// its rate immediately); the running solve chain always advances one
// full quantum.
func (s *Sim) ensureSolve(now time.Duration) {
	s.scheduleSolveAt(boundaryAtOrAfter(now, s.quantum))
}

func (s *Sim) scheduleSolveAt(at time.Duration) {
	if s.solveSet || len(s.active) == 0 {
		return
	}
	s.solveSet = true
	s.solveTimer = s.eng.ScheduleCallAt(at, solveFn, s)
}

func boundaryAtOrAfter(t, q time.Duration) time.Duration {
	at := t.Truncate(q)
	if at < t {
		at += q
	}
	return at
}

func solveFn(arg any) {
	s := arg.(*Sim)
	s.solveSet = false
	now := s.eng.Now()
	s.solve(now)
	s.scheduleSolveAt(boundaryAtOrAfter(now, s.quantum) + s.quantum)
}

// solve is the quantum boundary: integrate transmitted bytes, advance
// the fluid queues, rebuild the link<->flow index and run the max-min
// water-filling, then project finishes up to the next boundary.
func (s *Sim) solve(now time.Duration) {
	// Integrate the interval just ended and reap stragglers whose
	// projected finish the event queue already passed.
	for i := len(s.active) - 1; i >= 0; i-- {
		idx := s.active[i]
		f := &s.flows[idx]
		f.remaining -= f.rate * (now - f.lastT).Seconds()
		f.lastT = now
		if f.remaining <= finishEps {
			s.finishFlow(idx, now)
		}
	}
	s.advanceFluid(now)
	s.buildIndex(now)
	s.waterfill()
	// Aggregate arrivals per link for the next fluid step: capacity not
	// left over was assigned.
	for _, li := range s.touched {
		l := &s.links[li]
		rem := l.rem
		if rem < 0 {
			rem = 0
		}
		l.arr = l.cap - rem
	}
	s.projectFinishes(now)
	s.lastSolve = now
}

// advanceFluid moves every previously-busy link's fluid queue across
// the elapsed interval: saturated links relax toward the marking
// scheme's threshold target (the DCTCP sawtooth mean) and underloaded
// links drain at the spare rate. It then clears the solver's per-link
// counts for the rebuild that follows.
func (s *Sim) advanceFluid(now time.Duration) {
	dt := (now - s.lastSolve).Seconds()
	for _, li := range s.touched {
		l := &s.links[li]
		if dt > 0 {
			if l.arr >= utilBusy*l.cap && s.target > 0 {
				k := dt / s.relax
				if k > 1 {
					k = 1
				}
				l.q += (s.target - l.q) * k
			} else {
				l.q -= (l.cap - l.arr) * dt
				if l.q < 0 {
					l.q = 0
				}
			}
		}
		l.seen = now
		l.arr = 0
		l.nFlows = 0
	}
	s.touched = s.touched[:0]
}

// buildIndex rebuilds the link->flows index (CSR layout) over the
// active set and refreshes each touched link's cached queue delay. The
// fill pass also prices every flow for the water-filling: its effective
// RTT (base plus the fluid queue delays on its path) paces its
// slow-start ramp cap — the depth-to-rate feedback loop. Only a cap at
// or below the largest link capacity can ever bind
// (no fair share exceeds a link's capacity), so only those flows enter
// rampOrd, sorted by cap.
func (s *Sim) buildIndex(now time.Duration) {
	// Count pass.
	for _, idx := range s.active {
		f := &s.flows[idx]
		for _, li := range f.path[:f.plen] {
			l := &s.links[li]
			if l.nFlows == 0 {
				s.touched = append(s.touched, li)
				// A link idle since an earlier solve drained at line
				// rate in the meantime.
				if gap := (now - l.seen).Seconds(); gap > 0 {
					l.q -= l.cap * gap
					if l.q < 0 {
						l.q = 0
					}
				}
				l.seen = now
			}
			l.nFlows++
		}
	}
	// CSR offsets.
	total := int32(0)
	for _, li := range s.touched {
		l := &s.links[li]
		l.qdelay = l.q / l.cap
		l.rem = l.cap
		l.nUn = l.nFlows
		l.stamp++
		l.csrPos = total
		total += l.nFlows
	}
	if cap(s.csrFlows) < int(total) {
		s.csrFlows = make([]int32, total)
	}
	s.csrFlows = s.csrFlows[:total]
	// Fill pass: csrPos advances past each link's slice and is rewound
	// below; every link state the ramp reads is final by now.
	s.rampOrd = s.rampOrd[:0]
	for _, idx := range s.active {
		f := &s.flows[idx]
		f.rate = -1
		rtt := s.baseRTT
		for _, li := range f.path[:f.plen] {
			l := &s.links[li]
			s.csrFlows[l.csrPos] = idx
			l.csrPos++
			rtt += l.qdelay
		}
		if s.cfg.NoSlowStart {
			continue
		}
		exp := (now - f.spec.Start).Seconds() / rtt
		if exp > rampExpMax {
			exp = rampExpMax
		}
		if c := float64(s.cfg.InitWindow) * units.MSS / rtt * math.Exp2(exp); c <= s.maxCap {
			s.rampOrd = append(s.rampOrd, rampKey{cap: c, idx: idx})
		}
	}
	for _, li := range s.touched {
		l := &s.links[li]
		l.csrPos -= l.nFlows
	}
	slices.SortFunc(s.rampOrd, cmpRamp)
}

// projectFinishes collects the flows that complete before the next
// quantum boundary under their just-assigned rates and schedules the
// earliest exactly. Rates only rise as competitors depart, so a
// projected finish is never early by more than the quantum.
func (s *Sim) projectFinishes(now time.Duration) {
	s.finishQ = s.finishQ[:0]
	s.fi = 0
	horizon := now + s.quantum
	for _, idx := range s.active {
		f := &s.flows[idx]
		if f.rate <= 0 {
			continue
		}
		dt := time.Duration(f.remaining / f.rate * 1e9)
		if now+dt <= horizon {
			s.finishQ = append(s.finishQ, finishEnt{t: now + dt, idx: idx})
		}
	}
	slices.SortFunc(s.finishQ, func(a, b finishEnt) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	s.scheduleFinish()
}

func (s *Sim) scheduleFinish() {
	if s.finishSet {
		s.finishTimer.Cancel()
		s.finishSet = false
	}
	if s.fi < len(s.finishQ) {
		s.finishSet = true
		s.finishTimer = s.eng.ScheduleCallAt(s.finishQ[s.fi].t, finishFn, s)
	}
}

func finishFn(arg any) {
	s := arg.(*Sim)
	s.finishSet = false
	now := s.eng.Now()
	for s.fi < len(s.finishQ) && s.finishQ[s.fi].t <= now {
		idx := s.finishQ[s.fi].idx
		s.fi++
		f := &s.flows[idx]
		if f.done {
			continue
		}
		f.remaining -= f.rate * (now - f.lastT).Seconds()
		f.lastT = now
		if f.remaining <= finishEps {
			s.finishFlow(idx, now)
		}
	}
	s.scheduleFinish()
}

// finishFlow completes a flow at its exact transmission-finish instant:
// the FCT adds the delivery tail (propagation, store-and-forward
// serialization, current fluid queue delays) and removes the flow from
// the active set.
func (s *Sim) finishFlow(idx int32, now time.Duration) {
	f := &s.flows[idx]
	f.done = true
	f.rate = 0
	s.completed++
	tail := f.tail
	for _, li := range f.path[:f.plen] {
		l := &s.links[li]
		if l.q > 0 {
			tail += time.Duration(l.q / l.cap * 1e9)
		}
	}
	// Swap-remove from the active list.
	ai := f.activeIdx
	last := s.active[len(s.active)-1]
	s.active[ai] = last
	s.flows[last].activeIdx = ai
	s.active = s.active[:len(s.active)-1]
	f.activeIdx = -1
	if s.cfg.OnFinish != nil {
		s.cfg.OnFinish(FlowResult{
			Index: int(idx),
			Spec:  f.spec,
			FCT:   now - f.spec.Start + tail,
		})
	}
}
