package flowsim

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// refAlphaGain is the reference's DCTCP alpha EWMA gain g.
const refAlphaGain = 1.0 / 16

// refSolver is the reference solve the production one is held to: every
// active flow sorted by ramp cap (sort.Slice over flow indices, the cap
// clamped at four times the largest link capacity), a per-service census
// refreshed at every solve, a DCTCP alpha per link that throttles the
// ramp of the flows crossing a link whose depth overshot its target,
// and the ramp priced in a pass of its own after the index is built. It
// drives its own Sim through the same inputs as the production solve,
// which has no alpha: the fuzz asserts the reference's alpha stays 0,
// which is what licenses leaving it out.
type refSolver struct {
	s       *Sim
	svcCnt  []int32   // [link*nsvc + svc] active-flow counts
	busyW   []int32   // per link: summed weight of the busy services
	target  []float64 // per link: marking target from the last solve
	alpha   []float64 // per link: DCTCP alpha (marking-overshoot EWMA)
	caps    []float64 // per flow: ramp cap of the current solve
	rampOrd []int32
}

func newRefSolver(s *Sim) *refSolver {
	return &refSolver{
		s:      s,
		svcCnt: make([]int32, len(s.links)*s.nsvc),
		busyW:  make([]int32, len(s.links)),
		target: make([]float64, len(s.links)),
		alpha:  make([]float64, len(s.links)),
		caps:   make([]float64, len(s.flows)),
	}
}

func (r *refSolver) solve(now time.Duration) {
	s := r.s
	for i := len(s.active) - 1; i >= 0; i-- {
		idx := s.active[i]
		f := &s.flows[idx]
		f.remaining -= f.rate * (now - f.lastT).Seconds()
		f.lastT = now
		if f.remaining <= finishEps {
			s.finishFlow(idx, now)
		}
	}
	r.advanceFluid(now)
	r.buildIndex(now)
	r.prepareRamp(now)
	r.waterfill()
	for _, li := range s.touched {
		l := &s.links[li]
		rem := l.rem
		if rem < 0 {
			rem = 0
		}
		l.arr = l.cap - rem
	}
	s.lastSolve = now
}

func (r *refSolver) advanceFluid(now time.Duration) {
	s := r.s
	dt := (now - s.lastSolve).Seconds()
	for _, li := range s.touched {
		l := &s.links[li]
		target := r.target[li]
		if dt > 0 {
			if l.arr >= utilBusy*l.cap && target > 0 {
				k := dt / s.relax
				if k > 1 {
					k = 1
				}
				l.q += (target - l.q) * k
			} else {
				l.q -= (l.cap - l.arr) * dt
				if l.q < 0 {
					l.q = 0
				}
			}
			over := 0.0
			if target > 0 && l.q > target {
				over = (l.q - target) / target
				if over > 1 {
					over = 1
				}
			}
			g := refAlphaGain * dt / s.baseRTT
			if g > 1 {
				g = 1
			}
			r.alpha[li] += g * (over - r.alpha[li])
		}
		l.seen = now
		l.arr = 0
		l.nFlows = 0
		r.busyW[li] = 0
		base := int(li) * s.nsvc
		for sv := 0; sv < s.nsvc; sv++ {
			r.svcCnt[base+sv] = 0
		}
	}
	s.touched = s.touched[:0]
}

func (r *refSolver) buildIndex(now time.Duration) {
	s := r.s
	for _, idx := range s.active {
		f := &s.flows[idx]
		for _, li := range f.path[:f.plen] {
			l := &s.links[li]
			if l.nFlows == 0 {
				s.touched = append(s.touched, li)
				if gap := (now - l.seen).Seconds(); gap > 0 {
					l.q -= l.cap * gap
					if l.q < 0 {
						l.q = 0
					}
					r.alpha[li] = 0
				}
				l.seen = now
			}
			l.nFlows++
			r.svcCnt[int(li)*s.nsvc+f.spec.Service%s.nsvc]++
		}
	}
	total := int32(0)
	for _, li := range s.touched {
		l := &s.links[li]
		base := int(li) * s.nsvc
		for sv := 0; sv < s.nsvc; sv++ {
			if r.svcCnt[base+sv] > 0 {
				r.busyW[li] += int32(s.weight(sv))
			}
		}
		r.target[li] = s.cfg.Marking.PortTarget()
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
	for _, idx := range s.active {
		f := &s.flows[idx]
		for _, li := range f.path[:f.plen] {
			l := &s.links[li]
			s.csrFlows[l.csrPos] = idx
			l.csrPos++
		}
	}
	for _, li := range s.touched {
		l := &s.links[li]
		l.csrPos -= l.nFlows
	}
}

func (r *refSolver) prepareRamp(now time.Duration) {
	s := r.s
	r.rampOrd = append(r.rampOrd[:0], s.active...)
	maxRamp := 4 * s.maxCap
	for _, idx := range s.active {
		f := &s.flows[idx]
		f.rate = -1
		if s.cfg.NoSlowStart {
			r.caps[idx] = math.Inf(1)
			continue
		}
		rtt := s.baseRTT
		throttle := 1.0
		for _, li := range f.path[:f.plen] {
			l := &s.links[li]
			rtt += l.qdelay
			if r.alpha[li] > 0 && r.target[li] > 0 && l.q > r.target[li] {
				if t := 1 - r.alpha[li]/2; t < throttle {
					throttle = t
				}
			}
		}
		exp := (now - f.spec.Start).Seconds() / rtt
		if exp > rampExpMax {
			exp = rampExpMax
		}
		c := float64(s.cfg.InitWindow) * units.MSS / rtt * math.Exp2(exp) * throttle
		if c > maxRamp {
			c = maxRamp
		}
		r.caps[idx] = c
	}
	if !s.cfg.NoSlowStart {
		sort.Slice(r.rampOrd, func(a, b int) bool {
			ca, cb := r.caps[r.rampOrd[a]], r.caps[r.rampOrd[b]]
			if ca != cb {
				return ca < cb
			}
			return r.rampOrd[a] < r.rampOrd[b]
		})
	}
}

func (r *refSolver) peekLink() int {
	s := r.s
	for len(s.heap) > 0 {
		e := &s.heap[0]
		l := &s.links[e.link]
		if e.stamp == l.stamp && l.nUn > 0 {
			return int(e.link)
		}
		s.heapPop()
	}
	return -1
}

func (r *refSolver) waterfill() {
	s := r.s
	s.heap = s.heap[:0]
	for _, li := range s.touched {
		l := &s.links[li]
		s.heapPush(heapEnt{share: l.rem / float64(l.nUn), link: li, stamp: l.stamp})
	}
	oi := 0
	frozen := 0
	n := len(s.active)
	for frozen < n {
		for oi < len(r.rampOrd) && s.flows[r.rampOrd[oi]].rate >= 0 {
			oi++
		}
		li := r.peekLink()
		if li < 0 {
			for ; oi < len(r.rampOrd); oi++ {
				idx := r.rampOrd[oi]
				if s.flows[idx].rate < 0 {
					s.freeze(idx, r.caps[idx])
					frozen++
				}
			}
			return
		}
		l := &s.links[li]
		share := l.rem / float64(l.nUn)
		if oi < n && r.caps[r.rampOrd[oi]] <= share {
			idx := r.rampOrd[oi]
			s.freeze(idx, r.caps[idx])
			frozen++
			oi++
			continue
		}
		base := l.csrPos
		for j := int32(0); j < l.nFlows; j++ {
			idx := s.csrFlows[base+j]
			if s.flows[idx].rate < 0 {
				s.freeze(idx, share)
				frozen++
			}
		}
	}
}

func (r *refSolver) serviceDepth(l, svc int) float64 {
	s := r.s
	if r.busyW[l] <= 0 || r.svcCnt[l*s.nsvc+svc%s.nsvc] == 0 {
		return 0
	}
	return s.links[l].q * float64(s.weight(svc)) / float64(r.busyW[l])
}

// fuzzFlows builds a random path graph and flow set. Link capacities are
// all equal or drawn from a mixed set; start times sit on a coarse grid
// and paths reuse a few links, so flows share exact ramp caps, and the
// base RTT and initial window put young flows' caps below the largest
// capacity and older ones above it.
func fuzzFlows(seed uint64, nLinks, nFlows uint8) (*topo.PathGraph, []flowRec, time.Duration) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rates := []units.Rate{10 * units.Gbps}
	if rng.IntN(2) == 0 {
		rates = []units.Rate{10 * units.Gbps, 10 * units.Gbps, 25 * units.Gbps, 40 * units.Gbps, 100 * units.Gbps}
	}
	g := &topo.PathGraph{
		Links:      make([]topo.PathLink, 1+int(nLinks)%8),
		MaxPathLen: 4,
		BaseRTT:    time.Duration(10+rng.IntN(190)) * time.Microsecond,
	}
	for i := range g.Links {
		g.Links[i] = topo.PathLink{Rate: rates[rng.IntN(len(rates))], Delay: time.Microsecond}
	}
	sizes := []int64{1500, 15_000, 150_000, 1_500_000, 1 << 30}
	grid := g.BaseRTT / 3
	flows := make([]flowRec, 1+int(nFlows)%48)
	var last time.Duration
	for i := range flows {
		f := &flows[i]
		f.spec = workload.FlowSpec{
			Start:   time.Duration(rng.IntN(24)) * grid,
			Size:    sizes[rng.IntN(len(sizes))],
			Service: rng.IntN(8),
		}
		last = max(last, f.spec.Start)
		perm := rng.Perm(len(g.Links))
		f.plen = int8(1 + rng.IntN(min(4, len(g.Links))))
		for j := range f.plen {
			f.path[j] = int32(perm[j])
		}
		f.remaining = float64(f.spec.Size)
		f.activeIdx = -1
	}
	return g, flows, last
}

// FuzzWaterfillMatchesReference holds the solve to the reference solve
// bit for bit: after every quantum solve each flow's rate and remaining
// bytes, and each link's fluid depth and per-service depth, must match
// exactly, and the reference's alpha must stay 0. Both sims are driven by direct calls at quantum
// boundaries, admitting the flows whose start has come.
func FuzzWaterfillMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(20), uint8(4), uint8(16), false)
	f.Add(uint64(2), uint8(7), uint8(47), uint8(2), uint8(4), false)
	f.Add(uint64(3), uint8(0), uint8(12), uint8(0), uint8(1), false)
	f.Add(uint64(4), uint8(5), uint8(30), uint8(3), uint8(32), false)
	f.Add(uint64(5), uint8(6), uint8(40), uint8(1), uint8(8), true)
	f.Add(uint64(6), uint8(2), uint8(9), uint8(5), uint8(2), false)
	f.Add(uint64(7), uint8(7), uint8(45), uint8(3), uint8(64), false)
	f.Add(uint64(8), uint8(4), uint8(33), uint8(7), uint8(12), false)
	// Flows with equal ramp caps whose freeze order moves a later
	// rate in its last bits: the tie order must be the flow index.
	f.Add(uint64(168), uint8(202), uint8(137), uint8(0), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed uint64, nLinks, nFlows, weights, initWindow uint8, noSlowStart bool) {
		g, flows, last := fuzzFlows(seed, nLinks, nFlows)
		w := make([]int, 1+int(weights)%4)
		for i := range w {
			w[i] = int(weights>>2)%5 - 1 + i // includes zero and negative weights
		}
		cfg := Config{
			Marking:     PMSB{KBytes: float64(1+int(seed%24)) * units.MTU},
			Weights:     w,
			InitWindow:  int(initWindow % 65),
			NoSlowStart: noSlowStart,
		}
		newSim := func() *Sim {
			s := New(sim.NewEngine(), g, cfg)
			s.flows = append([]flowRec(nil), flows...)
			return s
		}
		got, ref := newSim(), newRefSolver(newSim())
		order := make([]int32, len(flows))
		for i := range order {
			order[i] = int32(i)
		}
		sort.SliceStable(order, func(a, b int) bool { return flows[order[a]].spec.Start < flows[order[b]].spec.Start })
		next := 0
		for now := time.Duration(0); now <= last+40*got.quantum; now += got.quantum {
			for ; next < len(order) && flows[order[next]].spec.Start <= now; next++ {
				got.admit(order[next], now)
				ref.s.admit(order[next], now)
			}
			got.solve(now)
			ref.solve(now)
			for i := range flows {
				a, b := &got.flows[i], &ref.s.flows[i]
				if math.Float64bits(a.rate) != math.Float64bits(b.rate) || math.Float64bits(a.remaining) != math.Float64bits(b.remaining) || a.done != b.done {
					t.Fatalf("t=%v flow %d: rate %v remaining %v done %v, reference %v %v %v", now, i, a.rate, a.remaining, a.done, b.rate, b.remaining, b.done)
				}
			}
			for l := range g.Links {
				if math.Float64bits(got.PortDepth(l)) != math.Float64bits(ref.s.PortDepth(l)) || ref.alpha[l] != 0 {
					t.Fatalf("t=%v link %d: depth %v, reference depth %v alpha %v", now, l, got.PortDepth(l), ref.s.PortDepth(l), ref.alpha[l])
				}
				for svc := 0; svc <= len(w); svc++ {
					if a, b := got.ServiceDepth(l, svc), ref.serviceDepth(l, svc); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("t=%v link %d service %d: depth %v, reference %v", now, l, svc, a, b)
					}
				}
			}
		}
	})
}
