package flowsim

// Max-min fair water-filling over the link<->flow index built by
// buildIndex. The classic algorithm repeatedly saturates the link with
// the smallest fair share (remaining capacity / unfrozen flows),
// freezing its flows at that share; the slow-start ramp caps fold in by
// walking the flows whose cap can bind (rampOrd, ascending cap) and
// freezing any flow whose cap is below the current minimum link share —
// a ramp-limited flow is just a flow bottlenecked by its own window
// instead of a link.
//
// The link heap is lazy: freezing a flow updates every link on its path
// and pushes a fresh heap entry stamped with the link's new revision;
// stale entries are discarded on pop. Each freeze does O(pathLen log L)
// work, so a full solve is O(F * pathLen * log L + R log R) for R
// ramp-bound flows — independent of the packet count, which is the
// whole point.

// heapEnt is a lazy min-heap entry: the link's fair share at the time
// of the push. A stamp mismatch on pop means the link changed since and
// a fresher entry exists.
type heapEnt struct {
	share float64
	link  int32
	stamp uint32
}

func (s *Sim) heapPush(e heapEnt) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].share <= s.heap[i].share {
			break
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *Sim) heapPop() heapEnt {
	top := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s.heap[l].share < s.heap[m].share {
			m = l
		}
		if r < n && s.heap[r].share < s.heap[m].share {
			m = r
		}
		if m == i {
			break
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		i = m
	}
	return top
}

// peekLink discards stale entries and returns the link of the live
// minimum-share entry. Every link with an unfrozen flow holds a live
// entry, so the heap cannot drain while a flow is unfrozen.
func (s *Sim) peekLink() int32 {
	for {
		e := &s.heap[0]
		l := &s.links[e.link]
		if e.stamp == l.stamp && l.nUn > 0 {
			return e.link
		}
		s.heapPop()
	}
}

// freeze fixes flow idx's rate and removes it from every link on its
// path, re-pricing each.
func (s *Sim) freeze(idx int32, rate float64) {
	f := &s.flows[idx]
	f.rate = rate
	for _, li := range f.path[:f.plen] {
		l := &s.links[li]
		l.rem -= rate
		if l.rem < 0 {
			l.rem = 0
		}
		l.nUn--
		l.stamp++
		if l.nUn > 0 {
			s.heapPush(heapEnt{share: l.rem / float64(l.nUn), link: li, stamp: l.stamp})
		}
	}
}

// waterfill assigns every active flow its max-min fair rate subject to
// the ramp caps buildIndex computed. Flows enter with rate == -1
// (unfrozen) and leave frozen at either a link's fair share or their
// own cap, whichever binds first.
func (s *Sim) waterfill() {
	s.heap = s.heap[:0]
	for _, li := range s.touched {
		l := &s.links[li]
		s.heapPush(heapEnt{share: l.rem / float64(l.nUn), link: li, stamp: l.stamp})
	}
	oi := 0
	for frozen, n := 0, len(s.active); frozen < n; {
		// Next unfrozen ramp candidate (ascending cap).
		for oi < len(s.rampOrd) && s.flows[s.rampOrd[oi].idx].rate >= 0 {
			oi++
		}
		l := &s.links[s.peekLink()]
		share := l.rem / float64(l.nUn)
		if oi < len(s.rampOrd) && s.rampOrd[oi].cap <= share {
			// The smallest ramp cap binds before any link saturates.
			s.freeze(s.rampOrd[oi].idx, s.rampOrd[oi].cap)
			frozen++
			oi++
			continue
		}
		// Saturate the bottleneck link: freeze its whole unfrozen set at
		// the fair share. The entry stays valid mid-loop because we
		// consume the link completely before peeking again.
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
