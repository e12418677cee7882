package sim

// heapQueue is a 4-ary min-heap on (at, seq). It has two roles: the
// calendar queue's overflow tier, and the reference implementation for
// the differential determinism tests. Compared to container/heap this
// removes the interface round trip (method dispatch and the any boxing
// in Push/Pop) and, with four children per node, roughly halves the
// tree depth. Push and pop remain O(log n) with unpredictable compares,
// which is why every run's near future lives on the calendar
// (calqueue.go).
type heapQueue struct {
	events []*event
}

func (h *heapQueue) len() int { return len(h.events) }

func (h *heapQueue) peek() *event {
	if len(h.events) == 0 {
		return nil
	}
	return h.events[0]
}

func (h *heapQueue) push(ev *event) {
	s := append(h.events, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	h.events = s
}

func (h *heapQueue) pop() *event {
	s := h.events
	if len(s) == 0 {
		return nil
	}
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	h.events = s
	// Sift the relocated tail element down to its place.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(s[c], s[best]) {
				best = c
			}
		}
		if !eventLess(s[best], s[i]) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}
