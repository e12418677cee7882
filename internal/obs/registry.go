package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pmsb/internal/stats"
)

// Counter is a monotonically increasing metric. Increments are direct
// int64 adds — no interface dispatch, no boxing — so they are safe on
// the packet hot path.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Histogram accumulates a sample distribution (FCTs, RTTs). It wraps
// stats.Summary, so its percentiles follow the documented interpolation
// rule. Observing a sample appends to a slice — amortized allocation —
// so histograms belong on per-flow or per-interval paths, not per
// packet.
type Histogram struct{ s stats.Summary }

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.s.AddDuration(d) }

// Summary exposes the underlying distribution.
func (h *Histogram) Summary() *stats.Summary { return &h.s }

// Registry is a flat namespace of named metrics. Names are dotted
// paths; per-port metrics follow "port.<node>.<index>.<metric>" and
// per-queue metrics "port.<node>.<index>.q<queue>.<metric>", so readers
// can recover the topology from the names alone. Lookup is
// get-or-create; re-registering a name with a different metric type
// panics (it is always a programming error).
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram

	// Well-known simulator-wide metrics, pre-registered so bus emit
	// paths hold direct pointers.
	pfcPauses     *Counter
	blinds        *Counter
	flowsStarted  *Counter
	flowsFinished *Counter
	fct           *Histogram
}

// NewRegistry returns an empty registry with the simulator-wide metrics
// pre-registered.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
	r.pfcPauses = r.Counter("pfc.pauses")
	r.blinds = r.Counter("pmsb.blind_suppressions")
	r.flowsStarted = r.Counter("flows.started")
	r.flowsFinished = r.Counter("flows.finished")
	r.fct = r.Histogram("flows.fct_seconds")
	return r
}

// checkFresh panics when name already exists under a different type.
func (r *Registry) checkFresh(name, want string) {
	if _, ok := r.counters[name]; ok && want != "counter" {
		panic(fmt.Sprintf("obs: metric %q already registered as counter", name))
	}
	if _, ok := r.hists[name]; ok && want != "histogram" {
		panic(fmt.Sprintf("obs: metric %q already registered as histogram", name))
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFresh(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFresh(name, "histogram")
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.counters)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteTo dumps every metric as "name<TAB>value" lines in sorted name
// order, so dumps are deterministic and diffable. Histograms render as
// a single line of count/mean/percentiles. It implements
// io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, name := range r.Names() {
		if c := r.counters[name]; c != nil {
			fmt.Fprintf(&b, "%s\t%d\n", name, c.Value())
		} else {
			s := r.hists[name].Summary()
			fmt.Fprintf(&b, "%s\tcount=%d mean=%g p50=%g p99=%g max=%g\n",
				name, s.Count(), s.Mean(), s.Percentile(50), s.Percentile(99), s.Max())
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// PortMetrics is the per-port counter block a PortProbe updates. The
// counters are also reachable by name through the registry; the struct
// exists so the per-packet path is pointer increments, not map lookups.
type PortMetrics struct {
	TxPackets, TxBytes     *Counter
	DropPackets, DropBytes *Counter
	Marks                  *Counter
	// Per-queue dequeued bytes and marks, indexed by queue.
	QueueTxBytes []*Counter
	QueueMarks   []*Counter
}

// portMetrics builds (or re-reads) the counter block for a port.
func (r *Registry) portMetrics(id PortID, numQueues int) *PortMetrics {
	prefix := fmt.Sprintf("port.%d.%d.", id.Node, id.Port)
	pm := &PortMetrics{
		TxPackets:   r.Counter(prefix + "tx_pkts"),
		TxBytes:     r.Counter(prefix + "tx_bytes"),
		DropPackets: r.Counter(prefix + "drop_pkts"),
		DropBytes:   r.Counter(prefix + "drop_bytes"),
		Marks:       r.Counter(prefix + "marks"),
	}
	for q := 0; q < numQueues; q++ {
		qp := fmt.Sprintf("%sq%d.", prefix, q)
		pm.QueueTxBytes = append(pm.QueueTxBytes, r.Counter(qp+"tx_bytes"))
		pm.QueueMarks = append(pm.QueueMarks, r.Counter(qp+"marks"))
	}
	return pm
}
