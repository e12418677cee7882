// Package workload generates the traffic the paper's large-scale
// evaluation uses: flows with empirical datacenter size distributions
// arriving as a Poisson process at a target load, spread over random
// host pairs and classified evenly into services (queues).
package workload

import (
	"math"
	"math/rand"
	"time"

	"pmsb/internal/units"
)

// SizeDist samples flow sizes in bytes.
type SizeDist interface {
	// Name identifies the distribution.
	Name() string
	// Sample draws one flow size in bytes.
	Sample(r *rand.Rand) int64
	// Mean returns the expected flow size in bytes.
	Mean() float64
}

// cdfPoint is one empirical CDF knot: P(size <= Pkts packets) = P.
type cdfPoint struct {
	pkts float64
	p    float64
}

// Empirical is a piecewise-linear empirical flow-size distribution,
// specified in MSS-sized packets as the standard datacenter workload
// files do.
type Empirical struct {
	name   string
	points []cdfPoint
	mean   float64
}

var _ SizeDist = (*Empirical)(nil)

// newEmpirical builds an Empirical and precomputes its mean.
func newEmpirical(name string, points []cdfPoint) *Empirical {
	e := &Empirical{name: name, points: points}
	// Mean of the piecewise-linear CDF: sum of trapezoids' midpoints.
	var mean float64
	for i := 1; i < len(points); i++ {
		dp := points[i].p - points[i-1].p
		mid := (points[i].pkts + points[i-1].pkts) / 2
		mean += dp * mid
	}
	e.mean = mean * float64(units.MSS)
	return e
}

// Name implements SizeDist.
func (e *Empirical) Name() string { return e.name }

// Mean implements SizeDist.
func (e *Empirical) Mean() float64 { return e.mean }

// Sample implements SizeDist by inverse-transform sampling with linear
// interpolation between CDF knots.
func (e *Empirical) Sample(r *rand.Rand) int64 {
	u := r.Float64()
	pts := e.points
	for i := 1; i < len(pts); i++ {
		if u <= pts[i].p {
			span := pts[i].p - pts[i-1].p
			frac := 0.0
			if span > 0 {
				frac = (u - pts[i-1].p) / span
			}
			pktsF := pts[i-1].pkts + frac*(pts[i].pkts-pts[i-1].pkts)
			size := int64(math.Ceil(pktsF * float64(units.MSS)))
			if size < 1 {
				size = 1
			}
			return size
		}
	}
	return int64(pts[len(pts)-1].pkts * float64(units.MSS))
}

// WebSearch returns the DCTCP-paper web-search workload used by the
// MQ-ECN and TCN evaluations (and by this paper: ~60% small flows, ~10%
// large flows, most bytes from the large tail).
func WebSearch() *Empirical {
	return newEmpirical("websearch", []cdfPoint{
		{1, 0}, {6, 0.15}, {13, 0.2}, {19, 0.3}, {33, 0.4},
		{53, 0.53}, {133, 0.6}, {667, 0.7}, {1333, 0.8},
		{3333, 0.9}, {6667, 0.97}, {20000, 1},
	})
}

// Fixed returns a degenerate distribution (every flow the same size),
// useful for controlled tests.
func Fixed(bytes int64) SizeDist { return fixedDist(bytes) }

type fixedDist int64

func (f fixedDist) Name() string            { return "fixed" }
func (f fixedDist) Sample(*rand.Rand) int64 { return int64(f) }
func (f fixedDist) Mean() float64           { return float64(f) }

// SizeClass buckets flows the way the paper reports FCT.
type SizeClass int

const (
	// Small flows are at most 100KB.
	Small SizeClass = iota + 1
	// Medium flows are between 100KB and 10MB.
	Medium
	// Large flows are at least 10MB.
	Large
)

// String implements fmt.Stringer.
func (c SizeClass) String() string {
	switch c {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return "unknown"
	}
}

// Classify returns the paper's size bucket for a flow of the given size:
// small (<=100KB), large (>=10MB), medium otherwise.
func Classify(size int64) SizeClass {
	switch {
	case size <= 100_000:
		return Small
	case size >= 10_000_000:
		return Large
	default:
		return Medium
	}
}

// FlowSpec describes one generated flow before it is instantiated on a
// topology.
type FlowSpec struct {
	// Start is the arrival time.
	Start time.Duration
	// Src and Dst are host indices in [0, Hosts).
	Src, Dst int
	// Size is the flow length in bytes.
	Size int64
	// Service is the flow's service class (switch queue selector).
	Service int
}

// PoissonConfig parametrizes open-loop Poisson flow arrivals.
type PoissonConfig struct {
	// Load is the target average utilization of each edge link (0..1).
	Load float64
	// LinkRate is the edge link capacity.
	LinkRate units.Rate
	// Hosts is the number of hosts attached by edge links.
	Hosts int
	// Dist is the flow size distribution.
	Dist SizeDist
	// Services is the number of service classes flows are spread over.
	Services int
	// NumFlows is how many flows to generate.
	NumFlows int
	// Seed seeds the generator (same seed, same trace).
	Seed int64
}

// Poisson generates a deterministic (seeded) open-loop flow trace. Flows
// arrive with exponential inter-arrival times such that each edge link
// carries Load x LinkRate on average; src/dst pairs are uniform (src !=
// dst) and services are assigned round-robin ("classified evenly").
func Poisson(cfg PoissonConfig) []FlowSpec {
	if cfg.Hosts < 2 || cfg.NumFlows <= 0 || cfg.Load <= 0 {
		return nil
	}
	if cfg.Services <= 0 {
		cfg.Services = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	// Per-host flow arrival rate lambda = load * C[bytes/s] / E[S].
	bytesPerSec := float64(cfg.LinkRate) / 8
	lambdaTotal := cfg.Load * bytesPerSec / cfg.Dist.Mean() * float64(cfg.Hosts)
	meanGap := time.Duration(float64(time.Second) / lambdaTotal)

	flows := make([]FlowSpec, 0, cfg.NumFlows)
	t := time.Duration(0)
	for i := 0; i < cfg.NumFlows; i++ {
		t += time.Duration(r.ExpFloat64() * float64(meanGap))
		src := r.Intn(cfg.Hosts)
		dst := r.Intn(cfg.Hosts - 1)
		if dst >= src {
			dst++
		}
		flows = append(flows, FlowSpec{
			Start:   t,
			Src:     src,
			Dst:     dst,
			Size:    cfg.Dist.Sample(r),
			Service: i % cfg.Services,
		})
	}
	return flows
}

// IncastConfig parametrizes a synchronized fan-in burst.
type IncastConfig struct {
	// Receiver is the destination host index.
	Receiver int
	// Senders are the source host indices (Receiver excluded by the
	// caller).
	Senders []int
	// Size is the per-sender flow size in bytes.
	Size int64
	// Stagger separates consecutive arrivals (0 = fully synchronized).
	Stagger time.Duration
	// Services spreads flows round-robin over this many service classes
	// (<=0 means one).
	Services int
}

// Incast generates the classic fan-in workload: every sender ships one
// flow to the receiver, arrivals Stagger apart in sender order. It is
// fully deterministic (no randomness), so both engines see the same
// byte-identical spec slice.
func Incast(cfg IncastConfig) []FlowSpec {
	if cfg.Services <= 0 {
		cfg.Services = 1
	}
	flows := make([]FlowSpec, 0, len(cfg.Senders))
	for i, src := range cfg.Senders {
		flows = append(flows, FlowSpec{
			Start:   time.Duration(i) * cfg.Stagger,
			Src:     src,
			Dst:     cfg.Receiver,
			Size:    cfg.Size,
			Service: i % cfg.Services,
		})
	}
	return flows
}

// PermutationConfig parametrizes a random permutation traffic matrix.
type PermutationConfig struct {
	// Hosts is the host count; every host sends exactly one flow.
	Hosts int
	// Dist is the flow size distribution.
	Dist SizeDist
	// Stagger separates consecutive arrivals (in host order).
	Stagger time.Duration
	// Services spreads flows round-robin over service classes.
	Services int
	// Seed seeds the permutation and the size samples.
	Seed int64
}

// Permutation generates a derangement-style traffic matrix: host i
// sends one flow to p(i) where p is a seeded random permutation with no
// fixed points, the standard all-to-all stress pattern for fabric
// bisection. Deterministic for a given (Hosts, Seed).
func Permutation(cfg PermutationConfig) []FlowSpec {
	if cfg.Hosts < 2 {
		return nil
	}
	if cfg.Services <= 0 {
		cfg.Services = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	perm := r.Perm(cfg.Hosts)
	// Resolve fixed points by swapping with a neighbor (cyclically), so
	// no host talks to itself.
	for i := 0; i < cfg.Hosts; i++ {
		if perm[i] == i {
			j := (i + 1) % cfg.Hosts
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	flows := make([]FlowSpec, 0, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		flows = append(flows, FlowSpec{
			Start:   time.Duration(i) * cfg.Stagger,
			Src:     i,
			Dst:     perm[i],
			Size:    cfg.Dist.Sample(r),
			Service: i % cfg.Services,
		})
	}
	return flows
}
