package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"pmsb/internal/experiment"
	"pmsb/internal/schemes"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// The flow and replay modes: each parses its own flags into an
// experiment.Spec for run's pipeline. A flag that cannot apply to a mode
// (-quick, -repeats, -shards, -jobs, ...) is not registered;
// one that the other flags given make moot is refused.

// schemeFlags are the scheduler and marker flags both subcommands take.
type schemeFlags struct {
	sched, marker *string
	portK         *int
}

func addSchemeFlags(fs *flag.FlagSet, defSched string, defPortK int) *schemeFlags {
	return &schemeFlags{
		sched:  fs.String("sched", defSched, "scheduler: "+strings.Join(schemes.SchedulerNames(), ", ")),
		marker: fs.String("marker", "pmsb", "marker: "+strings.Join(schemes.MarkerNames(), ", ")),
		portK:  fs.Int("portk", defPortK, "port/standard threshold in packets"),
	}
}

// profile builds the port profile and per-flow filter the flags name,
// or says why they do not go together — before any engine exists. mc
// carries the subcommand's marker parameters; the threshold is filled
// in here.
func (f *schemeFlags) profile(weights []float64, bufferPkts int, mc schemes.MarkerConfig) (topo.PortProfile, func() transport.Filter, error) {
	if *f.portK < 1 {
		return topo.PortProfile{}, nil, fmt.Errorf("-portk must be >= 1 (got %d)", *f.portK)
	}
	newSched, err := schemes.Scheduler(*f.sched, *f.marker)
	if err != nil {
		return topo.PortProfile{}, nil, err
	}
	mc.KBytes = units.Packets(*f.portK)
	newMarker, filter, err := schemes.Marker(*f.marker, mc)
	if err != nil {
		return topo.PortProfile{}, nil, err
	}
	return topo.PortProfile{
		Weights:      weights,
		NewSchedWith: newSched,
		NewMarker:    newMarker,
		BufferBytes:  units.Packets(bufferPkts),
	}, filter, nil
}

// refuseMoot refuses a flag given on fs that the others make moot: the
// threshold or mark point of no marker, a mark point for TCN (dequeue
// only), an RTT threshold for any marker but PMSB(e), -load and -seed
// without -gen, and with -gen any flag outside genFlags.
func (f *schemeFlags) refuseMoot(fs *flag.FlagSet, gen bool) (err error) {
	m := strings.ToLower(*f.marker)
	markerMoot := map[string]bool{"portk": m == "none", "dequeue": m == "none" || m == "tcn", "rttthresh": m != "pmsbe"}
	fs.Visit(func(fl *flag.Flag) {
		switch name := fl.Name; {
		case err != nil:
		case gen && !genFlags[name]:
			err = fmt.Errorf("-%s does not apply to -gen, which only writes a trace", name)
		case !gen && (name == "load" || name == "seed"):
			err = fmt.Errorf("-%s applies only to -gen", name)
		case markerMoot[name]:
			err = fmt.Errorf("-%s does not apply to -marker %s", name, *f.marker)
		}
	})
	return err
}

func (f *schemeFlags) String() string {
	return fmt.Sprintf("sched=%s marker=%s portK=%dpkt", *f.sched, *f.marker, *f.portK)
}

// flowMode is `pmsbsim flow`: long-lived flows into one dumbbell port.
func flowMode(fs *flag.FlagSet) func(io.Writer) (plan, error) {
	var (
		groupsArg  = fs.String("groups", "1x0,8x1", "flow groups as COUNTxSERVICE, comma separated")
		weightsArg = fs.String("weights", "", "queue weights, comma separated (default: 1 per used queue)")
		gbps       = fs.Int("gbps", 10, "link rate in Gbps")
		delay      = fs.Duration("delay", 2*time.Microsecond, "per-link propagation delay")
		dur        = fs.Duration("dur", 100*time.Millisecond, "simulated duration")
		buffer     = fs.Int("buffer", 0, "per-port buffer in packets (0 = unlimited)")
		dequeue    = fs.Bool("dequeue", false, "mark at dequeue instead of enqueue")
		rttThresh  = fs.Duration("rttthresh", 40*time.Microsecond, "PMSB(e) RTT accept threshold")
	)
	sf := addSchemeFlags(fs, "wfq", 16)
	return func(io.Writer) (plan, error) {
		if *gbps < 1 || *delay <= 0 || *dur <= 0 || *buffer < 0 {
			return plan{}, fmt.Errorf("-gbps, -delay and -dur must be positive and -buffer non-negative")
		}
		if err := sf.refuseMoot(fs, false); err != nil {
			return plan{}, err
		}
		services, err := parseGroups(*groupsArg)
		if err != nil {
			return plan{}, err
		}
		weights, err := parseWeights(*weightsArg, slices.Max(services)+1)
		if err != nil {
			return plan{}, err
		}
		rate := units.Rate(*gbps) * units.Gbps
		profile, filter, err := sf.profile(weights, *buffer, schemes.MarkerConfig{
			Rate:         rate,
			Dequeue:      *dequeue,
			RTTThreshold: *rttThresh,
		})
		if err != nil {
			return plan{}, err
		}
		spec := experiment.FlowSpec(experiment.FlowConfig{
			Title: fmt.Sprintf("dumbbell, %v rate=%v queues=%d flows=%d dur=%v",
				sf, rate, len(weights), len(services), *dur),
			Services:   services,
			Bottleneck: profile,
			Filter:     filter,
			Rate:       rate,
			Delay:      *delay,
			Dur:        *dur,
		})
		return plan{specs: []experiment.Spec{spec}, jobs: 1}, nil
	}
}

// Bounds of the -groups grammar: the dumbbell numbers its hosts 1..N+1
// below the switch's node ID 1000, and a service is a DSCP code point.
const (
	maxFlows    = 998
	maxServices = 64
)

// parseGroups parses "1x0,8x1" — COUNTxSERVICE groups — into one
// service per flow, in group order.
func parseGroups(s string) ([]int, error) {
	var services []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, svc, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("group %q: want COUNTxSERVICE", part)
		}
		count, err := strconv.Atoi(c)
		if err != nil || count < 1 || count > maxFlows-len(services) {
			return nil, fmt.Errorf("group %q: bad count (1..%d flows in all)", part, maxFlows)
		}
		service, err := strconv.Atoi(svc)
		if err != nil || service < 0 || service >= maxServices {
			return nil, fmt.Errorf("group %q: bad service (0..%d)", part, maxServices-1)
		}
		for i := 0; i < count; i++ {
			services = append(services, service)
		}
	}
	if len(services) == 0 {
		return nil, fmt.Errorf("no flow groups given")
	}
	return services, nil
}

// parseWeights parses "1,2,1" or defaults to n ones.
func parseWeights(s string, n int) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return topo.EqualWeights(n), nil
	}
	parts := strings.Split(s, ",")
	if len(parts) < n || len(parts) > maxServices {
		return nil, fmt.Errorf("%d weights for %d queues (at most %d)", len(parts), n, maxServices)
	}
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("bad weight %q", p)
		}
		out = append(out, w)
	}
	return out, nil
}

// replayMode is `pmsbsim replay`: a CSV flow trace (workload.ReadTrace)
// on the 48-host leaf-spine, or -gen to write a sample trace.
func replayMode(fs *flag.FlagSet) func(io.Writer) (plan, error) {
	var (
		tracePath = fs.String("trace", "", "CSV flow trace to replay (start_us,src,dst,size_bytes,service)")
		gen       = fs.Int("gen", 0, "instead of replaying, emit a sample web-search trace with N flows")
		load      = fs.Float64("load", 0.5, "load for -gen")
		seed      = fs.Int64("seed", 1, "seed for -gen")
		queues    = fs.Int("queues", 8, "service queues per port")
		flowsOut  = fs.String("flows", "", "write per-flow results CSV to this file")
	)
	sf := addSchemeFlags(fs, "dwrr", 12)
	return func(w io.Writer) (plan, error) {
		if *queues < 1 || *queues > maxServices {
			return plan{}, fmt.Errorf("-queues must be in 1..%d (got %d)", maxServices, *queues)
		}
		if err := sf.refuseMoot(fs, *gen > 0); err != nil {
			return plan{}, err
		}
		if *gen > 0 {
			return plan{}, workload.WriteTrace(w, workload.Poisson(workload.PoissonConfig{
				Load:     *load,
				LinkRate: 10 * units.Gbps,
				Hosts:    48,
				Dist:     workload.WebSearch(),
				Services: *queues,
				NumFlows: *gen,
				Seed:     *seed,
			}))
		}
		if *tracePath == "" {
			fs.Usage()
			return plan{}, fmt.Errorf("either -trace or -gen is required")
		}
		f, err := os.Open(*tracePath)
		if err != nil {
			return plan{}, fmt.Errorf("open trace: %w", err)
		}
		flows, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return plan{}, err
		}
		// The paper's Section VI-B port: 250-packet buffer, PMSB(e) RTT
		// threshold 85.2us.
		profile, filter, err := sf.profile(topo.EqualWeights(*queues), 250, schemes.MarkerConfig{
			Rate:         10 * units.Gbps,
			RTTThreshold: 85200 * time.Nanosecond,
		})
		if err != nil {
			return plan{}, err
		}
		spec := experiment.ReplaySpec(experiment.ReplayConfig{
			Title:  fmt.Sprintf("replay of %s on the 48-host leaf-spine, %v queues=%d", *tracePath, sf, *queues),
			Flows:  flows,
			Ports:  profile,
			Filter: filter,
		})
		if *flowsOut != "" {
			// The per-flow file is the "fct" series joined to the trace.
			run := spec.Run
			spec.Run = func(opt experiment.Options) (*experiment.Result, error) {
				res, err := run(opt)
				if err == nil {
					err = writeFlows(*flowsOut, flows, res.Series[0].Y)
				}
				return res, err
			}
		}
		return plan{specs: []experiment.Spec{spec}, jobs: 1}, nil
	}
}

// genFlags are the flags replay -gen reads; it refuses the others.
var genFlags = map[string]bool{
	"gen": true, "load": true, "seed": true, "queues": true,
	"out": true, "cpuprofile": true, "memprofile": true,
}

// writeFlows writes one CSV row per trace flow: the trace's columns,
// then the flow's FCT (fctUS[i], 0 when it did not finish) and whether
// it completed.
func writeFlows(path string, flows []workload.FlowSpec, fctUS []float64) error {
	var b bytes.Buffer
	fmt.Fprintln(&b, "start_us,src,dst,size_bytes,service,fct_us,completed")
	for i, spec := range flows {
		fct := ""
		if fctUS[i] > 0 {
			fct = fmt.Sprintf("%.3f", fctUS[i])
		}
		fmt.Fprintf(&b, "%.3f,%d,%d,%d,%d,%s,%v\n",
			float64(spec.Start)/float64(time.Microsecond),
			spec.Src, spec.Dst, spec.Size, spec.Service, fct, fct != "")
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write flows output: %w", err)
	}
	return nil
}
