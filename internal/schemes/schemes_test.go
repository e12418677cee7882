package schemes

import (
	"testing"
	"time"

	"pmsb/internal/sim"
	"pmsb/internal/units"
)

func TestSchedulerNames(t *testing.T) {
	eng := sim.NewEngine()
	for _, name := range SchedulerNames() {
		f, err := Scheduler(name, "pmsb")
		if err != nil || f == nil {
			t.Fatalf("Scheduler(%q): %v", name, err)
		}
		s := f(eng, []float64{1, 1})
		if s == nil || s.NumQueues() != 2 && name != "fifo" {
			t.Fatalf("constructor %q built a bad scheduler", name)
		}
	}
	if _, err := Scheduler("bogus", "pmsb"); err == nil {
		t.Fatal("unknown scheduler must error")
	}
	// Case-insensitive.
	if _, err := Scheduler("DWRR", "pmsb"); err != nil {
		t.Fatal("scheduler names must be case-insensitive")
	}
}

// MQ-ECN reads round times: every scheduler without rounds refuses it,
// every other pair is accepted.
func TestSchedulerMarkerApplicability(t *testing.T) {
	for _, schedName := range SchedulerNames() {
		for _, marker := range MarkerNames() {
			_, err := Scheduler(schedName, marker)
			wantErr := marker == "mqecn" && schedName != "dwrr" && schedName != "wrr"
			if (err != nil) != wantErr {
				t.Errorf("Scheduler(%q, %q): err = %v, want error %v", schedName, marker, err, wantErr)
			}
		}
	}
}

func TestMarkerNames(t *testing.T) {
	cfg := MarkerConfig{
		KBytes:       units.Packets(12),
		Rate:         10 * units.Gbps,
		RTTThreshold: 40 * time.Microsecond,
	}
	for _, name := range MarkerNames() {
		mf, ff, err := Marker(name, cfg)
		if err != nil {
			t.Fatalf("Marker(%q): %v", name, err)
		}
		switch name {
		case "none":
			if mf != nil {
				t.Fatal("none must have no marker factory")
			}
		case "pmsbe":
			if mf == nil || ff == nil {
				t.Fatal("pmsbe needs marker and filter")
			}
			if f := ff(); f == nil || !f.Accept(time.Second, true) {
				t.Fatal("pmsbe filter must accept slow-RTT marks")
			}
		default:
			if mf == nil || ff != nil {
				t.Fatalf("%s: unexpected factories", name)
			}
			if m := mf(); m == nil {
				t.Fatalf("%s built nil marker", name)
			}
		}
	}
	if _, _, err := Marker("bogus", cfg); err == nil {
		t.Fatal("unknown marker must error")
	}
}

func TestMarkerDequeuePoint(t *testing.T) {
	mf, _, err := Marker("pmsb", MarkerConfig{KBytes: 1, Rate: units.Gbps, Dequeue: true})
	if err != nil {
		t.Fatal(err)
	}
	if mf().Point().String() != "dequeue" {
		t.Fatal("Dequeue flag not honoured")
	}
}

func TestRoundBased(t *testing.T) {
	if !RoundBased("mqecn") || !RoundBased("MQECN") {
		t.Fatal("mqecn is round-based")
	}
	if RoundBased("pmsb") || RoundBased("tcn") {
		t.Fatal("only mqecn is round-based")
	}
}
