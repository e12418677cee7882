package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// bite is one flag's evidence that it does something: the run of base
// and the run of base plus with must differ in what a user sees, and
// when want is set the second must show want where the first does not.
// An argument starting with "@" names a file in the run's own scratch
// directory; the files a run leaves there count as what it shows.
type bite struct {
	mode, flag string
	base, with []string
	want       string
}

// shows runs pmsbsim with args in a fresh scratch directory and returns
// what a user sees: stdout, stderr, the error and the files written.
func shows(t *testing.T, args []string) string {
	t.Helper()
	dir := t.TempDir()
	args = slices.Clone(args)
	for i, a := range args {
		if strings.HasPrefix(a, "@") {
			args[i] = filepath.Join(dir, a[1:])
		}
	}
	var out string
	var err error
	stderr := captureStderr(t, func() { out, err = capture(t, args...) })
	var b strings.Builder
	fmt.Fprintf(&b, "%sstderr: %s\nerror: %v\n", out, stderr, err)
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		fmt.Fprintf(&b, "file %s\n", e.Name())
	}
	return b.String()
}

// commonBites are the rows of the output and observer flags every mode
// shares, against a base run of that mode that ends in -summary=false.
func commonBites(mode string, base []string) []bite {
	file := func(flag, name string) bite {
		return bite{mode, flag, base, []string{"-" + flag, "@" + name}, "file " + name}
	}
	return []bite{
		{mode, "series", base, []string{"-series"}, "## series"},
		{mode, "format", base, []string{"-format", "json"}, `"rows"`},
		{mode, "summary", base[:len(base)-1], []string{"-summary=false"}, ""},
		{mode, "progress", base, []string{"-progress=1s"}, `"final":true`},
		file("out", "o.txt"),
		file("cpuprofile", "cpu.prof"),
		file("memprofile", "mem.prof"),
		file("tracefile", "t.bin"),
		file("runtimestats", "r.txt"),
	}
}

// Every flag of every pmsbsim mode changes what the run shows or is
// refused: a row per flag proves it, a flag without a row fails, and so
// does a row whose flag is gone.
func TestEveryFlagBites(t *testing.T) {
	trace := genTrace(t, "-gen", "20")
	exp := []string{"-experiment", "fig5", "-quick", "-summary=false"}
	flow := []string{"flow", "-dur", "5ms", "-summary=false"}
	replay := []string{"replay", "-trace", trace, "-summary=false"}
	with := func(base []string, extra ...string) []string {
		return append(slices.Clone(base[:len(base)-1]), append(extra, base[len(base)-1])...)
	}
	bites := []bite{
		{"", "experiment", []string{"-quick"}, []string{"-experiment", "fig5"}, "# fig5:"},
		{"", "list", nil, []string{"-list"}, "fig27"},
		{"", "all", []string{"-experiment", "fig5"}, []string{"-all"}, "exclude each other"},
		{"", "quick", []string{"-experiment", "fig5", "-summary=false"}, []string{"-quick"}, ""},
		{"", "seed", []string{"-experiment", "scenario-permutation", "-quick", "-summary=false"}, []string{"-seed", "2"}, ""},
		{"", "repeats", exp, []string{"-repeats", "2"}, "fig5 is not randomized"},
		{"", "jobs", []string{"-experiment", "table1"}, []string{"-jobs", "3"}, "jobs=3"},
		{"", "shards", exp, []string{"-shards", "2"}, "fig5 does not shard"},
		{"", "shards", []string{"-experiment", "fattree-incast", "-quick"}, []string{"-shards", "2"}, "shards\t2\n"},

		{"flow", "groups", flow, []string{"-groups", "1x0,2x1"}, ""},
		{"flow", "weights", flow, []string{"-weights", "3,1"}, "q1-fair-gbps\t7.50"},
		{"flow", "gbps", flow, []string{"-gbps", "1"}, ""},
		{"flow", "delay", flow, []string{"-delay", "10us"}, ""},
		{"flow", "dur", []string{"flow", "-summary=false"}, []string{"-dur", "5ms"}, ""},
		{"flow", "buffer", flow, []string{"-buffer", "10"}, ""},
		{"flow", "dequeue", flow, []string{"-dequeue"}, ""},
		{"flow", "dequeue", with(flow, "-marker", "tcn"), []string{"-dequeue"}, "-dequeue does not apply to -marker tcn"},
		{"flow", "dequeue", with(flow, "-marker", "none"), []string{"-dequeue"}, "-dequeue does not apply to -marker none"},
		{"flow", "rttthresh", with(flow, "-marker", "pmsbe"), []string{"-rttthresh", "1us"}, ""},
		{"flow", "rttthresh", flow, []string{"-rttthresh", "1us"}, "-rttthresh does not apply to -marker pmsb"},
		{"flow", "sched", flow, []string{"-sched", "dwrr"}, ""},
		{"flow", "marker", flow, []string{"-marker", "perport"}, ""},
		{"flow", "portk", flow, []string{"-portk", "4"}, ""},
		{"flow", "portk", with(flow, "-marker", "none"), []string{"-portk", "4"}, "-portk does not apply to -marker none"},

		{"replay", "trace", []string{"replay", "-summary=false"}, []string{"-trace", trace}, "# replay:"},
		{"replay", "gen", []string{"replay"}, []string{"-gen", "5"}, "size_bytes,service\n"},
		{"replay", "gen", replay, []string{"-gen", "5"}, "does not apply to -gen"},
		{"replay", "load", []string{"replay", "-gen", "5"}, []string{"-load", "0.9"}, ""},
		{"replay", "load", replay, []string{"-load", "0.9"}, "-load applies only to -gen"},
		{"replay", "seed", []string{"replay", "-gen", "5"}, []string{"-seed", "2"}, ""},
		{"replay", "seed", replay, []string{"-seed", "2"}, "-seed applies only to -gen"},
		{"replay", "queues", replay, []string{"-queues", "2"}, ""},
		{"replay", "flows", replay, []string{"-flows", "@f.csv"}, "file f.csv"},
		{"replay", "sched", replay, []string{"-sched", "wfq"}, ""},
		{"replay", "marker", replay, []string{"-marker", "tcn"}, ""},
		{"replay", "portk", replay, []string{"-portk", "30"}, ""},
	}
	bites = append(bites, commonBites("", exp)...)
	bites = append(bites, commonBites("flow", flow)...)
	bites = append(bites, commonBites("replay", replay)...)

	covered := map[string]bool{}
	for _, b := range bites {
		covered[b.mode+" -"+b.flag] = true
	}
	for _, mode := range []string{"", "flow", "replay"} {
		fs, _, _, _ := newFlagSet([]string{mode})
		fs.VisitAll(func(f *flag.Flag) {
			if !covered[mode+" -"+f.Name] {
				t.Errorf("pmsbsim %s -%s has no row: show what it changes or that it is refused", mode, f.Name)
			}
			delete(covered, mode+" -"+f.Name)
		})
	}
	for name := range covered {
		t.Errorf("row for pmsbsim %s, which is not a flag", name)
	}

	for _, b := range bites {
		if !slices.Contains(b.base, b.mode) && b.mode != "" {
			t.Fatalf("row %s -%s: base %v is not a %s run", b.mode, b.flag, b.base, b.mode)
		}
		args := append(slices.Clone(b.base), b.with...)
		before, after := shows(t, b.base), shows(t, args)
		switch {
		case before == after:
			t.Errorf("%v: adding %v changed nothing", b.base, b.with)
		case b.want != "" && (!strings.Contains(after, b.want) || strings.Contains(before, b.want)):
			t.Errorf("%v: want %q shown only with %v; with it:\n%s", b.base, b.want, b.with, after)
		}
	}
}

// The mode-exclusive flags of the default mode name each other.
func TestModeFlagsExclusive(t *testing.T) {
	for _, args := range [][]string{
		{"-list", "-all"},
		{"-list", "-experiment", "fig5"},
		{"-all", "-experiment", "fig5"},
	} {
		_, err := capture(t, args...)
		if err == nil || !strings.Contains(err.Error(), "exclude each other") {
			t.Errorf("%v: err = %v, want a refusal", args, err)
		}
	}
}
