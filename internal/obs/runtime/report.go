package runtime

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Report renders a human explanation of a runtime dump: the per-shard
// table, then the derived diagnoses — shard imbalance, null-advance
// overhead, worker utilization, queue churn, pool pressure. vals is a
// ParseDump result (from a -runtimestats file).
func Report(w io.Writer, vals map[string]int64) error {
	bw := &strings.Builder{}

	mode := indicator(vals, "runtime.coord.mode.")
	shards := int(vals["runtime.coord.shards"])
	if mode != "" {
		fmt.Fprintf(bw, "# coordinator: mode %s, %d shards\n", mode, shards)
		wall := dur(vals["runtime.coord.wall_ns"])
		blocked := dur(vals["runtime.coord.blocked_ns"])
		fmt.Fprintf(bw, "wall %v", wall.Round(time.Microsecond))
		if wall > 0 {
			fmt.Fprintf(bw, ", coordinator blocked %v (%.0f%%)",
				blocked.Round(time.Microsecond), pct(int64(blocked), int64(wall)))
		}
		fmt.Fprintln(bw)
		shardTable(bw, vals, shards)
		imbalance(bw, vals, shards)
		nullOverhead(bw, vals, shards)
		workerUtilization(bw, vals, shards)
	} else {
		fmt.Fprintf(bw, "# serial run (no coordinator stats)\n")
	}
	queueChurn(bw, vals)
	poolPressure(bw, vals)

	_, err := io.WriteString(w, bw.String())
	return err
}

// indicator finds the suffix of the single "<prefix><value>\t1" row.
func indicator(vals map[string]int64, prefix string) string {
	for n, v := range vals {
		if v == 1 && strings.HasPrefix(n, prefix) {
			return strings.TrimPrefix(n, prefix)
		}
	}
	return ""
}

func shardKey(vals map[string]int64, i int, field string) int64 {
	return vals[fmt.Sprintf("runtime.shard.%d.%s", i, field)]
}

func workerKey(vals map[string]int64, i int, field string) int64 {
	return vals[fmt.Sprintf("runtime.worker.%d.%s", i, field)]
}

func shardTable(w io.Writer, vals map[string]int64, shards int) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shard\tgrants\tnull-adv\toutbox\tparked\tevents\tbusy\tbusy-share")
	var totalBusy int64
	for i := 0; i < shards; i++ {
		totalBusy += shardKey(vals, i, "busy_ns")
	}
	for i := 0; i < shards; i++ {
		busy := shardKey(vals, i, "busy_ns")
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%v\t%.0f%%\n",
			i,
			shardKey(vals, i, "grants"),
			shardKey(vals, i, "null_advances"),
			shardKey(vals, i, "outbox_sent"),
			shardKey(vals, i, "parked"),
			shardKey(vals, i, "events"),
			dur(busy).Round(time.Microsecond),
			pct(busy, totalBusy))
	}
	tw.Flush()
}

// imbalance reports max/mean ratios of per-shard busy time and event
// counts: 1.0 is perfectly balanced; a shard at N× the mean is the
// straggler gating the conservative windows.
func imbalance(w io.Writer, vals map[string]int64, shards int) {
	if shards == 0 {
		return
	}
	busyRatio, busyMax := maxOverMean(vals, shards, "busy_ns")
	evRatio, evMax := maxOverMean(vals, shards, "events")
	fmt.Fprintf(w, "imbalance: busy max/mean %.2f (shard %d), events max/mean %.2f (shard %d)\n",
		busyRatio, busyMax, evRatio, evMax)
}

func maxOverMean(vals map[string]int64, shards int, field string) (float64, int) {
	var sum, max int64
	maxAt := 0
	for i := 0; i < shards; i++ {
		v := shardKey(vals, i, field)
		sum += v
		if v > max {
			max, maxAt = v, i
		}
	}
	if sum == 0 {
		return 0, maxAt
	}
	mean := float64(sum) / float64(shards)
	return float64(max) / mean, maxAt
}

// nullOverhead reports the null-advance bookkeeping the protocol paid
// per useful grant: Bellman-Ford rounds per grant call and lb
// relaxations per granted window.
func nullOverhead(w io.Writer, vals map[string]int64, shards int) {
	calls := vals["runtime.coord.grant_calls"]
	rounds := vals["runtime.coord.relax_rounds"]
	var grants, nulls int64
	for i := 0; i < shards; i++ {
		grants += shardKey(vals, i, "grants")
		nulls += shardKey(vals, i, "null_advances")
	}
	if calls == 0 {
		return
	}
	fmt.Fprintf(w, "null-advance overhead: %.2f relax rounds/grant call, %.2f null advances/window (%d windows over %d calls)\n",
		ratio(rounds, calls), ratio(nulls, grants), grants, calls)
}

func workerUtilization(w io.Writer, vals map[string]int64, shards int) {
	var busy, blocked, idle int64
	for i := 0; i < shards; i++ {
		busy += workerKey(vals, i, "busy_ns")
		blocked += workerKey(vals, i, "blocked_ns")
		idle += workerKey(vals, i, "idle_ns")
	}
	total := busy + blocked + idle
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "workers: busy %.0f%% / blocked %.0f%% / idle %.0f%% (aggregate over %d workers)\n",
		pct(busy, total), pct(blocked, total), pct(idle, total), shards)
}

// queueChurn aggregates the calendar-queue resize and overflow
// migration counters across engines, normalized per 1k events.
func queueChurn(w io.Writer, vals map[string]int64) {
	var grows, shrinks, migr, events int64
	seen := false
	for n, v := range vals {
		switch {
		case strings.HasSuffix(n, ".queue.grows"):
			grows += v
			seen = true
		case strings.HasSuffix(n, ".queue.shrinks"):
			shrinks += v
		case strings.HasSuffix(n, ".queue.migrations"):
			migr += v
		case strings.HasSuffix(n, ".processed") && strings.HasPrefix(n, "runtime.engine."):
			events += v
		}
	}
	if !seen {
		return
	}
	fmt.Fprintf(w, "queue churn: %d grows, %d shrinks, %.2f overflow migrations/1k events\n",
		grows, shrinks, 1000*ratio(migr, events))
}

func poolPressure(w io.Writer, vals map[string]int64) {
	gets, ok := vals["runtime.pool.gets"]
	if !ok || gets == 0 {
		return
	}
	fmt.Fprintf(w, "packet pool: %d gets, %d releases, in-use high water %d\n",
		gets, vals["runtime.pool.releases"], vals["runtime.pool.inuse_hiwater"])
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
