package topo

import (
	"testing"

	"pmsb/internal/sim"
)

// Every sharded builder must assign every node exactly once, keep every
// cut-edge delay positive (the conservative protocol needs lookahead >
// 0), and stay within the declared shard count.
func TestPartitionInvariants(t *testing.T) {
	cases := []struct {
		name      string
		shards    int
		wantNodes int
		wantCuts  int
		build     func(coord *sim.Coordinator, shards int) *Partition
	}{
		{
			name: "fattree/1", shards: 1,
			// k=4: 16 hosts + 8 edges + 8 aggs + 4 cores.
			wantNodes: 36, wantCuts: 0,
			build: func(c *sim.Coordinator, n int) *Partition {
				_, p := NewFatTreeSharded(c, FatTreeConfig{K: 4, Ports: fifoProfile()}, n)
				return p
			},
		},
		{
			name: "fattree/2", shards: 2,
			// k=4, 2 shards: pods {0,1} vs {2,3}, cores {0,1} vs {2,3}.
			// Each pod has 2 aggs x 2 core links; the cut carries the
			// agg<->core pairs whose blocks differ, both directions.
			wantNodes: 36,
			// Pods on shard 0 reach cores 2,3 (agg 1's cores) = 2 links
			// per pod; same for shard-1 pods reaching cores 0,1. 4 pods x
			// 2 links x 2 directions.
			wantCuts: 16,
			build: func(c *sim.Coordinator, n int) *Partition {
				_, p := NewFatTreeSharded(c, FatTreeConfig{K: 4, Ports: fifoProfile()}, n)
				return p
			},
		},
		{
			name: "fattree/4", shards: 4,
			// One pod and one core per shard: every agg<->core link whose
			// core lives elsewhere is cut. Each pod owns 4 agg->core links
			// of which 1 is shard-local (its own core), so 3 cuts up per
			// pod; cores mirror them downward.
			wantNodes: 36, wantCuts: 24,
			build: func(c *sim.Coordinator, n int) *Partition {
				_, p := NewFatTreeSharded(c, FatTreeConfig{K: 4, Ports: fifoProfile()}, n)
				return p
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := sim.NewCoordinator()
			p := tc.build(coord, tc.shards)

			if p.Shards != tc.shards {
				t.Fatalf("Shards = %d, want %d", p.Shards, tc.shards)
			}
			if len(coord.Shards()) != tc.shards {
				t.Fatalf("coordinator has %d shards, want %d", len(coord.Shards()), tc.shards)
			}
			// Coverage: every node is assigned (assign panics on a
			// re-assignment, so the map holds each exactly once) to a
			// shard in range.
			for id, sh := range p.shardOf {
				if sh < 0 || sh >= tc.shards {
					t.Fatalf("node %d on shard %d of %d", id, sh, tc.shards)
				}
			}
			if len(p.shardOf) != tc.wantNodes {
				t.Fatalf("assigned %d nodes, want %d", len(p.shardOf), tc.wantNodes)
			}

			if len(p.Cuts) != tc.wantCuts {
				t.Fatalf("%d cut edges, want %d", len(p.Cuts), tc.wantCuts)
			}
			for _, cut := range p.Cuts {
				if cut.Delay <= 0 {
					t.Fatalf("cut %d->%d has non-positive delay %v", cut.From, cut.To, cut.Delay)
				}
				if cut.SrcShard == cut.DstShard {
					t.Fatalf("cut %d->%d does not cross shards", cut.From, cut.To)
				}
				fs, _ := p.ShardOf(cut.From)
				ts, _ := p.ShardOf(cut.To)
				if fs != cut.SrcShard || ts != cut.DstShard {
					t.Fatalf("cut %d->%d shard mismatch", cut.From, cut.To)
				}
			}
		})
	}
}

// A degenerate 1-shard partition must reproduce the serial wiring: same
// node IDs, same port counts, and a single engine driving everything.
func TestSingleShardEqualsSerialWiring(t *testing.T) {
	cfg := FatTreeConfig{K: 4, Ports: fifoProfile()}
	serial := NewFatTree(sim.NewEngine(), cfg)

	coord := sim.NewCoordinator()
	sharded, part := NewFatTreeSharded(coord, cfg, 1)

	if len(serial.Hosts) != len(sharded.Hosts) || len(serial.Switches) != len(sharded.Switches) ||
		len(serial.Edges) != len(sharded.Edges) || len(serial.Aggs) != len(sharded.Aggs) ||
		len(serial.Cores) != len(sharded.Cores) {
		t.Fatal("1-shard build has different element counts than serial")
	}
	for i := range serial.Hosts {
		if serial.Hosts[i].NodeID() != sharded.Hosts[i].NodeID() {
			t.Fatalf("host %d: ID %d != serial %d", i, sharded.Hosts[i].NodeID(), serial.Hosts[i].NodeID())
		}
		if sharded.Hosts[i].Engine() != sharded.Eng {
			t.Fatalf("host %d not on the single shard engine", i)
		}
	}
	for i := range serial.Switches {
		if serial.Switches[i].NodeID() != sharded.Switches[i].NodeID() {
			t.Fatalf("switch %d: ID %d != serial %d", i, sharded.Switches[i].NodeID(), serial.Switches[i].NodeID())
		}
		if serial.Switches[i].NumPorts() != sharded.Switches[i].NumPorts() {
			t.Fatalf("switch %d: %d ports != serial %d", i, sharded.Switches[i].NumPorts(), serial.Switches[i].NumPorts())
		}
	}
	if len(part.Cuts) != 0 {
		t.Fatalf("1-shard partition has %d cuts, want 0", len(part.Cuts))
	}
	if sharded.Eng != coord.Shards()[0].Engine() {
		t.Fatal("topology engine is not the shard engine")
	}
	if serial.BaseRTT() != sharded.BaseRTT() {
		t.Fatalf("BaseRTT diverged: %v vs %v", serial.BaseRTT(), sharded.BaseRTT())
	}
}
