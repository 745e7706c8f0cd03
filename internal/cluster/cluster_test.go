package cluster

import (
	"testing"
	"time"

	"loongserve/internal/kvcache"
	"loongserve/internal/model"
)

func testCluster(t *testing.T, nodes, gpus, tp int) *Cluster {
	t.Helper()
	c, err := New(model.LWM1MText(), A800(), nodes, gpus, tp)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewLayout(t *testing.T) {
	c := testCluster(t, 1, 8, 2)
	if c.NumInstances() != 4 {
		t.Fatalf("instances = %d, want 4", c.NumInstances())
	}
	for i, inst := range c.Instances {
		if int(inst.ID) != i || inst.Node != 0 || inst.TP != 2 {
			t.Fatalf("instance %d = %+v", i, inst)
		}
	}
}

func TestNewMultiNodeLayout(t *testing.T) {
	c := testCluster(t, 2, 8, 2)
	if c.NumInstances() != 8 {
		t.Fatalf("instances = %d, want 8", c.NumInstances())
	}
	if c.Instances[3].Node != 0 || c.Instances[4].Node != 1 {
		t.Fatalf("node layout wrong: %v %v", c.Instances[3].Node, c.Instances[4].Node)
	}
}

func TestNewRejectsBadShapes(t *testing.T) {
	m := model.LWM1MText()
	if _, err := New(m, A800(), 1, 8, 3); err == nil {
		t.Fatal("tp=3 into 8 GPUs accepted")
	}
	if _, err := New(m, A800(), 0, 8, 2); err == nil {
		t.Fatal("zero nodes accepted")
	}
	// A single GPU cannot hold 13.5 GB weights + 12 GB reserve in... it can
	// (80 GB); but a tiny HBM cannot.
	hw := A800()
	hw.HBMBytes = 10e9
	if _, err := New(m, hw, 1, 8, 1); err == nil {
		t.Fatal("model exceeding HBM accepted")
	}
}

// Calibration anchors derived in DESIGN.md: a TP=2 instance holds ~233K KV
// tokens, a TP=4 instance ~493K (just below LV-Eval's longest request of
// 497.3K — the DistServe OOM in Fig 10), and a TP=8 instance ~1.01M.
func TestKVCapacityAnchors(t *testing.T) {
	m := model.LWM1MText()
	hw := A800()
	cases := []struct {
		tp       int
		min, max int
	}{
		{2, 220_000, 245_000},
		{4, 480_000, 497_000},
		{8, 980_000, 1_030_000},
	}
	for _, tc := range cases {
		got, err := KVCapacityTokens(m, hw, tc.tp)
		if err != nil {
			t.Fatal(err)
		}
		if got < tc.min || got > tc.max {
			t.Fatalf("tp=%d capacity = %d tokens, want in [%d, %d]", tc.tp, got, tc.min, tc.max)
		}
	}
	// The DistServe-critical property: TP=4 capacity is *less* than the
	// longest LV-Eval request, TP=8 is more.
	c4, _ := KVCapacityTokens(m, hw, 4)
	c8, _ := KVCapacityTokens(m, hw, 8)
	const lvEvalMax = 497_300
	if c4 >= lvEvalMax {
		t.Fatalf("TP=4 capacity %d should be < %d (DistServe OOM anchor)", c4, lvEvalMax)
	}
	if c8 <= lvEvalMax {
		t.Fatalf("TP=8 capacity %d should be > %d", c8, lvEvalMax)
	}
}

func TestCapacitiesAndPool(t *testing.T) {
	c := testCluster(t, 1, 8, 2)
	pool := c.NewPool()
	for _, inst := range c.Instances {
		if got := pool.Pool(inst.ID).Capacity(); got != inst.KVCapacity {
			t.Fatalf("instance %d pool capacity %d, want %d", inst.ID, got, inst.KVCapacity)
		}
	}
	if pool.Pool(4) != nil {
		t.Fatal("pool has a fifth instance")
	}
	if pool.TotalCapacity() != 4*c.Instances[0].KVCapacity {
		t.Fatalf("pool capacity %d", pool.TotalCapacity())
	}
}

func TestLinkBetween(t *testing.T) {
	c := testCluster(t, 2, 8, 2)
	hw := c.HW
	intra := c.LinkBetween(0, 1)
	if intra.Bandwidth != hw.NVLinkBandwidth || intra.Latency != hw.NVLinkLatency {
		t.Fatalf("intra-node link %+v", intra)
	}
	inter := c.LinkBetween(0, 5)
	if inter.Bandwidth != hw.IBBandwidth || inter.Latency != hw.IBLatency {
		t.Fatalf("inter-node link %+v", inter)
	}
	self := c.LinkBetween(2, 2)
	if self.Latency != 0 {
		t.Fatalf("self link has latency %v", self.Latency)
	}
}

func TestGroupLinkBottleneck(t *testing.T) {
	c := testCluster(t, 2, 8, 2)
	// All on node 0: NVLink.
	l := c.GroupLink([]kvcache.InstanceID{0, 1, 2})
	if l.Bandwidth != c.HW.NVLinkBandwidth {
		t.Fatalf("intra-node group got %v", l.Bandwidth)
	}
	// Spanning nodes: IB is the bottleneck.
	l = c.GroupLink([]kvcache.InstanceID{0, 1, 4, 5})
	if l.Bandwidth != c.HW.IBBandwidth || l.Latency != c.HW.IBLatency {
		t.Fatalf("cross-node group got %+v", l)
	}
	// Singleton and empty groups are free.
	if c.GroupLink([]kvcache.InstanceID{3}).Latency != 0 {
		t.Fatal("singleton group has latency")
	}
	if c.GroupLink(nil).Latency != 0 {
		t.Fatal("empty group has latency")
	}
}

func TestTransferTime(t *testing.T) {
	l := Link{Bandwidth: 100e9, Latency: 10 * time.Microsecond}
	got := l.Transfer(100e9)
	want := time.Second + 10*time.Microsecond
	if got != want {
		t.Fatalf("Transfer = %v, want %v", got, want)
	}
	if l.Transfer(0) != 0 {
		t.Fatal("zero-byte transfer should be free")
	}
}

// Paper anchor (§4.1): migrating the KV cache of a single long request
// takes *seconds*, far longer than a decoding step. A 1M-token request at
// 400 GB/s NVLink moves 512 GB ≈ 1.3 s.
func TestPaperAnchorMigrationSeconds(t *testing.T) {
	c := testCluster(t, 1, 8, 2)
	d := c.MigrationTime(1<<20, 0, 1)
	if d < 900*time.Millisecond || d > 2*time.Second {
		t.Fatalf("1M-token migration = %v, want ≈1.3s", d)
	}
	// And a 100K-token L-Eval-scale request still takes >100ms.
	d = c.MigrationTime(100_000, 0, 1)
	if d < 100*time.Millisecond {
		t.Fatalf("100K-token migration = %v, want >100ms", d)
	}
	if c.MigrationTime(100, 2, 2) != 0 {
		t.Fatal("self-migration should be free")
	}
	if c.MigrationTime(0, 0, 1) != 0 {
		t.Fatal("zero-token migration should be free")
	}
}

func TestInstanceLookup(t *testing.T) {
	c := testCluster(t, 1, 8, 4)
	if c.Instance(1) == nil || c.Instance(1).TP != 4 {
		t.Fatal("Instance(1) lookup failed")
	}
	if c.Instance(99) != nil || c.Instance(-1) != nil {
		t.Fatal("out-of-range lookup returned instance")
	}
}

func TestKVCapacityScalesWithTP(t *testing.T) {
	m := model.LWM1MText()
	hw := A800()
	prev := 0
	for _, tp := range []int{1, 2, 4, 8} {
		cap, err := KVCapacityTokens(m, hw, tp)
		if err != nil {
			t.Fatalf("tp=%d: %v", tp, err)
		}
		if cap <= prev {
			t.Errorf("tp=%d capacity %d not larger than tp/2's %d", tp, cap, prev)
		}
		// Doubling TP more than doubles free HBM (the weight replica is
		// amortized over more GPUs), so capacity grows superlinearly.
		if prev > 0 && cap < 2*prev {
			t.Errorf("tp=%d capacity %d < 2x tp/2's %d: weight amortization lost", tp, cap, prev)
		}
		prev = cap
	}
}

func TestKVCapacityRejectsTooSmallHBM(t *testing.T) {
	m := model.LWM1MText()
	hw := A800()
	hw.HBMBytes = m.WeightBytes() / 2 // one GPU cannot even hold the weights
	if _, err := KVCapacityTokens(m, hw, 1); err == nil {
		t.Error("undersized HBM accepted")
	}
}

func TestLinkTransferEdgeCases(t *testing.T) {
	l := Link{Bandwidth: 1e9, Latency: time.Millisecond}
	if d := l.Transfer(0); d != 0 {
		t.Errorf("Transfer(0) = %v", d)
	}
	if d := l.Transfer(-5); d != 0 {
		t.Errorf("Transfer(-5) = %v", d)
	}
	// 1 GB over 1 GB/s = 1s + 1ms latency.
	if d := l.Transfer(1e9); d != time.Second+time.Millisecond {
		t.Errorf("Transfer(1GB) = %v", d)
	}
	// Latency dominates small transfers.
	if d := l.Transfer(1); d < time.Millisecond {
		t.Errorf("Transfer(1B) = %v ignored latency", d)
	}
}

func TestGroupLinkSpanningNodesHitsIB(t *testing.T) {
	m := model.LWM1MText()
	hw := A800()
	c, err := New(m, hw, 2, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Instances 0-3 on node 0, 4-7 on node 1.
	intra := c.GroupLink([]kvcache.InstanceID{0, 1, 2})
	if intra.Bandwidth != hw.NVLinkBandwidth {
		t.Errorf("intra-node group bottleneck = %g, want NVLink %g", intra.Bandwidth, hw.NVLinkBandwidth)
	}
	cross := c.GroupLink([]kvcache.InstanceID{0, 1, 4})
	if cross.Bandwidth != hw.IBBandwidth {
		t.Errorf("cross-node group bottleneck = %g, want IB %g", cross.Bandwidth, hw.IBBandwidth)
	}
	if cross.Latency != hw.IBLatency {
		t.Errorf("cross-node group latency = %v, want %v", cross.Latency, hw.IBLatency)
	}
	solo := c.GroupLink([]kvcache.InstanceID{3})
	if solo.Latency != 0 {
		t.Errorf("single-instance group latency = %v", solo.Latency)
	}
}

func TestMigrationTimeProperties(t *testing.T) {
	m := model.LWM1MText()
	hw := A800()
	c, err := New(m, hw, 2, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.MigrationTime(1000, 2, 2); d != 0 {
		t.Errorf("self-migration = %v", d)
	}
	if d := c.MigrationTime(0, 0, 1); d != 0 {
		t.Errorf("zero-token migration = %v", d)
	}
	intra := c.MigrationTime(100_000, 0, 1)
	cross := c.MigrationTime(100_000, 0, 4)
	if cross <= intra {
		t.Errorf("cross-node migration %v <= intra-node %v", cross, intra)
	}
	// Monotone in token count.
	if c.MigrationTime(200_000, 0, 1) <= intra {
		t.Error("migration time not monotone in tokens")
	}
}

func TestInstanceLayoutNodeAssignment(t *testing.T) {
	m := model.LWM1MText()
	hw := A800()
	c, err := New(m, hw, 3, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInstances() != 6 {
		t.Fatalf("3 nodes x 8 GPUs / TP=4 = %d instances, want 6", c.NumInstances())
	}
	for i, inst := range c.Instances {
		if want := NodeID(i / 2); inst.Node != want {
			t.Errorf("instance %d on node %d, want %d", i, inst.Node, want)
		}
		if inst.TP != 4 {
			t.Errorf("instance %d TP = %d", i, inst.TP)
		}
	}
	if c.Instance(kvcache.InstanceID(99)) != nil {
		t.Error("out-of-range lookup returned an instance")
	}
	if c.Instance(kvcache.InstanceID(-1)) != nil {
		t.Error("negative lookup returned an instance")
	}
}
