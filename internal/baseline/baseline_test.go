package baseline

import (
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/rng"
)

func TestClusterTorusBasics(t *testing.T) {
	c, err := NewClusterTorus(2, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 600 {
		t.Errorf("NumNodes = %d", c.NumNodes())
	}
	if c.Degree() != 5+4*6 {
		t.Errorf("Degree = %d", c.Degree())
	}
	// Clique edge; inter-cluster edge; non-edge.
	if !c.Adjacent(0, 5) {
		t.Error("clique edge missing")
	}
	if !c.Adjacent(0, 1*6) { // cluster (0,0) and (0,1)
		t.Error("adjacent cluster edge missing")
	}
	if c.Adjacent(0, 5*6*10) { // far cluster
		t.Error("far clusters adjacent")
	}
	if c.Adjacent(3, 3) {
		t.Error("self loop")
	}
}

func TestClusterTorusRejects(t *testing.T) {
	for _, bad := range [][3]int{{0, 10, 3}, {2, 2, 3}, {2, 10, 0}} {
		if _, err := NewClusterTorus(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("NewClusterTorus(%v) accepted", bad)
		}
	}
}

func TestClusterEmbedNoFaults(t *testing.T) {
	c, _ := NewClusterTorus(2, 12, 4)
	emb, err := c.Embed(fault.NewSet(c.NumNodes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Map) != 144 {
		t.Errorf("embedding size %d", len(emb.Map))
	}
}

func TestClusterEmbedConstantFaultRate(t *testing.T) {
	// With g = Theta(log n) clusters survive constant fault rates whp.
	c, _ := NewClusterTorus(2, 20, 12)
	faults := fault.NewSet(c.NumNodes())
	faults.Bernoulli(rng.New(3), 0.2)
	if _, err := c.Embed(faults, nil); err != nil {
		t.Fatalf("p=0.2 with g=12: %v", err)
	}
}

func TestClusterEmbedEdgeFaults(t *testing.T) {
	c, _ := NewClusterTorus(2, 12, 10)
	faults := fault.NewSet(c.NumNodes())
	faults.Bernoulli(rng.New(5), 0.1)
	edges := fault.NewOracle(7, 0.001)
	if _, err := c.Embed(faults, edges); err != nil {
		t.Fatalf("edge faults: %v", err)
	}
}

func TestClusterEmbedDeadClusterFails(t *testing.T) {
	c, _ := NewClusterTorus(2, 8, 3)
	faults := fault.NewSet(c.NumNodes())
	for slot := 0; slot < 3; slot++ { // kill cluster 5 entirely
		faults.Add(5*3 + slot)
	}
	if _, err := c.Embed(faults, nil); err == nil {
		t.Error("dead cluster should break the embedding")
	}
}

func TestSpareGridBasics(t *testing.T) {
	sg, err := NewSpareGrid(10, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Side() != 14 || sg.NumNodes() != 196 {
		t.Errorf("derived quantities wrong: side=%d nodes=%d", sg.Side(), sg.NumNodes())
	}
	if !sg.Adjacent(0, 3) { // same row, offset 3 = L
		t.Error("bypass edge missing")
	}
	if sg.Adjacent(0, 4) { // offset 4 > L
		t.Error("edge beyond reach")
	}
	if !sg.Adjacent(0, 14) || !sg.Adjacent(0, 42) {
		t.Error("column edges missing")
	}
	if sg.Adjacent(0, 15) { // diagonal
		t.Error("diagonal edge should not exist")
	}
}

func TestSpareGridRecoverSpreadFaults(t *testing.T) {
	sg, _ := NewSpareGrid(20, 6, 3)
	faults := fault.NewSet(sg.NumNodes())
	// 6 faults in well-separated rows/columns.
	for i := 0; i < 6; i++ {
		faults.Add((4*i)*sg.Side() + 4*i)
	}
	emb, err := sg.Recover(faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Map) != 400 {
		t.Errorf("embedding size %d", len(emb.Map))
	}
}

func TestSpareGridFailsOnClusteredFaults(t *testing.T) {
	sg, _ := NewSpareGrid(20, 6, 3)
	faults := fault.NewSet(sg.NumNodes())
	// 4 consecutive faulty rows exceed bypass reach L-1 = 2.
	for i := 0; i < 4; i++ {
		faults.Add((8+i)*sg.Side() + 3)
	}
	if _, err := sg.Recover(faults); err == nil {
		t.Error("clustered rows beyond bypass reach should fail")
	}
}

func TestSpareGridFailsOnTooManyLines(t *testing.T) {
	sg, _ := NewSpareGrid(20, 3, 10)
	faults := fault.NewSet(sg.NumNodes())
	for i := 0; i < 4; i++ { // 4 faulty rows > 3 spares
		faults.Add((5*i)*sg.Side() + 2*i)
	}
	if _, err := sg.Recover(faults); err == nil {
		t.Error("more faulty rows than spares should fail")
	}
}

func TestSpareGridNoFaults(t *testing.T) {
	sg, _ := NewSpareGrid(8, 0, 1)
	if _, err := sg.Recover(fault.NewSet(sg.NumNodes())); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyticBCH(t *testing.T) {
	deg, nodes := AnalyticBCH(100, 10)
	if deg != 13 || nodes != 10000+1000 {
		t.Errorf("AnalyticBCH = (%d, %d)", deg, nodes)
	}
}

func TestSpareGridRejects(t *testing.T) {
	if _, err := NewSpareGrid(1, 2, 3); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewSpareGrid(10, -1, 3); err == nil {
		t.Error("negative spares accepted")
	}
	if _, err := NewSpareGrid(10, 2, 0); err == nil {
		t.Error("L=0 accepted")
	}
}
