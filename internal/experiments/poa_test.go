package experiments

import "testing"

// Four PoA validators commit five heights and agree on the last block.
func TestPoACommitsFast(t *testing.T) {
	c, err := newE10Cluster(4, 41, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.startPoA(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.run("poa", 5); err != nil {
		t.Fatal(err)
	}
	ref, _ := c.apps[0].Chain.BlockAt(4)
	for i, app := range c.apps[1:] {
		if b, _ := app.Chain.BlockAt(4); b.ID() != ref.ID() {
			t.Fatalf("poa validator %d diverged at height 4", i+1)
		}
	}
}
