package main

import (
	"os"
	"testing"
)

// TestSmokeSingleReads builds the daemon and runs single_reads end to end
// for two seconds. It starts processes, so -short skips it.
func TestSmokeSingleReads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts trustnewsd processes")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := findRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	env, err := prepare(root)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := findWorkload("single_reads")
	res, err := runWorkload(env, spec, 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted < 500 {
		t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), unresolved...) {
		if v, ok := res.metrics[d.name]; !ok || v <= 0 {
			t.Errorf("%s = %v, want a positive measurement", d.name, v)
		}
	}
	if left := strayDaemons(); len(left) != 0 {
		t.Errorf("daemons left running: %v", left)
	}
}
