package experiments

import (
	"slices"
	"testing"
)

// paperShapeGroups names TestPaperShapes' subtests: one per paper
// artifact, or pair of artifacts whose claims compare them, with the
// -only artifacts whose claims it checks.
var paperShapeGroups = []struct {
	name      string
	artifacts []string
}{
	{"Figure2", []string{"figure2"}},
	{"Figure3", []string{"figure3"}},
	{"YLAEnergy", []string{"yla"}},
	{"StoreFilter", []string{"sqfilter"}},
	{"Figure4", []string{"figure4"}},
	{"Tables2and4", []string{"table2", "table4"}},
	{"Tables3and5", []string{"table3", "table5"}},
	{"SafeLoads", []string{"safeloads"}},
	{"Figure5", []string{"figure5"}},
	{"CheckQueue", []string{"queue"}},
	{"Table6", []string{"table6"}},
	{"Extensions", []string{"tablesweep", "ylasweep", "sqfilter-ext", "clamp"}},
	{"RelatedWork", []string{"relatedwork", "verification"}},
}

// TestPaperShapes checks every reproduced claim of the claims table at a
// moderate simulation scale, so regressions in the simulator, the
// workloads, or the energy calibration surface as failures here rather
// than silently bending the reproduction. Known deviations are measured
// and logged, not checked: TestExperimentsDoc judges them at the
// documented scale. Skipped under -short.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape regression is slow")
	}
	s := mustSuite(Options{
		Insts: 150_000,
		Benchmarks: []string{
			"gzip", "gcc", "vortex", "parser", // INT spread
			"swim", "art", "applu", "mesa", // FP spread
		},
	})
	s.get(RunKeys()...) // one matrix, so each benchmark's path is recorded once
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, g := range paperShapeGroups {
		t.Run(g.name, func(t *testing.T) {
			for _, c := range claims {
				if !slices.Contains(g.artifacts, c.artifact) {
					continue
				}
				checked++
				measured, ok := c.check(s)
				switch {
				case c.status != reproduced:
					t.Logf("%s (%s): measured %s", c.text, c.status, measured)
				case !ok:
					t.Errorf("%s: measured %s, accepted if %s (paper: %s)", c.text, measured, c.accept, c.paper)
				}
			}
		})
	}
	if checked != len(claims) {
		t.Errorf("the subtests checked %d of %d claims: give every claimed artifact a group", checked, len(claims))
	}
}
