package experiments

import (
	"strings"
	"testing"
)

func TestRelatedWorkComparison(t *testing.T) {
	r := structureSuite().RelatedWork()
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.AgeTableLQSavePct.N == 0 || row.DMDCLQSavePct.N == 0 {
			t.Error("missing energy data")
		}
	}
	out := r.String()
	if !strings.Contains(out, "age-table") || !strings.Contains(out, "dmdc") {
		t.Error("rendering incomplete")
	}
}

func TestAgeTableRunsAllBenchSubset(t *testing.T) {
	s := testSuite(t, 30_000, "vortex")
	rs := s.Results(keyAgeTable)
	if len(rs) != 1 || rs[0] == nil {
		t.Fatal("age table run missing")
	}
	if rs[0].IPC() <= 0 {
		t.Error("age table run stalled")
	}
}
