package experiments

import (
	"strings"
	"testing"

	"dmdc/internal/trace"
)

func TestTableSizeSweep(t *testing.T) {
	s := testSuite(t, 80_000, "gcc", "vortex")
	r := s.TableSizeSweep()
	if len(r.Rows) != len(TableSweepSizes) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Hash-conflict replays must not grow with table size (diminishing
	// returns is the paper's point: they shrink, everything else stays).
	for _, class := range []trace.Class{trace.INT} {
		first := r.Rows[0].HashPerM[class]
		last := r.Rows[len(r.Rows)-1].HashPerM[class]
		if last > first*1.5+5 {
			t.Errorf("%v: hash replays grew with table size: %.1f -> %.1f", class, first, last)
		}
	}
	if !strings.Contains(r.String(), "table size") {
		t.Error("rendering incomplete")
	}
}

func TestDMDCYLASweep(t *testing.T) {
	s := testSuite(t, 80_000, "gcc", "swim")
	r := s.DMDCYLASweep()
	if len(r.Rows) != len(YLASweepCounts) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// More YLA registers → fewer unsafe stores → less checking.
	for _, class := range []trace.Class{trace.INT, trace.FP} {
		first := r.Rows[0]
		last := r.Rows[len(r.Rows)-1]
		if last.UnsafePct[class] > first.UnsafePct[class]+1 {
			t.Errorf("%v: unsafe%% grew with registers: %.1f -> %.1f",
				class, first.UnsafePct[class], last.UnsafePct[class])
		}
		if last.CheckingPct[class] > first.CheckingPct[class]+2 {
			t.Errorf("%v: checking%% grew with registers: %.1f -> %.1f",
				class, first.CheckingPct[class], last.CheckingPct[class])
		}
	}
	if !strings.Contains(r.String(), "#YLA") {
		t.Error("rendering incomplete")
	}
}

func TestSQFilterExtension(t *testing.T) {
	s := testSuite(t, 80_000, "gzip", "swim")
	r := s.SQFilterExtension()
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The filter is exact, so performance must be unchanged.
		if row.SlowdownPct.Mean() > 0.25 || row.SlowdownPct.Mean() < -0.25 {
			t.Errorf("%v: SQ filter changed performance by %.2f%%", row.Class, row.SlowdownPct.Mean())
		}
		// Some loads are filtered and SQ energy drops accordingly.
		if row.FilterPct.Mean() <= 0 {
			t.Errorf("%v: SQ filter inert", row.Class)
		}
		if row.SQSavingsPct.Mean() <= 0 {
			t.Errorf("%v: no SQ energy saved", row.Class)
		}
	}
	if !strings.Contains(r.String(), "store-side age filter") {
		t.Error("rendering incomplete")
	}
}

func TestClampAblation(t *testing.T) {
	s := testSuite(t, 80_000, "gcc", "vpr")
	r := s.ClampAblation()
	if len(r.Rows) != 4 { // 2 classes × 2 register counts
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The clamp remedy never hurts filtering; on branchy codes it helps.
		if row.WithoutPct.Mean() > row.WithPct.Mean()+1.0 {
			t.Errorf("%v yla%d: unclamped filtering (%.1f) beat clamped (%.1f)",
				row.Class, row.Regs, row.WithoutPct.Mean(), row.WithPct.Mean())
		}
	}
	if !strings.Contains(r.String(), "clamp") {
		t.Error("rendering incomplete")
	}
}

func TestExtensionsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := testSuite(t, 40_000, "gzip", "swim")
	out, err := s.Artifact("extensions")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table size sweep", "YLA register count sweep", "store-side age filter", "clamp"} {
		if !strings.Contains(out, want) {
			t.Errorf("extensions report missing %q", want)
		}
	}
}
