package experiments

import (
	"strings"
	"testing"
)

func TestTableSizeSweep(t *testing.T) {
	r := structureSuite().TableSizeSweep()
	if len(r.Rows) != len(TableSweepSizes) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(r.String(), "table size") {
		t.Error("rendering incomplete")
	}
}

func TestDMDCYLASweep(t *testing.T) {
	r := structureSuite().DMDCYLASweep()
	if len(r.Rows) != len(YLASweepCounts) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(r.String(), "#YLA") {
		t.Error("rendering incomplete")
	}
}

func TestSQFilterExtension(t *testing.T) {
	r := structureSuite().SQFilterExtension()
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(r.String(), "store-side age filter") {
		t.Error("rendering incomplete")
	}
}

func TestClampAblation(t *testing.T) {
	r := structureSuite().ClampAblation()
	if len(r.Rows) != 4 { // 2 classes × 2 register counts
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(r.String(), "clamp") {
		t.Error("rendering incomplete")
	}
}

func TestExtensionsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	out, err := structureSuite().Artifact("extensions")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table size sweep", "YLA register count sweep", "store-side age filter", "clamp"} {
		if !strings.Contains(out, want) {
			t.Errorf("extensions report missing %q", want)
		}
	}
}
