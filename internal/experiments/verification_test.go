package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestVerificationComparison(t *testing.T) {
	v := structureSuite().VerificationComparison()
	if len(v.Rows) != 8 { // 4 schemes × 2 classes
		t.Fatalf("rows = %d", len(v.Rows))
	}
	for _, class := range classes {
		for _, scheme := range []string{"dmdc", "age-table", "value-based", "value+svw"} {
			if !slices.ContainsFunc(v.Rows, func(r VerificationRow) bool { return r.Class == class && r.Scheme == scheme }) {
				t.Errorf("missing row %v/%s", class, scheme)
			}
		}
	}
	if !strings.Contains(v.String(), "value+svw") {
		t.Error("rendering incomplete")
	}
}
