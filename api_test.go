package dmdc_test

// API-compatibility gate: the exported surface of package dmdc, rendered
// by internal/apigen, must match the committed api.txt byte for byte.
// An intentional API change is re-pinned with:
//
//	go test -run '^TestAPISurfaceGolden$' -update .
//
// and the api.txt diff is reviewed like source.

import (
	"os"
	"testing"

	"dmdc/internal/apigen"
)

func TestAPISurfaceGolden(t *testing.T) {
	t.Parallel()
	got, err := apigen.Render(".")
	if err != nil {
		t.Fatalf("render API surface: %v", err)
	}
	if *updateGolden {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote api.txt")
		return
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exported API surface drifted from api.txt\n" +
			"review the change, then `go test -run '^TestAPISurfaceGolden$' -update .` and commit the diff")
	}
}
