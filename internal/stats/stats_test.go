package stats

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet()
	s.Add("a", 1)
	s.Add("a", 1)
	s.Add("b", 3.5)
	if got := s.Get("a"); got != 2 {
		t.Errorf("a = %v, want 2", got)
	}
	if got := s.Get("b"); got != 3.5 {
		t.Errorf("b = %v, want 3.5", got)
	}
	if got := s.Get("missing"); got != 0 {
		t.Errorf("missing = %v, want 0", got)
	}
	if names := s.Names(); !slices.Contains(names, "a") || slices.Contains(names, "missing") {
		t.Errorf("names = %v: reading a counter must not create it", names)
	}
	s.Put("a", 10)
	if got := s.Get("a"); got != 10 {
		t.Errorf("after Put a = %v, want 10", got)
	}
}

func TestSetOrder(t *testing.T) {
	s := NewSet()
	s.Add("z", 1)
	s.Add("a", 1)
	s.Add("m", 1)
	s.Add("z", 1) // repeat must not duplicate
	names := s.Names()
	want := []string{"z", "a", "m"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestSetMerge(t *testing.T) {
	a := NewSet()
	a.Add("x", 1)
	b := NewSet()
	b.Add("x", 2)
	b.Add("y", 5)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 5 {
		t.Errorf("merge wrong: x=%v y=%v", a.Get("x"), a.Get("y"))
	}
}

func TestSetString(t *testing.T) {
	s := NewSet()
	s.Add("cycles", 100)
	out := s.String()
	if !strings.Contains(out, "cycles") || !strings.Contains(out, "100") {
		t.Errorf("String output missing content: %q", out)
	}
}

func TestSummary(t *testing.T) {
	var m Summary
	if m.Mean() != 0 {
		t.Error("empty summary mean should be 0")
	}
	for _, v := range []float64{3, 1, 4, 1, 5} {
		m.Observe(v)
	}
	if m.N != 5 {
		t.Errorf("N = %d", m.N)
	}
	if m.Min != 1 || m.Max != 5 {
		t.Errorf("min/max = %v/%v", m.Min, m.Max)
	}
	if got := m.Mean(); math.Abs(got-2.8) > 1e-12 {
		t.Errorf("mean = %v, want 2.8", got)
	}
	if m.String() == "" {
		t.Error("empty String")
	}
}

// Property: summary mean lies within [min, max].
func TestSummaryMeanBoundedProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var m Summary
		for _, v := range vals {
			// Restrict to a range where the running sum cannot overflow;
			// simulator statistics live far below this bound.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e300 {
				continue
			}
			m.Observe(v / 1e10)
		}
		if m.N == 0 {
			return true
		}
		eps := 1e-9 * (math.Abs(m.Min) + math.Abs(m.Max) + 1)
		return m.Mean() >= m.Min-eps && m.Mean() <= m.Max+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.0)
	tb.AddRow("beta", 123.456)
	tb.AddRow("gamma", 0.25)
	out := tb.String()
	for _, want := range []string{"Demo", "name", "alpha", "beta", "123.5", "0.250", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(42)
	out := tb.String()
	if strings.HasPrefix(out, "\n") {
		t.Error("no-title table should not start with newline")
	}
	if !strings.Contains(out, "42") {
		t.Error("missing cell")
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	s := NewSet()
	s.Put("zeta", 1.5)
	s.Put("alpha", 0) // zero values must survive too
	s.Add("zeta", 1)
	s.Put("mid", -3)

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Set
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"zeta", "alpha", "mid"}
	gotOrder := back.Names()
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("order length %d, want %d", len(gotOrder), len(wantOrder))
	}
	for i, n := range wantOrder {
		if gotOrder[i] != n {
			t.Errorf("order[%d] = %q, want %q", i, gotOrder[i], n)
		}
		if back.Get(n) != s.Get(n) {
			t.Errorf("%s = %g, want %g", n, back.Get(n), s.Get(n))
		}
	}
	if !slices.Contains(back.Names(), "alpha") {
		t.Error("zero-valued counter lost")
	}
	// The decoded set must be fully usable, not just readable.
	back.Add("new", 1)
	if back.Get("new") != 1 {
		t.Error("decoded set not writable")
	}

	// A repeated name keeps its first position and takes its last value,
	// as successive Puts would.
	var dup Set
	if err := json.Unmarshal([]byte(`{"names":["a","b","a","c"],"values":[1,2,3,4]}`), &dup); err != nil {
		t.Fatal(err)
	}
	if got := dup.Names(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("repeated name: order %v, want [a b c]", got)
	}
	if dup.Get("a") != 3 || dup.Get("b") != 2 || dup.Get("c") != 4 {
		t.Errorf("repeated name: values a=%g b=%g c=%g, want 3 2 4", dup.Get("a"), dup.Get("b"), dup.Get("c"))
	}
	dup.Add("c", 1)
	if dup.Get("c") != 5 || dup.Len() != 3 {
		t.Errorf("repeated name: set not writable after decode: c=%g, %d counters", dup.Get("c"), dup.Len())
	}
}

// TestNewSetOf: the constructor keeps the slices' order and values, is
// indexed for Get and writes, and reports a repeated name.
func TestNewSetOf(t *testing.T) {
	s, repeated := NewSetOf([]string{"x", "y"}, []float64{1.5, -2})
	if repeated {
		t.Error("unique names reported as repeated")
	}
	if s.Len() != 2 || s.Get("x") != 1.5 || s.Get("y") != -2 {
		t.Fatalf("NewSetOf lost values: %v", s)
	}
	if name, v := s.At(1); name != "y" || v != -2 {
		t.Errorf("At(1) = %q, %g; want y, -2", name, v)
	}
	s.Put("z", 3)
	if s.Get("z") != 3 || s.Len() != 3 {
		t.Error("constructed set not writable")
	}
	s, repeated = NewSetOf([]string{"x", "x"}, []float64{1, 2})
	if !repeated || s.Len() != 1 || s.Get("x") != 2 {
		t.Errorf("repeated name: repeated=%v, %d counters, x=%g; want true, 1, 2", repeated, s.Len(), s.Get("x"))
	}
}

func TestSetJSONMalformed(t *testing.T) {
	var s Set
	if err := json.Unmarshal([]byte(`{"names":["a","b"],"values":[1]}`), &s); err == nil {
		t.Error("mismatched names/values accepted")
	}
	if err := json.Unmarshal([]byte(`{notjson`), &s); err == nil {
		t.Error("garbage accepted")
	}
}
