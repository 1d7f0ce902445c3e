// Package stats provides named counters and a running summary for
// simulation results, plus a simple ASCII renderer for the experiment
// tables.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Set is an ordered collection of named floating-point counters. Storage
// is slice-backed (parallel name/value slices in insertion order) with a
// name→index map on the side, so per-update cost is one map lookup by
// name. The zero value is not ready for use; call NewSet.
type Set struct {
	index map[string]int
	names []string
	vals  []float64
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{index: make(map[string]int)}
}

// NewSetOf returns a set holding vals[i] under names[i], in order, and
// takes ownership of both slices. A repeated name keeps its first position
// and takes its last value, as successive Puts would, and is compacted out
// of both slices; repeated reports whether any name repeated. The set is
// built in one pass over a presized index. It panics when the slices
// differ in length.
func NewSetOf(names []string, vals []float64) (s *Set, repeated bool) {
	if len(names) != len(vals) {
		panic(fmt.Sprintf("stats: %d names for %d values", len(names), len(vals)))
	}
	index := make(map[string]int, len(names))
	k := 0
	for i, name := range names {
		if j, ok := index[name]; ok {
			vals[j] = vals[i]
			repeated = true
			continue
		}
		index[name] = k
		names[k], vals[k] = name, vals[i]
		k++
	}
	return &Set{index: index, names: names[:k], vals: vals[:k]}, repeated
}

// slot returns the index for name, appending a zero-valued counter first
// if it does not exist yet.
func (s *Set) slot(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	i := len(s.names)
	s.index[name] = i
	s.names = append(s.names, name)
	s.vals = append(s.vals, 0)
	return i
}

// Add increases the named counter by v, creating it if absent.
func (s *Set) Add(name string, v float64) {
	s.vals[s.slot(name)] += v
}

// Put sets the named counter to v, replacing any previous value.
func (s *Set) Put(name string, v float64) {
	s.vals[s.slot(name)] = v
}

// Get returns the value of the named counter, or zero if absent.
func (s *Set) Get(name string) float64 {
	if i, ok := s.index[name]; ok {
		return s.vals[i]
	}
	return 0
}

// Len returns the number of counters.
func (s *Set) Len() int { return len(s.names) }

// At returns the name and value of the i-th counter in insertion order.
func (s *Set) At(i int) (name string, v float64) { return s.names[i], s.vals[i] }

// Names returns the counter names in insertion order.
func (s *Set) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Merge adds every counter of other into s. When both sets have an
// identical layout (same names in the same order — the common case when
// merging results of repeated runs), the merge is a single fused pass over
// the value slices with no map traffic.
func (s *Set) Merge(other *Set) {
	if len(s.names) == len(other.names) {
		same := true
		for i, n := range other.names {
			if s.names[i] != n {
				same = false
				break
			}
		}
		if same {
			for i, v := range other.vals {
				s.vals[i] += v
			}
			return
		}
	}
	for i, name := range other.names {
		s.Add(name, other.vals[i])
	}
}

// setJSON is the serialized form of a Set: parallel name/value slices in
// insertion order, so a round trip preserves both values and ordering.
type setJSON struct {
	Names  []string  `json:"names"`
	Values []float64 `json:"values"`
}

// MarshalJSON encodes the set with its insertion order intact.
func (s *Set) MarshalJSON() ([]byte, error) {
	return json.Marshal(setJSON{Names: s.names, Values: s.vals})
}

// UnmarshalJSON decodes a set encoded by MarshalJSON, replacing any
// existing contents. A repeated name keeps its first position and takes
// its last value.
func (s *Set) UnmarshalJSON(b []byte) error {
	var sj setJSON
	if err := json.Unmarshal(b, &sj); err != nil {
		return err
	}
	if len(sj.Names) != len(sj.Values) {
		return fmt.Errorf("stats: malformed set: %d names, %d values",
			len(sj.Names), len(sj.Values))
	}
	set, _ := NewSetOf(sj.Names, sj.Values)
	*s = *set
	return nil
}

// String renders the set as "name value" lines in insertion order.
func (s *Set) String() string {
	var b strings.Builder
	for i, name := range s.names {
		fmt.Fprintf(&b, "%-40s %g\n", name, s.vals[i])
	}
	return b.String()
}

// Summary aggregates a sample of values: mean, min, max, and count.
type Summary struct {
	N   int
	Sum float64
	Min float64
	Max float64
}

// Observe folds v into the summary.
func (m *Summary) Observe(v float64) {
	if m.N == 0 || v < m.Min {
		m.Min = v
	}
	if m.N == 0 || v > m.Max {
		m.Max = v
	}
	m.N++
	m.Sum += v
}

// Mean returns the arithmetic mean of observed values, or zero when empty.
func (m Summary) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.Sum / float64(m.N)
}

// String renders "mean [min, max] (n)".
func (m Summary) String() string {
	return fmt.Sprintf("%.3f [%.3f, %.3f] (n=%d)", m.Mean(), m.Min, m.Max, m.N)
}

// Table is a simple column-aligned ASCII table builder used by the
// experiment harness to print paper-style tables.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells render with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := len(widths) - 1
	if total < 0 {
		total = 0
	}
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
