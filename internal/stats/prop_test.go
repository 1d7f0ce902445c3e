package stats

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// counterSpec is a reproducible recipe for a Set: a sequence of Add
// operations. Values are small integers so float64 addition is exact and
// the algebraic laws checked below (commutativity, associativity) hold
// exactly rather than up to rounding.
type counterSpec struct {
	ops []counterOp
}

type counterOp struct {
	name string
	v    float64
}

// Generate implements quick.Generator: up to a dozen operations over a
// small name alphabet, so duplicate names (the interesting case for Add
// and Merge) occur often.
func (counterSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	ops := make([]counterOp, r.Intn(12))
	for i := range ops {
		ops[i] = counterOp{
			name: string(rune('a' + r.Intn(8))),
			v:    float64(r.Intn(2001) - 1000),
		}
	}
	return reflect.ValueOf(counterSpec{ops: ops})
}

func (c counterSpec) build() *Set {
	s := NewSet()
	for _, op := range c.ops {
		s.Add(op.name, op.v)
	}
	return s
}

// sameValues reports whether two sets agree on every counter either one
// mentions (insertion order may legitimately differ).
func sameValues(a, b *Set) bool {
	for _, n := range a.Names() {
		if a.Get(n) != b.Get(n) {
			return false
		}
	}
	for _, n := range b.Names() {
		if a.Get(n) != b.Get(n) {
			return false
		}
	}
	return true
}

func TestMergeCommutative(t *testing.T) {
	f := func(a, b counterSpec) bool {
		ab := a.build()
		ab.Merge(b.build())
		ba := b.build()
		ba.Merge(a.build())
		return sameValues(ab, ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeAssociative(t *testing.T) {
	f := func(a, b, c counterSpec) bool {
		left := a.build()
		left.Merge(b.build())
		left.Merge(c.build())

		bc := b.build()
		bc.Merge(c.build())
		right := a.build()
		right.Merge(bc)
		return sameValues(left, right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMergeFastPathMatchesSlowPath pins the identical-layout fast path to
// the generic name-by-name merge.
func TestMergeFastPathMatchesSlowPath(t *testing.T) {
	f := func(a counterSpec, deltas []int16) bool {
		// Same layout: clone a, perturb values only.
		dst := a.build()
		src := a.build()
		for i, n := range src.Names() {
			if i < len(deltas) {
				src.Put(n, float64(deltas[i]))
			}
		}
		want := NewSet()
		for _, n := range dst.Names() {
			want.Put(n, dst.Get(n)+src.Get(n))
		}
		dst.Merge(src)
		return sameValues(dst, want) &&
			reflect.DeepEqual(dst.Names(), want.Names())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	f := func(spec counterSpec, extra []float64) bool {
		s := spec.build()
		// Overwrite some counters with arbitrary finite floats: the
		// round trip must be exact for any representable value, not
		// just integers.
		for i, n := range s.Names() {
			if i < len(extra) {
				s.Put(n, extra[i])
			}
		}
		b, err := json.Marshal(s)
		if err != nil {
			return false
		}
		var back Set
		if err := json.Unmarshal(b, &back); err != nil {
			return false
		}
		if !reflect.DeepEqual(s.Names(), back.Names()) {
			return false
		}
		for _, n := range s.Names() {
			if s.Get(n) != back.Get(n) {
				return false
			}
		}
		// Re-encoding must be byte-identical: the golden regression
		// suite depends on stable serialization.
		b2, err := json.Marshal(&back)
		return err == nil && bytes.Equal(b, b2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
