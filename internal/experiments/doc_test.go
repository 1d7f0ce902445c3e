package experiments

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// EXPERIMENTS.md is written by hand except for its generated blocks, one
// per claimed artifact, each between a pair of markers:
//
//	<!-- claims:figure2 -->
//	…the artifact's -only output and its claims…
//	<!-- /claims:figure2 -->
//
// TestExperimentsDoc renders every block from one cold run at docInsts
// instructions on every benchmark, and fails when a committed block
// differs from its render; -update rewrites them.

const (
	docInsts   = 500_000
	docPath    = "../../EXPERIMENTS.md"
	blockStart = "<!-- claims:"
	blockEnd   = "<!-- /claims:"
	markerTail = " -->"
)

// spliceBlocks returns doc with the body of every generated block
// replaced by render(name, body), and the blocks' names in order. Text
// outside the blocks is kept as it is. It fails on a start marker with no
// matching end marker, an end marker outside a block, a block opened
// inside another, a name that appears twice, and a name render does not
// know.
func spliceBlocks(doc string, render func(name, body string) (string, bool)) (string, []string, error) {
	var b strings.Builder
	var names []string
	rest := doc
	for {
		i := strings.Index(rest, blockStart)
		if i < 0 {
			i = len(rest)
		}
		if strings.Contains(rest[:i], blockEnd) {
			return "", nil, fmt.Errorf("an end marker %q… has no start marker", blockEnd)
		}
		if i == len(rest) {
			b.WriteString(rest)
			return b.String(), names, nil
		}
		line, _, _ := strings.Cut(rest[i:], "\n")
		n := strings.Index(line, markerTail)
		if n < 0 {
			return "", nil, fmt.Errorf("unterminated start marker %q", line)
		}
		name := line[len(blockStart):n]
		open := i + n + len(markerTail)
		closing := blockEnd + name + markerTail
		k := strings.Index(rest[open:], closing)
		if k < 0 {
			return "", nil, fmt.Errorf("block %q has no end marker %q", name, closing)
		}
		body := rest[open : open+k]
		if strings.Contains(body, blockStart) {
			return "", nil, fmt.Errorf("a block opens inside block %q", name)
		}
		if slices.Contains(names, name) {
			return "", nil, fmt.Errorf("block %q appears twice", name)
		}
		fresh, ok := render(name, strings.TrimPrefix(body, "\n"))
		if !ok {
			return "", nil, fmt.Errorf("block %q names no claimed artifact", name)
		}
		names = append(names, name)
		b.WriteString(rest[:open])
		b.WriteString("\n")
		b.WriteString(fresh)
		b.WriteString(closing)
		rest = rest[open+k+len(closing):]
	}
}

// renderBlock is one artifact's generated block: its -only output
// verbatim, then its claims as a table.
func renderBlock(output string, outs []outcome) string {
	var b strings.Builder
	b.WriteString("```text\n")
	b.WriteString(output)
	if !strings.HasSuffix(output, "\n") {
		b.WriteByte('\n')
	}
	b.WriteString("```\n\n| claim | paper | accepted if | measured | verdict |\n|---|---|---|---|---|\n")
	for _, o := range outs {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", o.text, o.paper, o.accept, o.measured, o.verdict())
	}
	return b.String()
}

// TestExperimentsDoc is the claims gate: it regenerates the paper report
// cold at docInsts instructions on every benchmark, fails on a reproduced
// claim that does not hold or a known deviation whose paper band now
// holds, and fails when EXPERIMENTS.md's generated blocks differ from a
// fresh render. With -update it rewrites the blocks instead of comparing
// them. The report takes minutes, so it runs only with DMDC_CLAIMS=1, as
// `make claims` sets.
func TestExperimentsDoc(t *testing.T) {
	if os.Getenv("DMDC_CLAIMS") == "" {
		t.Skip("set DMDC_CLAIMS=1 to regenerate the paper report and check EXPERIMENTS.md against it")
	}
	s := mustSuite(Options{Insts: docInsts})
	s.Report() // one matrix: every benchmark's committed path is recorded once
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	byArtifact := map[string][]outcome{}
	for _, o := range evaluate(claims, s) {
		if p := o.problem(); p != "" {
			t.Error(p)
		}
		byArtifact[o.artifact] = append(byArtifact[o.artifact], o)
	}

	committed, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	fresh, names, err := spliceBlocks(string(committed), func(name, body string) (string, bool) {
		outs, ok := byArtifact[name]
		if !ok {
			return "", false
		}
		out, err := s.Artifact(name)
		if err != nil {
			return "", false
		}
		block := renderBlock(out, outs)
		if block != body {
			stale = append(stale, name)
		}
		return block, true
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range byArtifact {
		if !slices.Contains(names, name) {
			t.Errorf("EXPERIMENTS.md has no block for claimed artifact %q", name)
		}
	}
	switch {
	case *update:
		if err := os.WriteFile(docPath, []byte(fresh), 0o644); err != nil {
			t.Fatal(err)
		}
	case len(stale) > 0:
		t.Errorf("EXPERIMENTS.md blocks %s differ from a fresh render; re-render with `DMDC_CLAIMS=1 go test -run '^TestExperimentsDoc$' ./internal/experiments/ -update` and review the diff",
			strings.Join(stale, ", "))
	}
}

// TestSpliceBlocks covers the block splicer without simulating anything.
func TestSpliceBlocks(t *testing.T) {
	render := func(name, _ string) (string, bool) {
		if name != "figure2" && name != "table2" {
			return "", false
		}
		return "fresh " + name + "\n", true
	}
	doc := "# title\nprose <!-- not a block -->\n" +
		"<!-- claims:figure2 -->\nold body\nmore\n<!-- /claims:figure2 -->\nbetween\n" +
		"<!-- claims:table2 -->\n<!-- /claims:table2 -->\ntail\n"
	want := "# title\nprose <!-- not a block -->\n" +
		"<!-- claims:figure2 -->\nfresh figure2\n<!-- /claims:figure2 -->\nbetween\n" +
		"<!-- claims:table2 -->\nfresh table2\n<!-- /claims:table2 -->\ntail\n"
	got, names, err := spliceBlocks(doc, render)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("splice rewrote more than the blocks:\n%s\nwant:\n%s", got, want)
	}
	if !slices.Equal(names, []string{"figure2", "table2"}) {
		t.Errorf("block names = %q", names)
	}
	// A second run sees each block's first render and changes nothing.
	again, _, err := spliceBlocks(got, func(name, body string) (string, bool) {
		if body != "fresh "+name+"\n" {
			t.Errorf("block %q handed to render as %q", name, body)
		}
		return render(name, body)
	})
	if err != nil || again != got {
		t.Errorf("second splice changed the document (err %v):\n%s", err, again)
	}

	for _, c := range []struct{ name, doc, want string }{
		{"missing end marker", "<!-- claims:figure2 -->\nbody\n", "no end marker"},
		{"end marker of another block", "<!-- claims:figure2 -->\n<!-- /claims:table2 -->\n", "no end marker"},
		{"stray end marker", "text\n<!-- /claims:figure2 -->\n", "no start marker"},
		{"nested block", "<!-- claims:figure2 -->\n<!-- claims:table2 -->\n<!-- /claims:table2 -->\n<!-- /claims:figure2 -->\n", "opens inside"},
		{"duplicated block", "<!-- claims:figure2 -->\n<!-- /claims:figure2 -->\n<!-- claims:figure2 -->\n<!-- /claims:figure2 -->\n", "appears twice"},
		{"unknown artifact", "<!-- claims:figure9 -->\n<!-- /claims:figure9 -->\n", "no claimed artifact"},
		{"unterminated start marker", "<!-- claims:figure2\n<!-- /claims:figure2 -->\n", "unterminated"},
	} {
		if _, _, err := spliceBlocks(c.doc, render); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestClaimVerdicts covers the gate's judgement with fake claims: a
// reproduced claim that fails and a known deviation whose paper band holds
// are both rejected; the other two cases pass.
func TestClaimVerdicts(t *testing.T) {
	fixed := func(v float64) func(*Suite) []obs {
		return func(*Suite) []obs { return []obs{{"INT", v}, {"FP", 2}} }
	}
	cs := []claim{
		{"figure2", "holds", "—", atLeast(1), reproduced, fixed(1)},
		{"figure2", "fails", "—", atLeast(1), reproduced, fixed(0.5)},
		{"figure2", "deviates", "—", atMost(1), "D1", fixed(1.5)},
		{"figure2", "band holds again", "—", within(1, 3), "D2", fixed(1.5)},
		{"figure2", "measures nothing", "—", atLeast(0), reproduced, func(*Suite) []obs { return nil }},
	}
	want := []struct {
		verdict, measured string
		rejected          bool
	}{
		{"reproduced", "INT 1.00, FP 2.00", false},
		{"**does not hold**", "INT 0.500, FP 2.00", true},
		{"deviation D1", "INT 1.50, FP 2.00", false},
		{"**holds: retire D2**", "INT 1.50, FP 2.00", true},
		{"**does not hold**", "", true},
	}
	for i, o := range evaluate(cs, nil) {
		w := want[i]
		if o.verdict() != w.verdict || o.measured != w.measured || (o.problem() != "") != w.rejected {
			t.Errorf("%q: verdict %q, measured %q, problem %q; want %q, %q, rejected %v",
				o.text, o.verdict(), o.measured, o.problem(), w.verdict, w.measured, w.rejected)
		}
	}
	if got := renderBlock("Figure 2\n", evaluate(cs[:1], nil)); got !=
		"```text\nFigure 2\n```\n\n| claim | paper | accepted if | measured | verdict |\n|---|---|---|---|---|\n"+
			"| holds | — | ≥ 1 | INT 1.00, FP 2.00 | reproduced |\n" {
		t.Errorf("block rendered as:\n%s", got)
	}
}

// TestClaimsTable checks the table itself: every claim names an artifact
// of the report, the artifacts' claims are contiguous in report order, and
// every known deviation names its Dn.
func TestClaimsTable(t *testing.T) {
	names := ArtifactNames()
	last := -1
	for _, c := range claims {
		i := slices.Index(names, c.artifact)
		if i < 0 {
			t.Errorf("%q: no artifact %q", c.text, c.artifact)
		}
		if i < last {
			t.Errorf("%q: artifact %q out of report order", c.text, c.artifact)
		}
		last = i
		if c.status != reproduced && (len(c.status) < 2 || c.status[0] != 'D') {
			t.Errorf("%q: status %q is neither reproduced nor a deviation Dn", c.text, c.status)
		}
		if strings.Contains(c.text+c.paper, "|") {
			t.Errorf("%q: a | would split the document's table cell", c.text)
		}
	}
	for _, v := range []struct {
		v    float64
		want string
	}{{0, "0"}, {95.725, "95.7"}, {-0.914, "-0.914"}, {730.9, "731"}, {0.07, "0.070"}, {5.667, "5.67"}} {
		if got := measuredNum(v.v); got != v.want {
			t.Errorf("measuredNum(%v) = %q, want %q", v.v, got, v.want)
		}
	}
}
