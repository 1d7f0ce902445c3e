package experiments

import (
	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/lsq"
	"dmdc/internal/stats"
	"dmdc/internal/trace"
)

// Related-work comparison (paper Section 7): DMDC vs the Garg et al.
// age-indexed hash table, quantifying the improvements the paper argues
// qualitatively — fewer table accesses, narrower entries, fewer replays.

const keyAgeTable = "agetable"

// AgeTableFactory builds the Garg et al. policy sized like the DMDC
// checking table.
func AgeTableFactory(m config.Machine, em *energy.Model) (lsq.Policy, error) {
	return lsq.NewAgeTable(lsq.AgeTableConfig{TableSize: m.CheckTable, LQSize: m.ROBSize}, em)
}

// RelatedWorkRow is one class's three-way comparison.
type RelatedWorkRow struct {
	Class trace.Class

	AgeTableReplaysPerM float64
	DMDCReplaysPerM     float64

	AgeTableLQSavePct stats.Summary
	DMDCLQSavePct     stats.Summary

	AgeTableSlowPct stats.Summary
	DMDCSlowPct     stats.Summary

	// Table accesses per 1K instructions: every load writes and every
	// store reads the age table, vs DMDC's windowed checks.
	AgeTableAccessesPerK  float64
	DMDCTableAccessesPerK float64
}

// RelatedWorkResult compares DMDC against the age-table design.
type RelatedWorkResult struct {
	Rows []RelatedWorkRow
}

// RelatedWork runs the three-way comparison on config2.
func (s *Suite) RelatedWork() *RelatedWorkResult {
	res := s.get(keyBase("config2"), keyGlobal("config2"), keyAgeTable)
	base := res[keyBase("config2")]
	dm := res[keyGlobal("config2")]
	at := res[keyAgeTable]
	out := &RelatedWorkResult{}
	for _, class := range []trace.Class{trace.INT, trace.FP} {
		row := RelatedWorkRow{Class: class}
		var atR, dmR, atAcc, dmAcc stats.Summary
		for i := range base {
			if base[i] == nil || dm[i] == nil || at[i] == nil || base[i].Class != class {
				continue
			}
			atR.Observe(perMillion(at[i], at[i].Stats.Get("core_replays_total")))
			dmR.Observe(perMillion(dm[i], dm[i].Stats.Get("core_replays_total")))
			atAcc.Observe(float64(at[i].Energy.Counts[energy.CompCheckTable]) / float64(at[i].Insts) * 1000)
			dmAcc.Observe(float64(dm[i].Energy.Counts[energy.CompCheckTable]) / float64(dm[i].Insts) * 1000)
			bp := pair{base: base[i], test: at[i]}
			dp := pair{base: base[i], test: dm[i]}
			row.AgeTableLQSavePct.Observe(100 * bp.lqSavings())
			row.DMDCLQSavePct.Observe(100 * dp.lqSavings())
			row.AgeTableSlowPct.Observe(100 * bp.slowdown())
			row.DMDCSlowPct.Observe(100 * dp.slowdown())
		}
		row.AgeTableReplaysPerM = atR.Mean()
		row.DMDCReplaysPerM = dmR.Mean()
		row.AgeTableAccessesPerK = atAcc.Mean()
		row.DMDCTableAccessesPerK = dmAcc.Mean()
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the comparison.
func (r *RelatedWorkResult) String() string {
	t := stats.NewTable("Related work (Section 7): DMDC vs age-indexed hash table [Garg et al.]",
		"class", "scheme", "replays/M", "table accesses/K inst", "LQ saved %", "slowdown %")
	for _, row := range r.Rows {
		t.AddRow(row.Class.String(), "age-table", row.AgeTableReplaysPerM,
			row.AgeTableAccessesPerK, row.AgeTableLQSavePct.Mean(), row.AgeTableSlowPct.Mean())
		t.AddRow("", "dmdc", row.DMDCReplaysPerM,
			row.DMDCTableAccessesPerK, row.DMDCLQSavePct.Mean(), row.DMDCSlowPct.Mean())
	}
	return t.String()
}
