package energy

import "dmdc/internal/checkpoint"

// State visits the accumulated energy sums, event counts, and cycle
// count. The per-cycle rate and enabled flag are construction-time
// properties bound in the checkpoint header, not serialized.
func (m *Model) State(c *checkpoint.Codec) {
	c.Section("energy")
	c.U64(&m.cycles)
	for i := range m.sums {
		c.F64(&m.sums[i])
	}
	for i := range m.counts {
		c.U64(&m.counts[i])
	}
}
