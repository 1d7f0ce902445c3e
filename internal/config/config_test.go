package config

import "testing"

func TestAllConfigsValid(t *testing.T) {
	for _, m := range All() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestTable1Parameters(t *testing.T) {
	c1, c2, c3 := Config1(), Config2(), Config3()
	// Table 1 values, verbatim.
	cases := []struct {
		m                                 Machine
		rob, lq, sq, iq, regs, checkTable int
	}{
		{c1, 128, 48, 32, 32, 100, 1024},
		{c2, 256, 96, 48, 48, 200, 2048},
		{c3, 512, 192, 64, 64, 400, 4096},
	}
	for _, c := range cases {
		if c.m.ROBSize != c.rob || c.m.LQSize != c.lq || c.m.SQSize != c.sq ||
			c.m.IQInt != c.iq || c.m.IntRegs != c.regs || c.m.CheckTable != c.checkTable {
			t.Errorf("%s does not match Table 1: %+v", c.m.Name, c.m)
		}
	}
	for _, m := range []Machine{c1, c2, c3} {
		if m.FetchWidth != 8 || m.IssueWidth != 8 || m.CommitWidth != 8 {
			t.Errorf("%s widths should be 8/8/8", m.Name)
		}
		if m.MispredictPenalty != 7 {
			t.Errorf("%s mispredict penalty should be 7", m.Name)
		}
		if m.IntALUs != 8 || m.IntMulDiv != 2 {
			t.Errorf("%s FU counts wrong", m.Name)
		}
		if m.Memory.MemLatency != 120 {
			t.Errorf("%s memory latency should be 120", m.Name)
		}
		if m.Memory.L2.Latency != 15 {
			t.Errorf("%s L2 latency should be 15", m.Name)
		}
	}
}

func TestCoreSizeGrows(t *testing.T) {
	if !(Config1().CoreSize() < Config2().CoreSize() && Config2().CoreSize() < Config3().CoreSize()) {
		t.Error("core size should grow across configs")
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("config2")
	if err != nil || m.ROBSize != 256 {
		t.Errorf("ByName(config2) = %+v, %v", m, err)
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	m := Config1()
	m.ROBSize = 0
	if err := m.Validate(); err == nil {
		t.Error("zero ROB accepted")
	}
	m = Config1()
	m.LQSize = m.ROBSize + 1
	if err := m.Validate(); err == nil {
		t.Error("LQ larger than ROB accepted")
	}
	m = Config1()
	m.BPred.HistoryBits = 0
	if err := m.Validate(); err == nil {
		t.Error("bad bpred config accepted")
	}
	m = Config1()
	m.Memory.L1D.LineB = 60
	if err := m.Validate(); err == nil {
		t.Error("bad cache config accepted")
	}
	// A 2^28-entry ROB and a 16 GB L2 used to pass and then kill the
	// process with a fatal out of memory; a negative memory latency used
	// to simulate.
	for name, f := range map[string]func(*Machine){
		"huge rob":         func(m *Machine) { m.ROBSize = 1 << 28 },
		"huge l2":          func(m *Machine) { m.Memory.L2.SizeB = 1 << 34 },
		"wide fetch":       func(m *Machine) { m.FetchWidth = MaxWidth + 1 },
		"huge int regs":    func(m *Machine) { m.IntRegs = MaxWindow + 1 },
		"huge check table": func(m *Machine) { m.CheckTable = MaxCheckTable + 1 },
		"huge bimodal":     func(m *Machine) { m.BPred.BimodalEntries = 1 << 30 },
		"negative memory":  func(m *Machine) { m.Memory.MemLatency = -5 },
	} {
		m := Config2()
		f(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: machine accepted", name)
		}
	}
}

// TestBuiltinHeadroom pins the limits' headroom: every built-in machine
// sits at or below 1/16 of each limit.
func TestBuiltinHeadroom(t *testing.T) {
	for _, m := range append(All(), IQPressure()) {
		for _, v := range []int{m.FetchWidth, m.IssueWidth, m.CommitWidth,
			m.IntALUs, m.IntMulDiv, m.FPALUs, m.FPMulDiv, m.MemPorts} {
			if 16*v > MaxWidth {
				t.Errorf("%s: width %d within 16x of the limit %d", m.Name, v, MaxWidth)
			}
		}
		for _, v := range []int{m.ROBSize, m.IQInt, m.IQFP, m.LQSize, m.SQSize, m.IntRegs, m.FPRegs} {
			if 16*v > MaxWindow {
				t.Errorf("%s: window %d within 16x of the limit %d", m.Name, v, MaxWindow)
			}
		}
		if 16*m.CheckTable > MaxCheckTable {
			t.Errorf("%s: check table %d within 16x of the limit %d", m.Name, m.CheckTable, MaxCheckTable)
		}
	}
}
