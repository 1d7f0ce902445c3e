// Package config defines the paper's three machine configurations
// (Table 1) and the shared core parameters.
package config

import (
	"fmt"

	"dmdc/internal/bpred"
	"dmdc/internal/cache"
)

// Machine bundles every sizing parameter of one simulated processor.
type Machine struct {
	Name string

	// Widths (Table 1: issue/decode/commit 8/8/8).
	FetchWidth  int
	IssueWidth  int
	CommitWidth int

	// Window sizes.
	ROBSize int
	IQInt   int
	IQFP    int
	LQSize  int
	SQSize  int
	IntRegs int
	FPRegs  int

	// DMDC checking table size for this configuration.
	CheckTable int

	// Functional units (Table 1: INT 8+2 mul/div, FP 8+2 mul/div).
	IntALUs   int
	IntMulDiv int
	FPALUs    int
	FPMulDiv  int
	MemPorts  int // L1D ports

	// Penalties.
	MispredictPenalty int

	BPred  bpred.Config
	Memory cache.HierarchyConfig
}

// Upper bounds on a machine's sizes, each at least 16× the largest
// built-in configuration. A machine can arrive over the wire (a dmdcd
// job spec), so they keep any accepted one from allocating the host out
// of memory; cache and predictor geometry have limits of their own.
const (
	// MaxWidth bounds the fetch, issue and commit widths, each
	// functional-unit count and the memory ports.
	MaxWidth = 128
	// MaxWindow bounds the ROB, the issue queues, the LQ and SQ and the
	// register files.
	MaxWindow = 1 << 14
	// MaxCheckTable bounds the DMDC checking table.
	MaxCheckTable = 1 << 16
)

// Validate reports the first invalid parameter, or nil.
func (m Machine) Validate() error {
	fields := []struct {
		name string
		v    int
		max  int // 0: no upper bound
	}{
		{"fetch width", m.FetchWidth, MaxWidth}, {"issue width", m.IssueWidth, MaxWidth},
		{"commit width", m.CommitWidth, MaxWidth}, {"rob", m.ROBSize, MaxWindow},
		{"int iq", m.IQInt, MaxWindow}, {"fp iq", m.IQFP, MaxWindow},
		{"lq", m.LQSize, MaxWindow}, {"sq", m.SQSize, MaxWindow},
		{"int regs", m.IntRegs, MaxWindow}, {"fp regs", m.FPRegs, MaxWindow},
		{"check table", m.CheckTable, MaxCheckTable},
		{"int alus", m.IntALUs, MaxWidth}, {"int muldiv", m.IntMulDiv, MaxWidth},
		{"fp alus", m.FPALUs, MaxWidth}, {"fp muldiv", m.FPMulDiv, MaxWidth},
		{"mem ports", m.MemPorts, MaxWidth},
		{"mispredict penalty", m.MispredictPenalty, 0},
		{"memory latency", m.Memory.MemLatency, 0},
	}
	for _, f := range fields {
		if f.v <= 0 {
			return fmt.Errorf("config %q: %s must be positive, got %d", m.Name, f.name, f.v)
		}
		if f.max > 0 && f.v > f.max {
			return fmt.Errorf("config %q: %s %d exceeds the limit %d", m.Name, f.name, f.v, f.max)
		}
	}
	if m.LQSize > m.ROBSize || m.SQSize > m.ROBSize {
		return fmt.Errorf("config %q: LQ/SQ cannot exceed the ROB", m.Name)
	}
	if err := m.BPred.Validate(); err != nil {
		return fmt.Errorf("config %q: %w", m.Name, err)
	}
	for _, c := range []cache.Config{m.Memory.L1I, m.Memory.L1D, m.Memory.L2} {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("config %q: %w", m.Name, err)
		}
	}
	return nil
}

// CoreSize is a rough structure-count measure used to scale the per-cycle
// base energy: bigger machines burn more clock/leakage power.
func (m Machine) CoreSize() int {
	return m.ROBSize + m.IQInt + m.IQFP + m.LQSize + m.SQSize + m.IntRegs + m.FPRegs
}

func common(name string) Machine {
	return Machine{
		Name:              name,
		FetchWidth:        8,
		IssueWidth:        8,
		CommitWidth:       8,
		IntALUs:           8,
		IntMulDiv:         2,
		FPALUs:            8,
		FPMulDiv:          2,
		MemPorts:          2,
		MispredictPenalty: 7,
		BPred:             bpred.DefaultConfig(),
		Memory:            cache.DefaultHierarchyConfig(),
	}
}

// Config1 returns the paper's config 1: 32/32 issue queues, ROB 128,
// LQ/SQ 48/32, 100/100 registers, 1K-entry checking table.
func Config1() Machine {
	m := common("config1")
	m.IQInt, m.IQFP = 32, 32
	m.ROBSize = 128
	m.LQSize, m.SQSize = 48, 32
	m.IntRegs, m.FPRegs = 100, 100
	m.CheckTable = 1024
	return m
}

// Config2 returns the paper's config 2 (the primary one): 48/48 issue
// queues, ROB 256, LQ/SQ 96/48, 200/200 registers, 2K checking table.
func Config2() Machine {
	m := common("config2")
	m.IQInt, m.IQFP = 48, 48
	m.ROBSize = 256
	m.LQSize, m.SQSize = 96, 48
	m.IntRegs, m.FPRegs = 200, 200
	m.CheckTable = 2048
	return m
}

// Config3 returns the paper's config 3: 64/64 issue queues, ROB 512,
// LQ/SQ 192/64, 400/400 registers, 4K checking table.
func Config3() Machine {
	m := common("config3")
	m.IQInt, m.IQFP = 64, 64
	m.ROBSize = 512
	m.LQSize, m.SQSize = 192, 64
	m.IntRegs, m.FPRegs = 400, 400
	m.CheckTable = 4096
	return m
}

// IQPressure returns a stress configuration outside the paper's Table 1:
// issue queues far smaller than the ROB behind a tiny direct-mapped L1D
// and slow lower levels. Loads miss constantly and hold their consumers
// in the window for tens of cycles, so the scheduler runs IQ-full with
// long-latency wakeups — the regime that exercises issue wakeup ordering
// (and its squash interactions) hardest. Used by the golden matrix; not
// part of the paper's evaluation set.
func IQPressure() Machine {
	m := common("iqpress")
	m.IQInt, m.IQFP = 12, 8
	m.ROBSize = 192
	m.LQSize, m.SQSize = 64, 32
	m.IntRegs, m.FPRegs = 160, 160
	m.CheckTable = 2048
	m.Memory.L1D = cache.Config{Name: "l1d", SizeB: 8 << 10, Ways: 1, LineB: 64, Latency: 4}
	m.Memory.L2.Latency = 30
	m.Memory.MemLatency = 240
	return m
}

// All returns the paper's three configurations in order (IQPressure is a
// test harness configuration, deliberately excluded so the experiment
// matrix keeps the paper's shape).
func All() []Machine { return []Machine{Config1(), Config2(), Config3()} }

// ByName returns the named configuration, including the off-paper
// "iqpress" stress machine.
func ByName(name string) (Machine, error) {
	for _, m := range append(All(), IQPressure()) {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("config: unknown machine %q (want config1/config2/config3/iqpress)", name)
}
