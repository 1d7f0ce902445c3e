package bpred

import (
	"bytes"
	"math/rand"
	"testing"

	"dmdc/internal/checkpoint"
)

// MispredictRate returns mispredicts / lookups, or zero when no lookups.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	limit := Config{BimodalEntries: MaxEntries, GshareEntries: MaxEntries, HistoryBits: 30,
		MetaEntries: MaxEntries, BTBEntries: MaxEntries, BTBWays: 4}
	if err := limit.Validate(); err != nil {
		t.Fatalf("config at the limits invalid: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.BimodalEntries = 1000; return c }(), // not pow2
		func() Config { c := DefaultConfig(); c.GshareEntries = -1; return c }(),    // negative
		func() Config { c := DefaultConfig(); c.HistoryBits = 0; return c }(),       // no history
		func() Config { c := DefaultConfig(); c.HistoryBits = 40; return c }(),      // too wide
		func() Config { c := DefaultConfig(); c.BTBEntries = 4097; return c }(),     // not divisible
		func() Config { c := DefaultConfig(); c.BTBWays = 0; return c }(),           // zero ways
		func() Config { c := DefaultConfig(); c.MetaEntries = 12; return c }(),      // not pow2
		func() Config { c := limit; c.BimodalEntries *= 2; return c }(),             // beyond the limit
		func() Config { c := limit; c.GshareEntries *= 2; return c }(),
		func() Config { c := limit; c.MetaEntries *= 2; return c }(),
		func() Config { c := limit; c.BTBEntries *= 2; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(Config{})
}

func TestAlwaysTakenBranchLearned(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x4000)
	target := uint64(0x5000)
	var wrong int
	for i := 0; i < 100; i++ {
		pred := p.Predict(pc)
		if i >= 10 && (!pred.Taken || !pred.BTBHit || pred.Target != target) {
			wrong++
		}
		p.Update(pc, pred, true, target)
	}
	if wrong != 0 {
		t.Errorf("always-taken branch mispredicted %d times after warmup", wrong)
	}
}

func TestAlwaysNotTakenLearned(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x4000)
	var wrong int
	for i := 0; i < 100; i++ {
		pred := p.Predict(pc)
		if i >= 10 && pred.Taken {
			wrong++
		}
		p.Update(pc, pred, false, 0)
	}
	if wrong != 0 {
		t.Errorf("never-taken branch predicted taken %d times after warmup", wrong)
	}
}

// A short repeating pattern is gshare's specialty: with history the pattern
// becomes fully predictable, while bimodal alone would keep missing.
func TestGsharePatternLearned(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x1230)
	pattern := []bool{true, true, false} // loop taken twice, exit once
	var wrong int
	n := 3000
	for i := 0; i < n; i++ {
		taken := pattern[i%len(pattern)]
		cp := p.HistoryCheckpoint()
		pred := p.Predict(pc)
		if pred.Taken != taken {
			// The core repairs speculative history on recovery; without
			// this the gshare indices train on divergent history.
			p.RestoreHistory(cp, taken)
			if i >= n/2 {
				wrong++
			}
		}
		p.Update(pc, pred, taken, 0x2000)
	}
	rate := float64(wrong) / float64(n/2)
	if rate > 0.02 {
		t.Errorf("pattern mispredict rate after warmup = %.3f, want < 0.02", rate)
	}
}

func TestRandomBranchRoughlyHalfWrong(t *testing.T) {
	p := New(DefaultConfig())
	rng := rand.New(rand.NewSource(42))
	pc := uint64(0x9990)
	var wrong, n int
	for i := 0; i < 5000; i++ {
		taken := rng.Intn(2) == 0
		pred := p.Predict(pc)
		if i > 500 {
			n++
			if pred.Taken != taken {
				wrong++
			}
		}
		p.Update(pc, pred, taken, 0x2000)
	}
	rate := float64(wrong) / float64(n)
	if rate < 0.3 || rate > 0.7 {
		t.Errorf("random branch mispredict rate = %.3f, expected near 0.5", rate)
	}
}

func TestHistoryCheckpointRestore(t *testing.T) {
	p := New(DefaultConfig())
	cp := p.HistoryCheckpoint()
	// Pollute history with speculative predictions (wrong path).
	for i := 0; i < 20; i++ {
		p.Predict(uint64(0x100 + i*4))
	}
	if p.HistoryCheckpoint() == cp {
		t.Skip("history unchanged by predictions; cannot test restore")
	}
	p.RestoreHistory(cp, true)
	want := ((cp << 1) | 1) & ((1 << DefaultConfig().HistoryBits) - 1)
	if p.HistoryCheckpoint() != want {
		t.Errorf("restored history = %#x, want %#x", p.HistoryCheckpoint(), want)
	}
}

func TestBTBConflictEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBEntries = 8
	cfg.BTBWays = 2 // 4 sets, 2 ways
	p := New(cfg)
	// 3 branches mapping to the same set (stride = 4 sets * 4 bytes).
	pcs := []uint64{0x10, 0x10 + 4*4, 0x10 + 8*4}
	for _, pc := range pcs {
		pred := p.Predict(pc)
		p.Update(pc, pred, true, pc+0x100)
	}
	// The first should have been evicted (LRU), the last two present.
	if _, ok := p.btbLookup(pcs[0]); ok {
		t.Error("LRU entry not evicted")
	}
	for _, pc := range pcs[1:] {
		if tgt, ok := p.btbLookup(pc); !ok || tgt != pc+0x100 {
			t.Errorf("pc %#x missing from BTB after insert", pc)
		}
	}
}

func TestBTBUpdateExisting(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x700)
	pred := p.Predict(pc)
	p.Update(pc, pred, true, 0x1000)
	pred = p.Predict(pc)
	p.Update(pc, pred, true, 0x2000) // retarget
	if tgt, ok := p.btbLookup(pc); !ok || tgt != 0x2000 {
		t.Errorf("BTB target not updated: %#x, %v", tgt, ok)
	}
}

func TestMispredictAccounting(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x80)
	pred := p.Predict(pc)
	// Force an outcome opposite to the prediction.
	p.Update(pc, pred, !pred.Taken, 0x900)
	if p.Mispredicts != 1 {
		t.Errorf("mispredicts = %d, want 1", p.Mispredicts)
	}
	if p.Lookups != 1 {
		t.Errorf("lookups = %d, want 1", p.Lookups)
	}
	if p.MispredictRate() != 1 {
		t.Errorf("rate = %v, want 1", p.MispredictRate())
	}
	// Taken branch with BTB miss counts as misprediction even if the
	// direction was right: the front end had no target to redirect to.
	p2 := New(DefaultConfig())
	pc2 := uint64(0x1000)
	// Train direction to taken first.
	for i := 0; i < 5; i++ {
		pr := p2.Predict(pc2)
		p2.Update(pc2, pr, true, 0x2000)
	}
	m := p2.Mispredicts
	pr := p2.Predict(0x77777770) // different pc, BTB cold
	if pr.BTBHit {
		t.Skip("unexpected BTB hit")
	}
	p2.Update(0x77777770, pr, pr.Taken || true, 0x3000)
	if p2.Mispredicts == m && pr.Taken {
		t.Error("taken branch with BTB miss not counted as mispredict")
	}
	_ = m
}

func TestMispredictRateEmpty(t *testing.T) {
	p := New(DefaultConfig())
	if p.MispredictRate() != 0 {
		t.Error("rate with no lookups should be 0")
	}
}

// encodePredictor returns the checkpoint encoding of p's state.
func encodePredictor(p *Predictor) []byte {
	e := checkpoint.NewEncoder()
	p.State(&e.Codec)
	return e.Finish()
}

// A predictor reset after use, to a smaller geometry and back to a larger
// one, must be exactly the predictor New builds: same state bytes and the
// same predictions over the same branches.
func TestResetMatchesNew(t *testing.T) {
	small := Config{BimodalEntries: 512, GshareEntries: 1024, HistoryBits: 10, MetaEntries: 256, BTBEntries: 256, BTBWays: 2}
	rng := rand.New(rand.NewSource(9))
	pcs := make([]uint64, 20_000)
	for i := range pcs {
		pcs[i] = 0x40_0000 + uint64(rng.Intn(1<<16))*4
	}
	train := func(p *Predictor) {
		for i, pc := range pcs {
			pred := p.Predict(pc)
			p.Update(pc, pred, i%3 != 0, pc+64)
		}
	}
	reused := New(DefaultConfig())
	for _, cfg := range []Config{small, DefaultConfig()} {
		train(reused)
		reused.Reset(cfg)
		fresh := New(cfg)
		if !bytes.Equal(encodePredictor(reused), encodePredictor(fresh)) {
			t.Fatalf("%d-entry BTB: reset state differs from a new predictor", cfg.BTBEntries)
		}
		train(reused)
		train(fresh)
		if !bytes.Equal(encodePredictor(reused), encodePredictor(fresh)) {
			t.Fatalf("%d-entry BTB: reset predictor trained differently from a new one", cfg.BTBEntries)
		}
	}
}
