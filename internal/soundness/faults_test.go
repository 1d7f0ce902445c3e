package soundness

import (
	"strings"
	"testing"
)

func TestParseFaultSpecRoundTrip(t *testing.T) {
	cases := []FaultSpec{
		{},
		{InvBurstN: 8, InvBurstEvery: 50},
		{StoreDelay: 40, StoreDelayEvery: 7},
		{AliasBytes: 4096},
		{WPAliasBytes: 256},
		{SpuriousEvery: 97},
		{MarkWPAge: 1234},
		{
			InvBurstN: 2, InvBurstEvery: 100,
			StoreDelay: 16, StoreDelayEvery: 3,
			AliasBytes: 65536, WPAliasBytes: 128,
			SpuriousEvery: 11, MarkWPAge: 9,
		},
	}
	for _, want := range cases {
		got, err := ParseFaultSpec(want.String())
		if err != nil {
			t.Fatalf("ParseFaultSpec(%q): %v", want.String(), err)
		}
		if got != want {
			t.Errorf("round trip of %q: got %+v, want %+v", want.String(), got, want)
		}
	}
}

func TestParseFaultSpecForms(t *testing.T) {
	got, err := ParseFaultSpec(" invburst=4@10 , alias=4096 ")
	if err != nil {
		t.Fatal(err)
	}
	if got.InvBurstN != 4 || got.InvBurstEvery != 10 || got.AliasBytes != 4096 {
		t.Errorf("parsed %+v", got)
	}
	if !mustZero(t, "") || !mustZero(t, "   ") {
		t.Error("empty spec should be zero")
	}
}

func mustZero(t *testing.T, s string) bool {
	t.Helper()
	f, err := ParseFaultSpec(s)
	if err != nil {
		t.Fatalf("ParseFaultSpec(%q): %v", s, err)
	}
	return f.Zero()
}

func TestParseFaultSpecErrors(t *testing.T) {
	for _, s := range []string{
		"bogus=1",
		"invburst=4",                      // missing @P
		"invburst=4@0",                    // zero period
		"storedelay=10",                   // missing @K
		"alias=3",                         // below minimum window
		"wpalias=63",                      // below minimum window
		"spurious=1",                      // livelock period
		"spurious=x",                      // not a number
		"invburst",                        // not key=value
		"alias=-5",                        // negative
		"markwp=999999999999999999999999", // overflow
	} {
		if _, err := ParseFaultSpec(s); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", s)
		}
	}
}

func FuzzFaultSpecParse(f *testing.F) {
	f.Add("")
	f.Add("invburst=8@50,storedelay=40@7,alias=4096,spurious=97")
	f.Add("wpalias=128,markwp=42")
	f.Add("alias=@,=,@=")
	f.Add("invburst=18446744073709551615@1")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFaultSpec(s)
		if err != nil {
			return
		}
		// Accepted specs must validate and round-trip exactly.
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("accepted spec %+v fails Validate: %v", spec, verr)
		}
		again, err := ParseFaultSpec(spec.String())
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", spec.String(), err)
		}
		if again != spec {
			t.Fatalf("round trip changed spec: %+v -> %+v", spec, again)
		}
	})
}

func TestRemapAddrPreservesAlignment(t *testing.T) {
	for _, window := range []uint64{64, 100, 4096, 65536} {
		for _, size := range []uint64{1, 2, 4, 8} {
			for _, addr := range []uint64{0, 8, 0x1000_0130, 0xDEAD_BEE8, 1 << 40} {
				a := addr &^ (size - 1)
				got := RemapAddr(AliasBase, a, window)
				if got%size != 0 {
					t.Fatalf("RemapAddr(%#x, window %d) = %#x misaligned for size %d", a, window, got, size)
				}
				if got < AliasBase || got+size > AliasBase+window {
					t.Fatalf("RemapAddr(%#x, window %d) = %#x outside window", a, window, got)
				}
			}
		}
	}
}

func TestEventRing(t *testing.T) {
	r := NewEventRing(4)
	if len(r.Snapshot()) != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := 0; i < 6; i++ {
		r.Record(Event{Cycle: uint64(i), Kind: "IS"})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len = %d, want 4", len(snap))
	}
	for i, ev := range snap {
		if ev.Cycle != uint64(i+2) {
			t.Errorf("snapshot[%d].Cycle = %d, want %d (oldest-first)", i, ev.Cycle, i+2)
		}
	}
	var nilRing *EventRing
	if nilRing.Snapshot() != nil {
		t.Error("nil ring should be empty")
	}
}

func TestStateDumpRenders(t *testing.T) {
	d := &StateDump{
		Cycle: 1234, Committed: 17, LastCommitCycle: 200,
		HeadAge: 18, ROBCount: 2, ROBSize: 128,
		IQInt: 1, IQFP: 0, SQLen: 1, InflightLoads: 1,
		FetchResume: 2000, WrongPathMode: true,
		ROB: []ROBSlot{
			{Age: 18, State: "waiting", Inst: "18: load r3, [0x100]/8", NotBefore: 1300},
			{Age: 19, State: "issued", WrongPath: true, Inst: "19: ialu r4 <- r1, r2"},
		},
		Policy: "dmdc-global-t2048", PolicyState: "windows=3",
		InvariantErr: "rob count 999 out of range",
		Events:       []Event{{Cycle: 1200, Kind: "RPL", Extra: "replay from age=18"}},
	}
	s := d.String()
	for _, want := range []string{
		"cycle 1234", "17 committed", "rob 2/128", "head-age=18",
		"age=18", "notBefore=1300", "WP", "dmdc-global-t2048",
		"invariants: FAILED", "rob count 999", "RPL", "fetch-stalled-until=2000",
		"fetching-wrong-path",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("dump missing %q:\n%s", want, s)
		}
	}
	d.InvariantErr = ""
	if !strings.Contains(d.String(), "invariants: ok") {
		t.Error("clean dump should say invariants: ok")
	}
}

func TestWatchdogErrorRenders(t *testing.T) {
	err := &WatchdogError{
		Budget: 1000,
		Cycle:  5000,
		Dump:   &StateDump{Cycle: 5000, LastCommitCycle: 3500},
	}
	s := err.Error()
	if !strings.Contains(s, "no commit for 1500 cycles") || !strings.Contains(s, "budget 1000") {
		t.Errorf("watchdog message wrong: %s", s)
	}
}
