package netlist

import (
	"testing"

	"rijndaelip/internal/edac"
	"rijndaelip/internal/gf256"
)

// sboxROMSim builds a one-ROM netlist (async S-box) and its simulator.
func sboxROMSim(t *testing.T) *Simulator {
	t.Helper()
	nl := New("t")
	addr := nl.AddInput("addr", 8)
	var r ROM
	r.Name = "sbox0"
	copy(r.Addr[:], addr)
	table := gf256.SBoxTable()
	copy(r.Contents[:], table[:])
	out := nl.NewNets(8)
	copy(r.Out[:], out)
	nl.AddROM(r)
	nl.AddOutput("data", out)
	sim, err := NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestROMFlipBitCorrectedOnRead(t *testing.T) {
	sim := sboxROMSim(t)
	if sim.NumROMs() != 1 || sim.ROMName(0) != "sbox0" {
		t.Fatalf("ROM accessors: n=%d name=%q", sim.NumROMs(), sim.ROMName(0))
	}
	sim.FlipROMBit(0, 0x53, 3)
	sim.SetInput("addr", 0x53)
	sim.Eval()
	// The EDAC code corrects the flipped bit: the datapath still sees the
	// golden S-box value.
	if v, _ := sim.Output("data"); byte(v) != gf256.SBox(0x53) {
		t.Fatalf("corrected read = %#x, want %#x", v, gf256.SBox(0x53))
	}
	st := sim.ROMStore(0).Stats()
	if st.CorrectedReads == 0 || st.FaultyWords != 1 {
		t.Fatalf("store stats after corrected read: %+v", st)
	}
	if sim.ROMFaultyWords() != 1 || sim.ROMInjections() != 1 {
		t.Fatalf("sim probes: faulty=%d injections=%d", sim.ROMFaultyWords(), sim.ROMInjections())
	}
	// A scrub rewrite flushes the transient upset for good.
	if got := sim.ROMStore(0).Scrub(0x53); got != edac.ScrubRepaired {
		t.Fatalf("scrub = %v", got)
	}
	if sim.ROMFaultyWords() != 0 {
		t.Fatalf("faulty words remain after scrub")
	}
}

func TestStickROMBitSurvivesResetAndScrub(t *testing.T) {
	sim := sboxROMSim(t)
	store := sim.ROMStore(0)
	bit := 7
	sim.StickROMBit(0, 0x10, bit, !store.CodewordBit(0x10, bit))
	sim.Reset()
	if sim.ROMFaultyWords() != 1 {
		t.Fatal("stuck ROM bit must survive Reset")
	}
	// Reads are still corrected...
	sim.SetInput("addr", 0x10)
	sim.Eval()
	if v, _ := sim.Output("data"); byte(v) != gf256.SBox(0x10) {
		t.Fatalf("read = %#x, want %#x", v, gf256.SBox(0x10))
	}
	// ...but a scrub sees a hard fault the rewrite cannot clear.
	if got := store.Scrub(0x10); got != edac.ScrubHard {
		t.Fatalf("scrub = %v", got)
	}
	sim.ClearFaults()
	if sim.ROMFaultyWords() != 0 {
		t.Fatal("ClearFaults must drop ROM damage")
	}
}

func TestScheduleStickROMBitLandsAtCycle(t *testing.T) {
	sim := sboxROMSim(t)
	bit := 2
	val := !sim.ROMStore(0).CodewordBit(0xAB, bit)
	sim.ScheduleStickROMBit(2, 0, 0xAB, bit, val)
	sim.Step()
	if sim.ROMFaultyWords() != 0 {
		t.Fatal("fault landed early")
	}
	sim.Step()
	sim.Step() // strike fires at the start of this Step
	if sim.ROMFaultyWords() != 1 {
		t.Fatal("scheduled ROM stuck-at did not land")
	}
	// Like FF flips, armed-but-unfired ROM sticks are dropped by Reset.
	sim2 := sboxROMSim(t)
	sim2.ScheduleStickROMBit(5, 0, 0xAB, bit, val)
	sim2.Reset()
	for i := 0; i < 10; i++ {
		sim2.Step()
	}
	if sim2.ROMFaultyWords() != 0 {
		t.Fatal("armed ROM stick survived Reset")
	}
}

func TestROMDoubleFaultUncorrectableRead(t *testing.T) {
	sim := sboxROMSim(t)
	// Two data-position bits: the raw data differs and the code cannot
	// reconstruct it.
	sim.FlipROMBit(0, 0x00, 3)
	sim.FlipROMBit(0, 0x00, 5)
	sim.SetInput("addr", 0x00)
	sim.Eval()
	if v, _ := sim.Output("data"); byte(v) == gf256.SBox(0) {
		t.Fatal("double-bit damage should corrupt the read")
	}
	if st := sim.ROMStore(0).Stats(); st.UncorrectableReads == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCopyStateFromRestoresSequentialState(t *testing.T) {
	_, a := toggleChain(t)
	_, b := toggleChain(t)
	for i := 0; i < 3; i++ {
		a.Step()
	}
	// Corrupt b and desync its cycle counter.
	b.FlipFF(0)
	b.Step()
	if err := b.CopyStateFrom(a); err != nil {
		t.Fatal(err)
	}
	if b.Cycle() != a.Cycle() {
		t.Fatalf("cycle %d, want %d", b.Cycle(), a.Cycle())
	}
	a.Eval()
	b.Eval()
	av, _ := a.Output("q")
	bv, _ := b.Output("q")
	if av != bv {
		t.Fatalf("state differs after CopyStateFrom: %#x vs %#x", bv, av)
	}
	// A stuck FF must re-assert through the restoration.
	b.StickFF(0, true)
	b.CopyStateFrom(a)
	b.Eval()
	if v, _ := b.Output("q"); v&1 != 1 {
		t.Fatal("stuck-at fault must survive CopyStateFrom")
	}
}
