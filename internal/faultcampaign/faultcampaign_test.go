package faultcampaign

import (
	"testing"

	"rijndaelip/internal/netlist"
	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/techmap"
)

func buildEncryptCore(t testing.TB) (*rijndael.Core, *netlist.Netlist) {
	t.Helper()
	core, err := rijndael.New(rijndael.Config{Variant: rijndael.Encrypt, ROMStyle: rtl.ROMAsync})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := core.Design.Synthesize(techmap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return core, nl
}

func TestCampaignDeterministic(t *testing.T) {
	core, nl := buildEncryptCore(t)
	cfg := Config{Netlist: nl, Core: core, Trials: 12, Seed: 7}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		ta, tb := a.Trials[i], b.Trials[i]
		if ta.Outcome != tb.Outcome || ta.Fault.Cycle != tb.Fault.Cycle ||
			len(ta.Fault.FFs) != len(tb.Fault.FFs) || ta.Fault.FFs[0] != tb.Fault.FFs[0] {
			t.Fatalf("trial %d not reproducible: %+v vs %+v", i, ta, tb)
		}
	}
}

// TestPlainCoreShowsCorruption is the campaign's sanity floor: on the
// unhardened core a decent sample of upsets must include silent data
// corruption (otherwise the injector is vacuous) as well as some masked
// faults (upsets in already-consumed registers).
func TestPlainCoreShowsCorruption(t *testing.T) {
	core, nl := buildEncryptCore(t)
	res, err := Run(Config{Netlist: nl, Core: core, Trials: 40, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.Count(Corrupted) == 0 {
		t.Error("no corrupted outcomes on the plain core; injector is vacuous")
	}
	if res.Count(SilentCorrect) == 0 {
		t.Error("no masked faults at all; classification looks broken")
	}
}

// TestLockstepConvertsCorruptionToDetection runs the identical seeded
// campaign with and without the shadow replica: every silent corruption of
// the plain run must be flagged by the lockstep comparator.
func TestLockstepConvertsCorruptionToDetection(t *testing.T) {
	core, nl := buildEncryptCore(t)
	plain, err := Run(Config{Netlist: nl, Core: core, Trials: 40, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	lock, err := Run(Config{Netlist: nl, Core: core, Trials: 40, Seed: 16, Lockstep: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain: %v", plain)
	t.Logf("lockstep: %v", lock)
	if lock.Count(Corrupted) != 0 {
		t.Errorf("lockstep let %d faults escape as silent corruption", lock.Count(Corrupted))
	}
	if lock.Count(Detected) < plain.Count(Corrupted) {
		t.Errorf("lockstep detected %d, plain corrupted %d: detection should cover corruption",
			lock.Count(Detected), plain.Count(Corrupted))
	}
	if lock.Coverage() <= plain.Coverage() {
		t.Errorf("lockstep coverage %.2f not above plain %.2f", lock.Coverage(), plain.Coverage())
	}
}

// TestTargetedStateUpsetCorrupts replays the classic targeted strike (a
// state-register bit mid-encryption) through the explicit-fault entry
// point.
func TestTargetedStateUpsetCorrupts(t *testing.T) {
	core, nl := buildEncryptCore(t)
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	target := sim.FindFF("s0[0]")
	if target < 0 {
		t.Fatal("state FF not found")
	}
	res, err := RunFaults(Config{Netlist: nl, Core: core}, []Fault{
		{Cycle: 7, FFs: []int{target}},
		{Cycle: 21, FFs: []int{target}},
		{Cycle: 33, FFs: []int{target}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count(Corrupted) == 0 {
		t.Fatalf("targeted state upsets never corrupted the output: %v", res)
	}
}

// TestHungClassification wedges the FSM with a targeted upset that clears
// the busy flag mid-operation: data_ok can then never rise and the trial
// must be classed Hung by the watchdog, within a bounded budget.
func TestHungClassification(t *testing.T) {
	core, nl := buildEncryptCore(t)
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	busy := sim.FindFF("busy[0]")
	if busy < 0 {
		t.Fatal("busy FF not found")
	}
	res, err := RunFaults(Config{Netlist: nl, Core: core, Watchdog: 120}, []Fault{
		{Cycle: 5, FFs: []int{busy}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Trials[0].Outcome; got != Hung {
		t.Fatalf("busy-kill outcome = %v, want hung (%v)", got, res)
	}
}

// TestLatencyAssertionDetectsEarlyOk strikes the data_ok register itself:
// the handshake fires early with stale output. Without the protocol
// assertion that is silent corruption; with it, the trial is detected.
func TestLatencyAssertionDetectsEarlyOk(t *testing.T) {
	core, nl := buildEncryptCore(t)
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	okFF := sim.FindFF("data_ok_reg[0]")
	if okFF < 0 {
		t.Fatal("data_ok_reg FF not found")
	}
	fault := []Fault{{Cycle: 10, FFs: []int{okFF}}}
	naive, err := RunFaults(Config{Netlist: nl, Core: core}, fault)
	if err != nil {
		t.Fatal(err)
	}
	if got := naive.Trials[0].Outcome; got != Corrupted {
		t.Fatalf("early data_ok without assertion = %v, want corrupted", got)
	}
	armed, err := RunFaults(Config{Netlist: nl, Core: core, AssertLatency: true}, fault)
	if err != nil {
		t.Fatal(err)
	}
	if got := armed.Trials[0].Outcome; got != Detected {
		t.Fatalf("early data_ok with assertion = %v, want detected", got)
	}
}

// TestMultiBitSampling checks the MBU sampler strikes the requested number
// of distinct flip-flops per trial, deterministically.
func TestMultiBitSampling(t *testing.T) {
	core, nl := buildEncryptCore(t)
	res, err := Run(Config{Netlist: nl, Core: core, Trials: 6, Seed: 3, MultiBit: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Trials {
		if len(tr.Fault.FFs) != 3 {
			t.Fatalf("trial %d struck %d FFs, want 3", i, len(tr.Fault.FFs))
		}
		seen := map[int]bool{}
		for _, ff := range tr.Fault.FFs {
			if seen[ff] {
				t.Fatalf("trial %d struck FF %d twice", i, ff)
			}
			seen[ff] = true
		}
	}
}

// TestClassifyPersistenceBreakdown pins the triage retry semantics: a
// state-register upset washes out when the retry reloads the state from
// din (Recovered), while a cipher-key register upset skews the on-the-fly
// key schedule of every subsequent block until re-key (Persistent). The
// breakdown is what the engine supervisor's in-place retry acts on.
func TestClassifyPersistenceBreakdown(t *testing.T) {
	core, nl := buildEncryptCore(t)
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	state := sim.FindFF("s0[0]")
	keyFF := sim.FindFF("key_reg[0]")
	if state < 0 || keyFF < 0 {
		t.Fatalf("fixture FFs not found: state=%d key=%d", state, keyFF)
	}
	res, err := RunFaults(Config{Netlist: nl, Core: core, ClassifyPersistence: true}, []Fault{
		{Cycle: 7, FFs: []int{state}},
		{Cycle: 7, FFs: []int{keyFF}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if !res.Classified || res.Recovered+res.Persistent != len(res.Trials) {
		t.Fatalf("breakdown does not partition the trials: %+v", res)
	}
	if res.Trials[0].Persistent {
		t.Error("state-register upset classified persistent; the retry reloads state from din")
	}
	if !res.Trials[1].Persistent {
		t.Error("cipher-key upset classified recovered; the corrupted key outlives the retry")
	}
}

// TestRunStuckAtROMCampaign pins the EDAC-masked fault class: a single
// stuck codeword bit is corrected on every read (SilentCorrect — no
// output check can ever fire) yet stays Persistent, because the scrub
// rewrite cannot clear welded storage. This is exactly the class only the
// engine's ROM scrub detects.
func TestRunStuckAtROMCampaign(t *testing.T) {
	core, nl := buildEncryptCore(t)
	faults := []ROMFault{
		{ROM: 0, Word: 0x53, Bit: 3},
		{ROM: 0, Word: 0x00, Bit: 12},
	}
	res, err := RunStuckAt(Config{Netlist: nl, Core: core}, faults)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if len(res.Trials) != len(faults) || !res.Classified {
		t.Fatalf("want %d classified trials: %+v", len(faults), res)
	}
	for i, tr := range res.Trials {
		if tr.Outcome != SilentCorrect {
			t.Errorf("trial %d: EDAC-masked stuck bit outcome = %v, want silent-correct", i, tr.Outcome)
		}
		if !tr.Persistent {
			t.Errorf("trial %d: welded ROM bit classified recovered", i)
		}
		if tr.ROM == nil || *tr.ROM != faults[i] {
			t.Errorf("trial %d: ROM fault record = %+v, want %+v", i, tr.ROM, faults[i])
		}
	}
	if res.Persistent != len(faults) || res.Recovered != 0 {
		t.Errorf("breakdown = %d recovered / %d persistent, want 0/%d", res.Recovered, res.Persistent, len(faults))
	}
}

func TestRunStuckAtValidation(t *testing.T) {
	core, nl := buildEncryptCore(t)
	if _, err := RunStuckAt(Config{Netlist: nl, Core: core}, []ROMFault{{ROM: 99}}); err == nil {
		t.Error("out-of-range ROM accepted")
	}
	if _, err := RunStuckAt(Config{Netlist: nl, Core: core}, []ROMFault{{Word: 300}}); err == nil {
		t.Error("out-of-range word accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	core, nl := buildEncryptCore(t)
	if _, err := RunFaults(Config{Netlist: nl, Core: core}, []Fault{{Cycle: 0, FFs: []int{1 << 20}}}); err == nil {
		t.Error("out-of-range FF accepted")
	}
}
