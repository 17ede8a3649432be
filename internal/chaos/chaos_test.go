package chaos

import (
	"context"
	"sync"
	"testing"

	"rijndaelip"
	"rijndaelip/internal/obs"
)

var (
	implOnce sync.Once
	implVal  *rijndaelip.Implementation
	implErr  error
)

func chaosImpl(t *testing.T) *rijndaelip.Implementation {
	t.Helper()
	implOnce.Do(func() {
		implVal, implErr = rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	})
	if implErr != nil {
		t.Fatal(implErr)
	}
	return implVal
}

// TestChaosGate is the acceptance gate for the recovery layer under pure
// transient chaos: seeded strikes at better than one flip per 50
// submissions into a live 4-shard engine, with every returned block
// bit-exact against the software reference. Under triage, transient
// upsets must be absorbed by the in-place retry — detections recover
// without walking the quarantine ladder (quarantines happen only via
// error-budget escalation, and every one must be healed by a respawn) —
// and aggregate throughput stays within 25% of an identically configured
// fault-free engine.
func TestChaosGate(t *testing.T) {
	impl := chaosImpl(t)
	rc := RunConfig{
		Shards:   4,
		MaxLanes: 4,
		Blocks:   192,
		Waves:    3,
		Baseline: true,
		Chaos:    Config{Seed: 7, Period: 20},
	}
	if testing.Short() {
		rc.Blocks, rc.Waves = 96, 2
		rc.Chaos.Period = 10
	}
	rep, err := Run(context.Background(), impl, []byte("chaos-gate-key-0"), rc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Strikes == 0 {
		t.Fatal("injector armed no strikes: the run proved nothing")
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d of %d blocks diverged from the software reference", rep.Mismatches, rep.Blocks)
	}
	if rep.Stats.Detections == 0 {
		t.Error("no strike was detected despite live upsets")
	}
	if rep.Stats.InPlaceRecoveries == 0 {
		t.Error("triage never recovered a transient in place")
	}
	if rep.Stats.InPlaceRecoveries < rep.Stats.Transients {
		t.Errorf("accounting: %d in-place recoveries < %d transients", rep.Stats.InPlaceRecoveries, rep.Stats.Transients)
	}
	// Quarantines under pure transient chaos come only from error-budget
	// escalation, and every one must have healed by the time the last call
	// returned.
	if rep.Stats.Quarantines != rep.Stats.Escalations {
		t.Errorf("%d quarantines vs %d escalations under pure transients", rep.Stats.Quarantines, rep.Stats.Escalations)
	}
	if rep.Stats.Respawns != rep.Stats.Quarantines {
		t.Errorf("%d quarantines but %d respawns: a shard did not heal", rep.Stats.Quarantines, rep.Stats.Respawns)
	}
	if rep.Stats.RespawnFailures != 0 {
		t.Errorf("respawns failed %d times with healthy hardware", rep.Stats.RespawnFailures)
	}
	if ov := rep.Overhead(); ov > 1.25 {
		t.Errorf("recovery overhead %.2fx exceeds the 1.25x budget (chaos %.2f vs fault-free %.2f cycles/block)",
			ov, rep.CyclesPerBlock, rep.BaselineCyclesPerBlock)
	}
	// The same ladder must be reconstructible from the event trace alone,
	// and the trace-derived counts must agree with the counter snapshot.
	if err := rep.VerifyLadder(); err != nil {
		t.Error(err)
	}
	kinds := traceKinds(rep.Trace)
	if got := kinds[obs.KindDetection]; got != rep.Stats.Detections {
		t.Errorf("trace has %d detection events, counters say %d", got, rep.Stats.Detections)
	}
	if got := kinds[obs.KindQuarantine]; got != rep.Stats.Quarantines {
		t.Errorf("trace has %d quarantine events, counters say %d", got, rep.Stats.Quarantines)
	}
	if got := kinds[obs.KindRespawn]; got != rep.Stats.Respawns {
		t.Errorf("trace has %d respawn events, counters say %d", got, rep.Stats.Respawns)
	}
	if got := kinds[obs.KindInPlaceRecovery]; got != rep.Stats.InPlaceRecoveries {
		t.Errorf("trace has %d in-place-recovery events, counters say %d", got, rep.Stats.InPlaceRecoveries)
	}
}

// traceKinds tallies a trace snapshot by event kind.
func traceKinds(events []obs.Event) map[obs.Kind]uint64 {
	m := make(map[obs.Kind]uint64)
	for _, ev := range events {
		m[ev.Kind]++
	}
	return m
}

// TestTriageGate is the ISSUE's mixed-fault acceptance gate: transient
// flips AND welded stuck-at ROM bits into the same live pool. Every
// transient must recover in place; every stuck-at — invisible to output
// checks, because the EDAC code corrects it on each read — must be found
// by the delivery ROM scrub, localized to the exact ROM word, and healed
// by quarantine + respawn; and not a single block may diverge from the
// software reference.
func TestTriageGate(t *testing.T) {
	impl := chaosImpl(t)
	rc := RunConfig{
		Shards:   4,
		MaxLanes: 4,
		Blocks:   192,
		Waves:    3,
		Chaos:    Config{Seed: 9, Period: 25, StuckAt: 2},
	}
	if testing.Short() {
		rc.Blocks, rc.Waves = 96, 2
	}
	rep, err := Run(context.Background(), impl, []byte("triage-gate-key0"), rc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Strikes == 0 {
		t.Fatal("injector armed no transient strikes")
	}
	if len(rep.Planted) != rc.Chaos.StuckAt {
		t.Fatalf("planted %d stuck-ats, want %d", len(rep.Planted), rc.Chaos.StuckAt)
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d of %d blocks diverged from the software reference", rep.Mismatches, rep.Blocks)
	}
	if rep.Stats.Transients == 0 || rep.Stats.InPlaceRecoveries < rep.Stats.Transients {
		t.Errorf("transient triage accounting off: %+v", rep.Stats)
	}
	if rep.Localized != len(rep.Planted) {
		t.Errorf("scrub localized %d of %d welded ROM bits: planted %v, diagnosed %v",
			rep.Localized, len(rep.Planted), rep.Planted, rep.Diagnoses)
	}
	if rep.Stats.ScrubUncorrectable < uint64(len(rep.Planted)) {
		t.Errorf("scrub counters missed the welded bits: %+v", rep.Stats)
	}
	if rep.Stats.Quarantines > rep.Stats.Persistents {
		t.Errorf("%d quarantines exceed %d persistent classifications", rep.Stats.Quarantines, rep.Stats.Persistents)
	}
	if rep.Stats.HealthyShards != rc.Shards {
		t.Errorf("pool did not heal: %d/%d shards healthy", rep.Stats.HealthyShards, rc.Shards)
	}
	// The mixed-fault ladder — scrub-found persistents included — must
	// replay cleanly from the trace, and every planted weld must show up
	// as a rom-caused persistent classification event.
	if err := rep.VerifyLadder(); err != nil {
		t.Error(err)
	}
	romPersistents := uint64(0)
	for _, ev := range rep.Trace {
		if ev.Kind == obs.KindPersistent && ev.Cause == rijndaelip.CauseROM {
			romPersistents++
		}
	}
	if romPersistents < uint64(len(rep.Planted)) {
		t.Errorf("trace records %d rom-caused persistents, want >= %d planted welds", romPersistents, len(rep.Planted))
	}
}

// TestChaosMultiBit checks that multi-bit upsets (several flip-flops per
// strike) are also detected and recovered from.
func TestChaosMultiBit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-bit chaos run in -short mode")
	}
	impl := chaosImpl(t)
	rep, err := Run(context.Background(), impl, []byte("chaos-mbu-key-00"), RunConfig{
		Shards:   2,
		MaxLanes: 4,
		Blocks:   96,
		Waves:    2,
		Chaos:    Config{Seed: 3, Period: 8, MultiBit: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Strikes == 0 {
		t.Fatal("injector armed no strikes")
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d of %d blocks diverged under multi-bit upsets", rep.Mismatches, rep.Blocks)
	}
}

// TestChaosRepeatedRuns holds the harness to bit-exactness across
// repeated runs of the same seed: the traffic is identical each time, and
// no scheduling interleaving may surface a wrong block.
func TestChaosRepeatedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated chaos runs in -short mode")
	}
	impl := chaosImpl(t)
	rc := RunConfig{
		Shards:   2,
		MaxLanes: 8,
		Blocks:   128,
		Waves:    1,
		Chaos:    Config{Seed: 11, Period: 5},
	}
	for i := 0; i < 2; i++ {
		rep, err := Run(context.Background(), impl, []byte("chaos-rep-key-00"), rc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Strikes == 0 {
			t.Fatalf("run %d: injector armed no strikes", i)
		}
		if rep.Mismatches != 0 {
			t.Errorf("run %d: %d mismatches under seeded chaos", i, rep.Mismatches)
		}
	}
}

// TestInjectorDefaults pins the zero-value Config behavior the chaos gate
// relies on: one single-bit flip per 50 submissions on average, armed
// inside a minimum 1-cycle window.
func TestInjectorDefaults(t *testing.T) {
	in := NewInjector(Config{}, 0)
	if in.period != 50 || in.multiBit != 1 || in.window != 1 {
		t.Errorf("defaults: period=%v multiBit=%d window=%d, want 50/1/1", in.period, in.multiBit, in.window)
	}
	r := &Report{CyclesPerBlock: 2}
	if r.Overhead() != 0 {
		t.Errorf("Overhead without a baseline = %v, want 0", r.Overhead())
	}
	r.BaselineCyclesPerBlock = 1
	if r.Overhead() != 2 {
		t.Errorf("Overhead = %v, want 2", r.Overhead())
	}
}

// TestVerifyLadder pins the trace replay on synthetic traces: balanced
// ladders pass, orphaned respawns and unresolved quarantines fail, and a
// wrapped ring refuses to vouch for anything.
func TestVerifyLadder(t *testing.T) {
	ev := func(k obs.Kind, shard int) obs.Event { return obs.Event{Kind: k, Shard: shard} }
	good := &Report{Trace: []obs.Event{
		ev(obs.KindDetection, 0),
		ev(obs.KindPersistent, 0), ev(obs.KindQuarantine, 0), ev(obs.KindRespawn, 0),
		ev(obs.KindPersistent, 1), ev(obs.KindQuarantine, 1), ev(obs.KindShardDead, 1),
	}}
	if err := good.VerifyLadder(); err != nil {
		t.Errorf("balanced ladder rejected: %v", err)
	}
	orphan := &Report{Trace: []obs.Event{ev(obs.KindRespawn, 0)}}
	if err := orphan.VerifyLadder(); err == nil {
		t.Error("respawn without quarantine accepted")
	}
	unclassified := &Report{Trace: []obs.Event{ev(obs.KindQuarantine, 0), ev(obs.KindRespawn, 0)}}
	if err := unclassified.VerifyLadder(); err == nil {
		t.Error("quarantine without persistent classification accepted")
	}
	hung := &Report{Trace: []obs.Event{ev(obs.KindPersistent, 2), ev(obs.KindQuarantine, 2)}}
	if err := hung.VerifyLadder(); err == nil {
		t.Error("unresolved quarantine accepted")
	}
	wrapped := &Report{TraceOverwritten: 3}
	if err := wrapped.VerifyLadder(); err == nil {
		t.Error("wrapped ring accepted")
	}
}
