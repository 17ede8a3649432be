package rijndaelip_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rijndaelip"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/chaos"
	"rijndaelip/internal/edac"
	"rijndaelip/internal/modes"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/obs"
)

// supImpl caches an encrypt-only build for the supervisor tests (the
// combined engineImpl is reused where the inverse check needs it).
var (
	supImplOnce sync.Once
	supImplVal  *rijndaelip.Implementation
	supImplErr  error
)

func supImpl(t testing.TB) *rijndaelip.Implementation {
	t.Helper()
	supImplOnce.Do(func() {
		supImplVal, supImplErr = rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	})
	if supImplErr != nil {
		t.Fatal(supImplErr)
	}
	return supImplVal
}

func checkECB(t *testing.T, got, src []byte, key []byte) {
	t.Helper()
	ref, err := rijndaelip.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 16)
	for b := 0; b*16 < len(src); b++ {
		ref.Encrypt(want, src[b*16:b*16+16])
		if !bytes.Equal(got[b*16:b*16+16], want) {
			t.Fatalf("block %d diverged from software reference", b)
		}
	}
}

// TestSupervisedEngineFaultFree runs a healthy supervised pool: every
// block must come from hardware with no detections, quarantines or
// fallbacks — the lockstep comparator must not false-alarm on good
// replicas.
func TestSupervisedEngineFaultFree(t *testing.T) {
	impl := supImpl(t)
	key := []byte("supervised-key-0")
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:    2,
		MaxLanes:  4,
		Supervise: &rijndaelip.SupervisorOptions{Check: rijndaelip.CheckLockstep},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	src := make([]byte, 16*16)
	for i := range src {
		src[i] = byte(i * 11)
	}
	got, err := eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	st := eng.Stats()
	if st.Detections != 0 || st.Quarantines != 0 || st.FallbackBlocks != 0 || st.Retries != 0 {
		t.Errorf("fault-free supervised run tripped the recovery ladder: %+v", st)
	}
	if st.HealthyShards != 2 || st.Degraded {
		t.Errorf("healthy pool reported sick: healthy=%d degraded=%v", st.HealthyShards, st.Degraded)
	}
	if st.Blocks != 16 {
		t.Errorf("hardware blocks = %d, want 16", st.Blocks)
	}
	for _, ss := range st.Shards {
		if ss.Health != "healthy" || ss.Generation != 1 {
			t.Errorf("shard %d: health=%q generation=%d, want healthy gen 1", ss.Shard, ss.Health, ss.Generation)
		}
	}
}

// TestSupervisedEngineQuarantineRespawnRecovery plants a persistent
// stuck-at fault in a live shard mid-traffic: the lockstep comparator
// must catch it, triage's strike-free in-place retry must fail (the
// stuck bit re-asserts through the state restoration), the failed
// submission must be re-queued to a healthy shard (so every
// caller-visible block stays bit-exact and in order), the sick shard
// must be quarantined with a flip-flop-region diagnosis, and its worker
// must have respawned it back into service, with a bumped generation,
// by the time the call returns.
func TestSupervisedEngineQuarantineRespawnRecovery(t *testing.T) {
	impl := supImpl(t)
	key := []byte("supervised-key-1")
	var strikeOnce sync.Once
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   2,
		MaxLanes: 2,
		Supervise: &rijndaelip.SupervisorOptions{
			Check: rijndaelip.CheckLockstep,
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				if shard != 0 {
					return
				}
				strikeOnce.Do(func() {
					// Weld a state register low: a permanent defect the
					// in-place retry cannot talk its way around.
					sim.StickFF(sim.FindFF("s0[0]"), false)
				})
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	src := make([]byte, 24*16)
	for i := range src {
		src[i] = byte(i ^ 0xA5)
	}
	got, err := eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	st := eng.Stats()
	if st.Detections == 0 || st.Quarantines == 0 || st.Retries == 0 {
		t.Fatalf("strike not detected/retried/quarantined: %+v", st)
	}
	if st.Persistents == 0 {
		t.Fatalf("stuck-at not classified persistent: %+v", st)
	}
	// Triage must have localized the fault: the ROM sweep comes back clean,
	// implicating the flip-flop region.
	diags := eng.Diagnoses()
	if len(diags) == 0 {
		t.Fatal("persistent classification recorded no diagnosis")
	}
	if d := diags[0]; d.Cause != rijndaelip.CauseFF || d.Shard != 0 {
		t.Fatalf("diagnosis = %v, want shard 0 cause %q", d, rijndaelip.CauseFF)
	}
	// The respawn ran inside the call: the shard has already rejoined.
	if st.Respawns < 1 || st.HealthyShards != 2 {
		t.Fatalf("pool not healed when the call returned: %+v", st)
	}
	if ss := st.Shards[0]; ss.Generation < 2 || ss.Respawns == 0 {
		t.Errorf("respawned shard 0 generation=%d respawns=%d, want gen >= 2", ss.Generation, ss.Respawns)
	}
	// The recovered pool must serve hardware traffic again, on both shards.
	before := st.Blocks
	got, err = eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	st = eng.Stats()
	if st.Blocks != before+24 {
		t.Errorf("post-respawn hardware blocks = %d, want %d", st.Blocks, before+24)
	}
}

// TestEDACReadCountersSurviveRespawn pins the lifetime EDAC read
// counters across a hot-respawn: shard 0 reads through a correctable
// upset in every word of one ROM store, so its corrected-read counter
// moves, and a later strike welds s0[0], so the shard is quarantined and
// respawned. On every snapshot, taken while the ladder runs, no shard's
// ROMCorrectedReads may fall, and the engine totals must be the sums over
// the same snapshot's shards.
func TestEDACReadCountersSurviveRespawn(t *testing.T) {
	impl := supImpl(t)
	key := []byte("edac-respawn-key")
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   2,
		MaxLanes: 2,
		Supervise: &rijndaelip.SupervisorOptions{
			Check: rijndaelip.CheckLockstep,
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				if shard != 0 {
					return
				}
				switch submission {
				case 1:
					for w := 0; w < edac.Words; w++ {
						sim.FlipROMBit(0, w, 3)
					}
				case 2:
					sim.StickFF(sim.FindFF("s0[0]"), false)
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	last := make([]uint64, 2)
	check := func(st rijndaelip.EngineStats) {
		t.Helper()
		var corrected, uncorrectable uint64
		for i, ss := range st.Shards {
			if ss.ROMCorrectedReads < last[i] {
				t.Fatalf("shard %d corrected ROM reads fell %d -> %d (generation %d)",
					i, last[i], ss.ROMCorrectedReads, ss.Generation)
			}
			last[i] = ss.ROMCorrectedReads
			corrected += ss.ROMCorrectedReads
			uncorrectable += ss.ROMUncorrectableReads
		}
		if st.ROMCorrectedReads != corrected || st.ROMUncorrectableReads != uncorrectable {
			t.Fatalf("EDAC read totals %d/%d, shard sums %d/%d",
				st.ROMCorrectedReads, st.ROMUncorrectableReads, corrected, uncorrectable)
		}
	}
	src := make([]byte, 24*16)
	for i := range src {
		src[i] = byte(i * 13)
	}
	var got []byte
	done := make(chan error, 1)
	go func() {
		var err error
		got, err = eng.EncryptECB(context.Background(), src)
		done <- err
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		check(eng.Stats())
	}
	checkECB(t, got, src, key)
	st := eng.Stats()
	check(st)
	if st.Respawns < 1 || st.HealthyShards != 2 {
		t.Fatalf("pool not healed when the call returned: %+v", st)
	}
	if ss := st.Shards[0]; ss.Generation < 2 || ss.ROMCorrectedReads == 0 || ss.ScrubCorrected == 0 {
		t.Fatalf("shard 0 after respawn: generation %d, %d corrected reads, %d scrub repairs; want gen >= 2 and both counters moved",
			ss.Generation, ss.ROMCorrectedReads, ss.ScrubCorrected)
	}
	got, err = eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	check(eng.Stats())
}

// TestSupervisedEngineCircuitBreakerAndDegrade strikes every submission
// on every shard and vetoes every respawn: each strike recovers in place
// (transient), but the one-strike error budget escalates the second
// detection to persistent, so each shard walks escalation → quarantine →
// failed respawn → dead (the permanent-defect circuit breaker), the
// engine degrades to the software reference — and every block the caller
// sees must still be correct.
func TestSupervisedEngineCircuitBreakerAndDegrade(t *testing.T) {
	impl := supImpl(t)
	key := []byte("supervised-key-2")
	respawnErr := errors.New("replica slot burned out")
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   2,
		MaxLanes: 2,
		Supervise: &rijndaelip.SupervisorOptions{
			Check:           rijndaelip.CheckLockstep,
			RetryBudget:     1,
			TransientBudget: 1,
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				sim.ScheduleFlipLanes(9, 1, sim.FindFF("s0[0]"))
			},
			RespawnHook: func(shard int) error { return respawnErr },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	src := make([]byte, 12*16)
	for i := range src {
		src[i] = byte(i * 29)
	}
	got, err := eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	// The circuit breaker tripped inside the call.
	st := eng.Stats()
	for _, ss := range st.Shards {
		if ss.Health != "dead" {
			t.Fatalf("shard %d is %s when the call returned, want dead: %+v", ss.Shard, ss.Health, st)
		}
	}
	if !st.Degraded || st.HealthyShards != 0 {
		t.Errorf("dead pool not degraded: %+v", st)
	}
	if st.Quarantines != 2 || st.Respawns != 0 || st.RespawnFailures != 2 {
		t.Errorf("circuit-breaker accounting off (want 2 quarantines, 0 respawns, 2 failures): %+v", st)
	}
	if st.Escalations < 2 || st.Transients == 0 || st.InPlaceRecoveries < st.Transients {
		t.Errorf("budget escalation accounting off (want >=2 escalations after transient saves): %+v", st)
	}
	if st.FallbackBlocks == 0 {
		t.Error("degraded engine recorded no software-fallback blocks")
	}
	// Fully degraded: new traffic is served entirely by the software
	// reference, correctly, without stalling.
	before := eng.Stats().Blocks
	got, err = eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	st = eng.Stats()
	if st.Blocks != before {
		t.Errorf("dead pool still claims hardware blocks: %d -> %d", before, st.Blocks)
	}
	if st.FallbackBlocks < 12 {
		t.Errorf("degraded traffic not accounted as fallback: %+v", st)
	}
}

// TestSupervisedEngineInverseSpotCheck exercises the no-extra-hardware
// detection policy on the combined core: a corrupted result fails the
// decrypt(encrypt(x)) round trip, triage's strike-free retry succeeds in
// place (the one-shot upset does not outlive the transaction), and the
// caller sees only correct ciphertext with no quarantine. It runs under
// -short, so the race sweep covers the round trip's second record: were
// it to share the forward one, the caller would receive plaintext.
func TestSupervisedEngineInverseSpotCheck(t *testing.T) {
	impl := engineImpl(t)
	var strikeOnce sync.Once
	eng, err := impl.NewEngine(engineKey, rijndaelip.EngineOptions{
		Shards:   2,
		MaxLanes: 2,
		Supervise: &rijndaelip.SupervisorOptions{
			Check: rijndaelip.CheckInverse,
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				if shard != 0 {
					return
				}
				strikeOnce.Do(func() {
					sim.ScheduleFlipLanes(16, 1, sim.FindFF("s2[7]"))
				})
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	src := make([]byte, 8*16)
	for i := range src {
		src[i] = byte(i * 41)
	}
	got, err := eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, engineKey)
	st := eng.Stats()
	if st.Detections == 0 || st.InPlaceRecoveries == 0 || st.Transients == 0 {
		t.Errorf("inverse spot-check missed the upset or triage failed to recover in place: %+v", st)
	}
	if st.Quarantines != 0 || st.Retries != 0 {
		t.Errorf("transient upset walked the persistent ladder: %+v", st)
	}
	// The decrypt direction runs under the same check (its inverse is an
	// encrypt) and must give the plaintext back.
	back, err := eng.DecryptECB(context.Background(), got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Errorf("decrypt under inverse check: %x, want %x", back, src)
	}
}

// TestSupervisedEngineInverseNeedsBothVariant pins construction-time
// validation: the inverse check needs a core that runs both directions.
func TestSupervisedEngineInverseNeedsBothVariant(t *testing.T) {
	impl := supImpl(t)
	_, err := impl.NewEngine(make([]byte, 16), rijndaelip.EngineOptions{
		Supervise: &rijndaelip.SupervisorOptions{Check: rijndaelip.CheckInverse},
	})
	if err == nil {
		t.Error("inverse check accepted on encrypt-only core")
	}
}

// TestSupervisorTriageClassification is the table-driven triage matrix:
// each case plants one fault shape into a single-shard pool and pins the
// classification the state machine must reach — transient (in-place
// retry, no quarantine), persistent flip-flop damage (failed retry, clean
// ROM diagnosis), persistent ROM damage (short-circuit on known bad words,
// word-accurate diagnosis), and error-budget escalation. In every case
// triage classifies before the delivery ROM scrub could. Run with -race.
func TestSupervisorTriageClassification(t *testing.T) {
	impl := supImpl(t)
	key := []byte("triage-table-key")
	cases := []struct {
		name   string
		budget int
		// watchdogOnly runs the case under CheckNone (the watchdog and the
		// latency assertion) instead of CheckLockstep; blocks is the
		// EncryptECB length (default 8).
		watchdogOnly bool
		blocks       int
		// strike is invoked per submission; once is per-case state.
		strike func(once *sync.Once, sub uint64, sim *netlist.Simulator)
		check  func(t *testing.T, st rijndaelip.EngineStats, diags []rijndaelip.Diagnosis)
	}{
		{
			// A round-counter upset on lane 1 raises that lane's data_ok
			// after 10 cycles with a wrong dout while lane 0 completes on
			// time: the latency assertion must flag the lane that finished
			// early, not just the one that finished last.
			name:         "early-lane-caught-by-latency-assertion",
			watchdogOnly: true,
			blocks:       2,
			strike: func(once *sync.Once, sub uint64, sim *netlist.Simulator) {
				if sub == 1 {
					sim.ScheduleFlipLanes(1, 1<<1, sim.FindFF("round[3]"))
				}
			},
			check: func(t *testing.T, st rijndaelip.EngineStats, diags []rijndaelip.Diagnosis) {
				if st.Detections == 0 {
					t.Errorf("early data_ok on lane 1 went undetected: %+v", st)
				}
			},
		},
		{
			name: "transient-recovers-in-place",
			strike: func(once *sync.Once, sub uint64, sim *netlist.Simulator) {
				once.Do(func() {
					sim.ScheduleFlipLanes(11, 1, sim.FindFF("s0[0]"))
				})
			},
			check: func(t *testing.T, st rijndaelip.EngineStats, diags []rijndaelip.Diagnosis) {
				if st.Detections != 1 || st.Transients != 1 || st.InPlaceRecoveries != 1 {
					t.Errorf("one-shot upset not triaged transient: %+v", st)
				}
				if st.Quarantines != 0 || st.Persistents != 0 || st.Retries != 0 {
					t.Errorf("transient walked the persistent ladder: %+v", st)
				}
				if len(diags) != 0 {
					t.Errorf("transient recorded a diagnosis: %v", diags)
				}
			},
		},
		{
			name: "stuck-ff-is-persistent",
			strike: func(once *sync.Once, sub uint64, sim *netlist.Simulator) {
				once.Do(func() {
					sim.StickFF(sim.FindFF("s1[3]"), true)
				})
			},
			check: func(t *testing.T, st rijndaelip.EngineStats, diags []rijndaelip.Diagnosis) {
				if st.Persistents == 0 || st.Quarantines == 0 {
					t.Errorf("stuck FF not classified persistent: %+v", st)
				}
				if len(diags) == 0 || diags[0].Cause != rijndaelip.CauseFF {
					t.Errorf("want flip-flop diagnosis, got %v", diags)
				}
			},
		},
		{
			name: "rom-multibit-is-persistent",
			strike: func(once *sync.Once, sub uint64, sim *netlist.Simulator) {
				once.Do(func() {
					// Double-bit damage in every word of ROM 0: beyond
					// SECDED, so reads corrupt and triage's health probe
					// sees uncorrectable words immediately.
					for w := 0; w < edac.Words; w++ {
						sim.FlipROMBit(0, w, 3)
						sim.FlipROMBit(0, w, 5)
					}
				})
			},
			check: func(t *testing.T, st rijndaelip.EngineStats, diags []rijndaelip.Diagnosis) {
				if st.Persistents == 0 || st.Quarantines == 0 {
					t.Errorf("ROM damage not classified persistent: %+v", st)
				}
				// Known memory damage must short-circuit the in-place retry.
				if st.InPlaceRecoveries != 0 || st.Transients != 0 {
					t.Errorf("uncorrectable ROM took the retry path: %+v", st)
				}
				if len(diags) == 0 || diags[0].Cause != rijndaelip.CauseROM || diags[0].ROM == "" || diags[0].Word != 0 {
					t.Errorf("want word-accurate ROM diagnosis, got %v", diags)
				}
			},
		},
		{
			name:   "budget-exhaustion-escalates",
			budget: 1,
			strike: func(once *sync.Once, sub uint64, sim *netlist.Simulator) {
				sim.ScheduleFlipLanes(9, 1, sim.FindFF("s0[0]"))
			},
			check: func(t *testing.T, st rijndaelip.EngineStats, diags []rijndaelip.Diagnosis) {
				if st.Escalations == 0 || st.Quarantines == 0 {
					t.Errorf("exhausted budget did not escalate: %+v", st)
				}
				if st.Transients == 0 || st.InPlaceRecoveries <= st.Transients {
					t.Errorf("escalation accounting off (escalated saves are in-place but not transient): %+v", st)
				}
				found := false
				for _, d := range diags {
					if d.Cause == rijndaelip.CauseErrorBudget {
						found = true
					}
				}
				if !found {
					t.Errorf("no error-budget diagnosis in %v", diags)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var once sync.Once
			check, blocks := rijndaelip.CheckLockstep, 8
			if tc.watchdogOnly {
				check = rijndaelip.CheckNone
			}
			if tc.blocks > 0 {
				blocks = tc.blocks
			}
			eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
				Shards:   1,
				MaxLanes: 2,
				Supervise: &rijndaelip.SupervisorOptions{
					Check:           check,
					TransientBudget: tc.budget,
					Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
						tc.strike(&once, submission, sim)
					},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			src := make([]byte, blocks*16)
			for i := range src {
				src[i] = byte(i*13 + 7)
			}
			got, err := eng.EncryptECB(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			// Whatever the classification, the caller-visible data is always
			// bit-exact against the software reference.
			checkECB(t, got, src, key)
			tc.check(t, eng.Stats(), eng.Diagnoses())
		})
	}
}

// TestScrubberDetectsEDACMaskedStuckBit pins the ROM scrub's key scenario:
// a single stuck ROM bit is corrected by the EDAC code on every read, so
// outputs stay bit-exact and no output comparator can ever fire — the
// delivery scrub is the only detector. It must localize the word,
// quarantine the shard with a ROM diagnosis, and respawn it before the
// call returns, all without a single data mismatch. Run with -race.
func TestScrubberDetectsEDACMaskedStuckBit(t *testing.T) {
	impl := supImpl(t)
	key := []byte("scrubber-key-000")
	const word, bit = 0x2A, 3
	var (
		mu      sync.Mutex
		romName string
		planted bool
	)
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   2,
		MaxLanes: 2,
		Supervise: &rijndaelip.SupervisorOptions{
			Check: rijndaelip.CheckLockstep,
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				if shard != 0 {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if !planted {
					planted = true
					romName = sim.ROMName(0)
					sim.StickROMBit(0, word, bit, !sim.ROMStore(0).CodewordBit(word, bit))
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	src := make([]byte, 16*16)
	for i := range src {
		src[i] = byte(i ^ 0x3C)
	}
	got, err := eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	// The scrub found the masked fault and the respawn healed it.
	st := eng.Stats()
	if st.ScrubUncorrectable < 1 || st.Respawns < 1 || st.HealthyShards != 2 {
		t.Fatalf("scrub-driven quarantine and respawn not settled when the call returned: %+v", st)
	}
	// The EDAC code masked the fault end to end: the output comparators
	// never fired.
	if st.Detections != 0 || st.Retries != 0 {
		t.Errorf("EDAC-masked fault tripped an output check: %+v", st)
	}
	mu.Lock()
	wantROM := romName
	mu.Unlock()
	found := false
	for _, d := range eng.Diagnoses() {
		if d.Cause == rijndaelip.CauseROM && d.ROM == wantROM && d.Word == word {
			found = true
		}
	}
	if !found {
		t.Errorf("scrub did not localize rom %q word %#x: %v", wantROM, word, eng.Diagnoses())
	}
	// The healed pool serves hardware traffic again.
	before := st.Blocks
	got, err = eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	if st = eng.Stats(); st.Blocks != before+16 {
		t.Errorf("post-respawn hardware blocks = %d, want %d", st.Blocks, before+16)
	}
}

// TestEngineCloseAfterRespawns is the shutdown edge of the recovery
// ladder: a flip-flop weld on each shard quarantines both, shard 0's
// respawn succeeds and every respawn of shard 1 is vetoed, so the call
// ends with one shard respawned and one dead. A Close right after it must
// return promptly and leak nothing. Run with -race.
func TestEngineCloseAfterRespawns(t *testing.T) {
	impl := supImpl(t)
	key := []byte("close-respawn-k0")
	baseline := runtime.NumGoroutine()
	for iter := 0; iter < 3; iter++ {
		var welded [2]sync.Once
		eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
			Shards:   2,
			MaxLanes: 2,
			Supervise: &rijndaelip.SupervisorOptions{
				Check: rijndaelip.CheckLockstep,
				Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
					welded[shard].Do(func() {
						sim.StickFF(sim.FindFF("s0[0]"), true)
					})
				},
				RespawnHook: func(shard int) error {
					if shard == 1 {
						return errTestRespawnVeto
					}
					return nil
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		src := make([]byte, 16*16)
		for i := range src {
			src[i] = byte(i*17 + iter)
		}
		got, err := eng.EncryptECB(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		checkECB(t, got, src, key)
		st := eng.Stats()
		if s0, s1 := st.Shards[0], st.Shards[1]; s0.Health != "healthy" || s0.Respawns != 1 || s1.Health != "dead" {
			t.Fatalf("iter %d: want shard 0 respawned once and shard 1 dead when the call returned: %+v", iter, st)
		}
		done := make(chan struct{})
		go func() {
			eng.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Close deadlocked after a respawn and a dead shard")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d at start, %d after Close", baseline, runtime.NumGoroutine())
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScrubDetectsWeldAfterItsJob pins the delivery scrub's detection
// bound on a single self-checking device: a stuck ROM bit welded before
// submission 3 is EDAC-masked, so no output check fires, yet the scrub
// that ends that very job must localize it, quarantine the shard and
// respawn it. Submission 4's Strike hook therefore already sees the ROM
// diagnosis, the quarantine and the respawn counted, and submissions
// 4..10 run on the fresh hardware. The respawn runs on the shard's worker
// inside the delivery of submission 3, while the caller waits: the worker
// and the caller are the engine's only goroutines. Goroutines are counted
// by their stacks, so ones that other tests leave winding down do not
// move the count.
func TestScrubDetectsWeldAfterItsJob(t *testing.T) {
	impl := supImpl(t)
	key := []byte("scrub-bound-key0")
	const word, bit = 0x51, 6
	var (
		eng *rijndaelip.Engine
		// Written by the hooks on the shard's worker, read after the call.
		romName               string
		seen                  rijndaelip.EngineStats
		seenDiags             []rijndaelip.Diagnosis
		inRespawn, respawning int
		all                   int
		workerStack           string
	)
	baseline, _ := engineGoroutines()
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   1,
		MaxLanes: 1,
		Supervise: &rijndaelip.SupervisorOptions{
			Check: rijndaelip.CheckLockstep,
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				switch submission {
				case 3:
					romName = sim.ROMName(0)
					sim.StickROMBit(0, word, bit, !sim.ROMStore(0).CodewordBit(word, bit))
				case 4:
					seen, seenDiags = eng.Stats(), eng.Diagnoses()
				}
			},
			RespawnHook: func(shard int) error {
				inRespawn++
				all, respawning = engineGoroutines()
				buf := make([]byte, 1<<14)
				workerStack = string(buf[:runtime.Stack(buf, false)])
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	src := make([]byte, 10*16)
	for i := range src {
		src[i] = byte(i*29 + 1)
	}
	got, err := eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	if seen.Quarantines != 1 || seen.Respawns != 1 || seen.Shards[0].Health != "healthy" {
		t.Errorf("at submission 4: quarantines=%d respawns=%d health=%q, want 1/1/healthy",
			seen.Quarantines, seen.Respawns, seen.Shards[0].Health)
	}
	var rom []rijndaelip.Diagnosis
	for _, d := range seenDiags {
		if d.Cause == rijndaelip.CauseROM {
			rom = append(rom, d)
		}
	}
	if len(rom) != 1 || rom[0].ROM != romName || rom[0].Word != word || rom[0].Generation != 1 {
		t.Errorf("at submission 4: want one generation-1 ROM diagnosis of rom %q word %#x, got %v", romName, word, seenDiags)
	}
	st := eng.Stats()
	if st.Submissions != 10 || st.Blocks != 10 || st.FallbackBlocks != 0 || st.Detections != 0 {
		t.Errorf("weld before submission 3: submissions=%d blocks=%d fallback=%d detections=%d, want 10/10/0/0",
			st.Submissions, st.Blocks, st.FallbackBlocks, st.Detections)
	}
	if ss := st.Shards[0]; ss.Health != "healthy" || ss.Generation != 2 || st.Quarantines != 1 || st.Respawns != 1 {
		t.Errorf("shard after the call: health=%q generation=%d quarantines=%d respawns=%d, want healthy/2/1/1",
			ss.Health, ss.Generation, st.Quarantines, st.Respawns)
	}
	// One respawn attempt, on the worker, inside the delivery scrub.
	if inRespawn != 1 || !strings.Contains(workerStack, "rijndaelip.(*Engine).worker(") ||
		!strings.Contains(workerStack, "rijndaelip.(*Engine).deliver(") {
		t.Errorf("respawn attempts=%d, want 1 on the worker inside deliver; stack:\n%s", inRespawn, workerStack)
	}
	if all != baseline+2 || respawning != 1 {
		t.Errorf("during the respawn: %d engine goroutines (%d in respawn), want %d (baseline %d + the worker, in respawn, + the caller)",
			all, respawning, baseline+2, baseline)
	}
}

// engineGoroutines counts the goroutines whose stack runs through an
// Engine method, and how many of those are in its respawn.
func engineGoroutines() (all, respawning int) {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "rijndaelip.(*Engine).") {
			all++
			if strings.Contains(g, "rijndaelip.(*Engine).respawn(") {
				respawning++
			}
		}
	}
	return all, respawning
}

// TestLadderSettledAtReturn holds the engine to its recovery contract:
// when a call returns, every quarantine its jobs caused has already ended
// in a respawn or a dead shard. A seeded Strike schedule, keyed on each
// shard's submission ordinal, walks a 2-shard pool through every rung:
// on shard 0 a transient recovered in place (submission 2), a second one
// that exhausts the one-transient budget and escalates (3), an
// EDAC-masked ROM weld that only the delivery scrub finds (5) and a
// flip-flop weld that fails the in-place retry (7), each respawned; on
// shard 1 a flip-flop weld (2) whose respawn the RespawnHook vetoes,
// so the circuit breaker declares the shard dead. After every call,
// without waiting, no shard may read quarantined, every quarantine must
// be matched by a respawn or a dead shard, every weld must carry its ROM
// diagnosis, and the trace must replay as a closed ladder.
func TestLadderSettledAtReturn(t *testing.T) {
	impl := supImpl(t)
	key := []byte("ladder-settled-0")
	var (
		mu      sync.Mutex
		planted []chaos.Planted
	)
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   2,
		MaxLanes: 2,
		Supervise: &rijndaelip.SupervisorOptions{
			Check:           rijndaelip.CheckLockstep,
			TransientBudget: 1,
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				// One stream per (shard, submission): the schedule does not
				// depend on how the shards' strikes interleave.
				rng := rand.New(rand.NewSource(int64(shard)<<32 | int64(submission)))
				ff := sim.FindFF(fmt.Sprintf("s0[%d]", rng.Intn(8)))
				switch {
				case shard == 0 && (submission == 2 || submission == 3):
					sim.ScheduleFlipLanes(1+rng.Intn(impl.Core.BlockLatency/2), 1, ff)
				case shard == 0 && submission == 5:
					ri, word, bit := rng.Intn(sim.NumROMs()), rng.Intn(edac.Words), rng.Intn(edac.CodeBits)
					sim.StickROMBit(ri, word, bit, !sim.ROMStore(ri).CodewordBit(word, bit))
					mu.Lock()
					planted = append(planted, chaos.Planted{Shard: shard, ROM: sim.ROMName(ri), Word: word, Bit: bit})
					mu.Unlock()
				case (shard == 0 && submission == 7) || (shard == 1 && submission == 2):
					sim.StickFF(ff, rng.Intn(2) == 1)
				}
			},
			RespawnHook: func(shard int) error {
				if shard == 1 {
					return errTestRespawnVeto
				}
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	src := make([]byte, 8*16)
	for call := 0; call < 8; call++ {
		for i := range src {
			src[i] = byte(i*7 + call*31)
		}
		got, err := eng.EncryptECB(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		checkECB(t, got, src, key)
		st := eng.Stats()
		dead := uint64(0)
		for _, ss := range st.Shards {
			switch ss.Health {
			case "quarantined":
				t.Fatalf("call %d: shard %d still quarantined when the call returned: %+v", call, ss.Shard, st)
			case "dead":
				dead++
			}
		}
		if st.Quarantines != st.Respawns+dead {
			t.Fatalf("call %d: %d quarantines, %d respawns and %d dead shards: a ladder is still open",
				call, st.Quarantines, st.Respawns, dead)
		}
		mu.Lock()
		welds := append([]chaos.Planted(nil), planted...)
		mu.Unlock()
		diags := eng.Diagnoses()
		for _, p := range welds {
			found := false
			for _, d := range diags {
				found = found || d.Cause == rijndaelip.CauseROM && d.Shard == p.Shard && d.ROM == p.ROM && d.Word == p.Word
			}
			if !found {
				t.Fatalf("call %d: weld %+v has no ROM diagnosis: %v", call, p, diags)
			}
		}
		ring := eng.Trace()
		rep := chaos.Report{Trace: ring.Snapshot(), TraceOverwritten: ring.Overwritten()}
		if err := rep.VerifyLadder(); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
	}
	// Every rung was walked.
	st := eng.Stats()
	s0, s1 := st.Shards[0], st.Shards[1]
	if s0.Transients < 1 || st.Escalations < 1 || s0.ScrubUncorrectable < 1 || s0.Respawns != 3 || s0.Health != "healthy" {
		t.Errorf("shard 0 did not walk transient, escalation, ROM weld and flip-flop weld to three respawns: %+v", st)
	}
	if s1.Health != "dead" || s1.Respawns != 0 || st.RespawnFailures != 1 {
		t.Errorf("shard 1 did not trip the circuit breaker after its vetoed respawn: %+v", st)
	}
	causes := make(map[string]int)
	for _, d := range eng.Diagnoses() {
		causes[d.Cause]++
	}
	if len(planted) != 1 || causes[rijndaelip.CauseROM] != 1 || causes[rijndaelip.CauseFF] != 2 || causes[rijndaelip.CauseErrorBudget] != 1 {
		t.Errorf("want 1 weld and rom/ff/error-budget diagnoses 1/2/1, got %d welds and %v", len(planted), eng.Diagnoses())
	}
}

// TestScrubCorrectTraceMatchesCounter holds the trace to the counters
// for the repairs diagnose makes: a strike flips one correctable ROM bit
// and welds a flip-flop, so the in-place retry fails and diagnose's ROM
// scrub rewrites the flipped word, and the clean stores implicate the
// flip-flops. Every repair counted in ScrubCorrected must appear in the
// trace as a scrub correction.
func TestScrubCorrectTraceMatchesCounter(t *testing.T) {
	impl := supImpl(t)
	key := []byte("scrub-trace-key0")
	var once sync.Once
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   1,
		MaxLanes: 2,
		Supervise: &rijndaelip.SupervisorOptions{
			Check: rijndaelip.CheckLockstep,
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				once.Do(func() {
					sim.FlipROMBit(0, 0x17, 2)
					sim.StickFF(sim.FindFF("s0[0]"), false)
				})
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	src := make([]byte, 8*16)
	for i := range src {
		src[i] = byte(i*11 + 5)
	}
	got, err := eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	st := eng.Stats()
	if st.Respawns < 1 {
		t.Fatalf("no respawn after the flip-flop weld when the call returned: %+v", st)
	}
	if d := eng.Diagnoses(); len(d) == 0 || d[0].Cause != rijndaelip.CauseFF {
		t.Fatalf("want a flip-flop diagnosis from diagnose, got %v", d)
	}
	if st.ScrubCorrected == 0 {
		t.Fatalf("diagnose repaired no ROM word: %+v", st)
	}
	ring := eng.Trace()
	if ring.Overwritten() != 0 {
		t.Fatalf("trace ring lost %d events", ring.Overwritten())
	}
	var traced uint64
	for _, ev := range ring.Snapshot() {
		if ev.Kind == obs.KindScrubCorrect {
			traced++
		}
	}
	if traced != st.ScrubCorrected {
		t.Errorf("trace holds %d scrub corrections, Stats().ScrubCorrected = %d", traced, st.ScrubCorrected)
	}
}

// TestDiagnoseRunsNoTransaction holds a failed in-place retry on clean
// ROM stores to the two transactions that decided it: a flip-flop weld
// fails the first attempt and the retry, diagnose finds the stores clean
// and returns CauseFF, and the quarantine's respawn must then be the next
// thing the shard does. Every cycle the primary steps between the strike
// and the RespawnHook must be counted in the shard's Cycles, which count
// only job transactions, so no self-test or other transaction runs there.
func TestDiagnoseRunsNoTransaction(t *testing.T) {
	impl := supImpl(t)
	key := []byte("diagnose-no-post")
	var (
		eng *rijndaelip.Engine
		// Written by the hooks on the shard's worker, read after the call.
		primary           *netlist.Simulator
		simAt, countedAt  uint64
		simRan, counted   uint64
		struck, respawned int
	)
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   1,
		MaxLanes: 1,
		Supervise: &rijndaelip.SupervisorOptions{
			Check: rijndaelip.CheckLockstep,
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				if submission != 2 {
					return
				}
				struck++
				primary = sim
				simAt, countedAt = uint64(sim.Cycle()), eng.Stats().Shards[0].Cycles
				sim.StickFF(sim.FindFF("s0[0]"), true)
			},
			RespawnHook: func(shard int) error {
				respawned++
				simRan = uint64(primary.Cycle()) - simAt
				counted = eng.Stats().Shards[0].Cycles - countedAt
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	src := make([]byte, 4*16)
	for i := range src {
		src[i] = byte(i*13 + 3)
	}
	got, err := eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	if struck != 1 || respawned != 1 {
		t.Fatalf("strike ran %d times and respawn %d times, want 1 each", struck, respawned)
	}
	if d := eng.Diagnoses(); len(d) != 1 || d[0].Cause != rijndaelip.CauseFF {
		t.Fatalf("want one flip-flop diagnosis, got %v", d)
	}
	if simRan == 0 || simRan != counted {
		t.Errorf("the primary stepped %d cycles between the strike and the respawn, the shard counted %d in its transactions",
			simRan, counted)
	}
}

// TestEngineTimeoutSentinelSurvivesBatch is the error-wrapping satellite:
// a shard-path watchdog expiry must stay matchable with
// errors.Is(err, bfm.ErrTimeout) through Engine.Process, the mode
// helpers, and the EngineBlock adapter's Err.
func TestEngineTimeoutSentinelSurvivesBatch(t *testing.T) {
	impl := supImpl(t)
	key := []byte("watchdog-key-000")
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   2,
		MaxLanes: 2,
		// A watchdog far below the ~51-cycle block latency: every
		// transaction trips it.
		Watchdog: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	blocks := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16)}
	if _, err := eng.Process(context.Background(), blocks, true); !errors.Is(err, bfm.ErrTimeout) {
		t.Errorf("Process lost the timeout sentinel: %v", err)
	}
	if _, err := eng.EncryptECB(context.Background(), make([]byte, 4*16)); !errors.Is(err, bfm.ErrTimeout) {
		t.Errorf("EncryptECB lost the timeout sentinel: %v", err)
	}
	blk := eng.Block()
	dst := make([]byte, 16)
	blk.Encrypt(dst, make([]byte, 16))
	if err := blk.Err(); !errors.Is(err, bfm.ErrTimeout) {
		t.Errorf("EngineBlock.Err lost the timeout sentinel: %v", err)
	}
	if err := blk.EncryptBlocks(make([]byte, 2*16), make([]byte, 2*16)); !errors.Is(err, bfm.ErrTimeout) {
		t.Errorf("EncryptBlocks lost the timeout sentinel: %v", err)
	}
}

// TestEngineCloseRacesInflightProcess is the shutdown-race satellite:
// Close racing concurrent Process calls must leave every call settled —
// success with bit-exact results, ErrEngineClosed, or nothing else — with
// no stranded batch and no leaked goroutines. Run with -race.
func TestEngineCloseRacesInflightProcess(t *testing.T) {
	impl := supImpl(t)
	key := []byte("close-race-key-0")
	ref, err := rijndaelip.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for iter := 0; iter < 3; iter++ {
		eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
			Shards:   2,
			MaxLanes: 1, // per-block submissions keep the queues busy
		})
		if err != nil {
			t.Fatal(err)
		}
		const callers = 4
		var wg sync.WaitGroup
		errs := make(chan error, callers)
		start := make(chan struct{})
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				src := make([]byte, 6*16)
				for i := range src {
					src[i] = byte(c*63 + i)
				}
				<-start
				out, err := eng.EncryptECB(context.Background(), src)
				if err != nil {
					if !errors.Is(err, rijndaelip.ErrEngineClosed) {
						errs <- err
					}
					return
				}
				want, _ := modes.EncryptECB(ref, src)
				if !bytes.Equal(out, want) {
					errs <- errors.New("racing Process returned wrong data")
				}
			}(c)
		}
		close(start)
		time.Sleep(time.Duration(iter) * 2 * time.Millisecond)
		eng.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
	// Every worker must have exited; tolerate unrelated runtime goroutines
	// by polling until we are back at (or below) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d at start, %d after Close", baseline, runtime.NumGoroutine())
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}
