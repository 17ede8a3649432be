package rijndaelip_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rijndaelip"
	"rijndaelip/internal/bfm"
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

// waitEngine polls the engine stats until cond is satisfied or the
// deadline passes (respawns land after their backoff, asynchronously to
// the caller).
func waitEngine(t *testing.T, eng *rijndaelip.Engine, what string, cond func(rijndaelip.EngineStats) bool) rijndaelip.EngineStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := eng.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
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
// submission must be re-queued to the healthy sibling (so every
// caller-visible block stays bit-exact and in order), the sick shard
// must be quarantined with a flip-flop-region diagnosis, and its worker
// must respawn it back into service with a bumped generation.
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
	// The respawn lands after its backoff; wait for the shard to rejoin.
	st = waitEngine(t, eng, "hot-respawn", func(st rijndaelip.EngineStats) bool {
		return st.Respawns >= 1 && st.HealthyShards == 2
	})
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
	st := waitEngine(t, eng, "hot-respawn", func(st rijndaelip.EngineStats) bool {
		check(st)
		return st.Respawns >= 1 && st.HealthyShards == 2
	})
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
// failed respawns → dead (the permanent-defect circuit breaker), the
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
			Check:              rijndaelip.CheckLockstep,
			RetryBudget:        1,
			MaxRespawnFailures: 2,
			TransientBudget:    1,
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				sim.ScheduleFlipLanes(9, 1, sim.FindFF("s0[0]"))
			},
			RespawnHook: func(shard, attempt int) error { return respawnErr },
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
	st := waitEngine(t, eng, "circuit breaker", func(st rijndaelip.EngineStats) bool {
		dead := 0
		for _, ss := range st.Shards {
			if ss.Health == "dead" {
				dead++
			}
		}
		return dead == 2
	})
	if !st.Degraded || st.HealthyShards != 0 {
		t.Errorf("dead pool not degraded: %+v", st)
	}
	if st.Quarantines != 2 || st.Respawns != 0 || st.RespawnFailures < 4 {
		t.Errorf("circuit-breaker accounting off (want 2 quarantines, 0 respawns, >=4 failures): %+v", st)
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
// retry, no quarantine), persistent flip-flop damage (failed retry, POST
// diagnosis), persistent ROM damage (short-circuit on known bad words,
// word-accurate diagnosis), and error-budget escalation. In every case
// triage classifies before the post-job ROM scrub could. Run with -race.
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
// post-job scrub is the only detector. It must localize the word,
// quarantine the shard with a ROM diagnosis, and respawn it, all without
// a single data mismatch. Run with -race.
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
	// The scrub must find the masked fault and the respawn heal it.
	st := waitEngine(t, eng, "scrub-driven quarantine and respawn", func(st rijndaelip.EngineStats) bool {
		return st.ScrubUncorrectable >= 1 && st.Respawns >= 1 && st.HealthyShards == 2
	})
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

// TestEngineCloseDuringRespawnBackoff is the shutdown race of the
// recovery ladder: Close landing while a quarantined shard's worker is
// parked in its (deliberately huge) respawn backoff must return promptly
// and leak nothing. Run with -race.
func TestEngineCloseDuringRespawnBackoff(t *testing.T) {
	impl := supImpl(t)
	key := []byte("close-backoff-k0")
	baseline := runtime.NumGoroutine()
	for iter := 0; iter < 3; iter++ {
		var once sync.Once
		eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
			Shards:   2,
			MaxLanes: 2,
			Supervise: &rijndaelip.SupervisorOptions{
				Check:          rijndaelip.CheckLockstep,
				RespawnBackoff: time.Minute, // park the respawn mid-backoff
				Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
					if shard != 0 {
						return
					}
					once.Do(func() {
						sim.StickFF(sim.FindFF("s0[0]"), true)
					})
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		src := make([]byte, 8*16)
		for i := range src {
			src[i] = byte(i*17 + iter)
		}
		got, err := eng.EncryptECB(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		checkECB(t, got, src, key)
		waitEngine(t, eng, "quarantine before Close", func(st rijndaelip.EngineStats) bool {
			return st.Quarantines >= 1
		})
		done := make(chan struct{})
		go func() {
			eng.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Close deadlocked against an in-flight respawn backoff")
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

// TestScrubDetectsWeldAfterItsJob pins the post-job scrub's detection
// bound on a single self-checking device: a stuck ROM bit welded before
// submission 3 is EDAC-masked, so no output check fires, yet the scrub
// that follows that very job must localize it and quarantine the shard.
// Submissions 4..10 therefore never reach hardware: the long respawn
// backoff holds the shard out and the software reference serves them.
// While it waits, the shard's worker is the engine's only goroutine.
// Goroutines are counted by their stacks, so ones that other tests leave
// winding down do not move the count.
func TestScrubDetectsWeldAfterItsJob(t *testing.T) {
	impl := supImpl(t)
	key := []byte("scrub-bound-key0")
	const word, bit = 0x51, 6
	var (
		mu      sync.Mutex
		romName string
	)
	baseline, _ := engineGoroutines()
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   1,
		MaxLanes: 1,
		Supervise: &rijndaelip.SupervisorOptions{
			Check:          rijndaelip.CheckLockstep,
			RespawnBackoff: time.Minute, // hold the shard quarantined
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				if submission != 3 {
					return
				}
				mu.Lock()
				romName = sim.ROMName(0)
				mu.Unlock()
				sim.StickROMBit(0, word, bit, !sim.ROMStore(0).CodewordBit(word, bit))
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
	st := eng.Stats()
	if st.Submissions != 3 || st.FallbackBlocks != 7 || st.Detections != 0 {
		t.Errorf("weld before submission 3: submissions=%d fallback=%d detections=%d, want 3/7/0",
			st.Submissions, st.FallbackBlocks, st.Detections)
	}
	if h := st.Shards[0].Health; h != "quarantined" {
		t.Errorf("shard health = %q, want quarantined", h)
	}
	mu.Lock()
	wantROM := romName
	mu.Unlock()
	var rom []rijndaelip.Diagnosis
	for _, d := range eng.Diagnoses() {
		if d.Cause == rijndaelip.CauseROM {
			rom = append(rom, d)
		}
	}
	if len(rom) != 1 || rom[0].ROM != wantROM || rom[0].Word != word {
		t.Errorf("want one ROM diagnosis of rom %q word %#x, got %v", wantROM, word, eng.Diagnoses())
	}
	// One worker and nothing else: the scrub and the respawn both run on
	// it. The worker enters respawn just after the quarantine, which the
	// caller may see first.
	all, respawning := engineGoroutines()
	for deadline := time.Now().Add(5 * time.Second); respawning == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		all, respawning = engineGoroutines()
	}
	if all != baseline+1 || respawning != 1 {
		t.Errorf("during respawn backoff: %d engine goroutines (%d in respawn), want %d (baseline %d + one worker, in respawn)",
			all, respawning, baseline+1, baseline)
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

// TestScrubCorrectTraceMatchesCounter holds the trace to the counters
// for the repairs diagnose makes: a strike flips one correctable ROM bit
// and welds a flip-flop, so the in-place retry fails and diagnose's ROM
// scrub rewrites the flipped word before POST implicates the flip-flops.
// Every repair counted in ScrubCorrected must appear in the trace as a
// scrub correction.
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
	st := waitEngine(t, eng, "respawn after the flip-flop weld", func(st rijndaelip.EngineStats) bool {
		return st.Respawns >= 1
	})
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
			Shards:     2,
			QueueDepth: 1,
			MaxLanes:   1, // per-block submissions keep the queues busy
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
