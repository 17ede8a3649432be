// Observability-layer tests over the live engine: the exposition smoke
// (scrape a real HTTP endpoint mid-recovery and reconstruct the ladder
// from the trace ring alone), the instrumentation-overhead gate and
// benchmark, and the
// Stats snapshot-consistency invariants under concurrent chaos load.
package rijndaelip_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rijndaelip"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/obs"
)

// ladderSeq reports whether the shard's events contain kinds as a
// subsequence, in order — the trace-only ladder reconstruction check.
func ladderSeq(events []obs.Event, shard int, kinds ...obs.Kind) bool {
	i := 0
	for _, ev := range events {
		if ev.Shard == shard && ev.Kind == kinds[i] {
			if i++; i == len(kinds) {
				return true
			}
		}
	}
	return false
}

// TestObsSmoke drives a strike through a supervised engine while its
// metrics and trace are served over HTTP: the scrape must show the
// registry's series, and the whole detection → persistent → quarantine →
// respawn ladder must be reconstructible from the trace ring alone (and
// from the /trace endpoint). This is the `make obs-smoke` gate.
func TestObsSmoke(t *testing.T) {
	impl := supImpl(t)
	key := []byte("obs-smoke-key-00")
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
					sim.StickFF(sim.FindFF("s0[0]"), false)
				})
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	srv, addr, err := obs.Serve("127.0.0.1:0", eng.Metrics(), eng.Trace())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	src := make([]byte, 24*16)
	for i := range src {
		src[i] = byte(i ^ 0x5A)
	}
	got, err := eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	if st := eng.Stats(); st.Respawns < 1 || st.HealthyShards != 2 {
		t.Fatalf("no respawn after the strike when the call returned: %+v", st)
	}

	scrape := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	metrics := scrape("/metrics")
	for _, want := range []string{
		`aesip_engine_blocks_total{shard="0"}`,
		`aesip_engine_detections_total{shard="0"}`,
		`aesip_engine_submit_latency_ns_bucket{shard="1",le="+Inf"}`,
		"aesip_engine_healthy_shards 2",
		"# TYPE aesip_engine_submit_latency_ns histogram",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if out := scrape("/trace"); !strings.Contains(out, `"kind":"respawn"`) {
		t.Errorf("/trace missing the respawn event:\n%s", out)
	}

	// The recovery story must replay from the ring alone: the struck shard
	// walks detection → persistent classification → quarantine → respawn,
	// in that order, with generations and a cause attached.
	events := eng.Trace().Snapshot()
	if !ladderSeq(events, 0, obs.KindDetection, obs.KindPersistent, obs.KindQuarantine, obs.KindRespawn) {
		t.Errorf("trace does not replay the recovery ladder for shard 0: %v", events)
	}
	for _, ev := range events {
		if ev.Kind == obs.KindDetection && ev.Shard == 0 && ev.Cause == "" {
			t.Errorf("detection event carries no cause: %v", ev)
		}
		if ev.Kind == obs.KindRespawn && ev.Generation < 2 {
			t.Errorf("respawn event generation = %d, want >= 2: %v", ev.Generation, ev)
		}
	}

	// The histogram must have timed every successful submission.
	snap := eng.Metrics().Snapshot()
	latCount := snap[`aesip_engine_submit_latency_ns{shard="0"}_count`] +
		snap[`aesip_engine_submit_latency_ns{shard="1"}_count`]
	if latCount == 0 {
		t.Error("submit-latency histograms observed nothing")
	}
}

// obsAllocBudget bounds the extra allocations per block an instrumented
// engine may make over its DisableObs twin. The registry and trace ring
// allocate nothing per submission: both engines measured 564 allocations
// per 128-block call (4.406/block) on the workload below, so the budget
// only leaves room for a few stray runtime allocations.
const obsAllocBudget = 0.05

// newObsTwin builds one engine of the obs-on/obs-off pair the overhead
// gate and benchmark compare, checking that DisableObs really removes the
// registry and the trace ring.
func newObsTwin(tb testing.TB, disable bool) *rijndaelip.Engine {
	tb.Helper()
	eng, err := supImpl(tb).NewEngine([]byte("obs-overhead-key"), rijndaelip.EngineOptions{
		Shards: 2, MaxLanes: 16, DisableObs: disable,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if (eng.Metrics() == nil) != disable || (eng.Trace() == nil) != disable {
		tb.Fatalf("DisableObs=%v but Metrics/Trace nil-ness disagrees", disable)
	}
	return eng
}

// obsOverheadMsg is the 128-block ECB message both twins encrypt.
func obsOverheadMsg() []byte {
	src := make([]byte, 128*16)
	for i := range src {
		src[i] = byte(i * 13)
	}
	return src
}

// TestObsOverheadGate holds the instrumentation to a deterministic
// budget: an instrumented engine and an identical DisableObs twin must
// return byte-identical output with identical simulated-cycle and
// submission totals, and the instrumented one may allocate at most
// obsAllocBudget more per block. The wall-clock throughput ratio is a
// host-dependent figure, reported by BenchmarkObsOverhead instead.
func TestObsOverheadGate(t *testing.T) {
	src := obsOverheadMsg()
	type run struct {
		out          []byte
		cycles, subs uint64
		allocs       float64 // per block
	}
	measure := func(disable bool) run {
		eng := newObsTwin(t, disable)
		defer eng.Close()
		var r run
		allocs := testing.AllocsPerRun(5, func() {
			out, err := eng.EncryptECB(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			r.out = out
		})
		r.allocs = allocs / 128
		st := eng.Stats()
		r.subs = st.Submissions
		for _, ss := range st.Shards {
			r.cycles += ss.Cycles
		}
		return r
	}
	plain, instrumented := measure(true), measure(false)
	t.Logf("allocs/block: uninstrumented %.3f, instrumented %.3f; %d cycles over %d submissions",
		plain.allocs, instrumented.allocs, plain.cycles, plain.subs)
	if !bytes.Equal(plain.out, instrumented.out) {
		t.Error("instrumented engine output differs from its DisableObs twin")
	}
	if plain.cycles != instrumented.cycles || plain.subs != instrumented.subs {
		t.Errorf("instrumentation changed the work done: %d cycles/%d submissions vs %d/%d",
			instrumented.cycles, instrumented.subs, plain.cycles, plain.subs)
	}
	if instrumented.allocs > plain.allocs+obsAllocBudget {
		t.Errorf("instrumentation allocates %.3f/block over the %.3f/block baseline (budget %.2f)",
			instrumented.allocs-plain.allocs, plain.allocs, obsAllocBudget)
	}
}

// obsOverheadRounds is how many alternating rounds each iteration of
// BenchmarkObsOverhead times per twin, so the best-of damping holds even
// at -benchtime=1x.
const obsOverheadRounds = 5

// BenchmarkObsOverhead reports the instrumentation's wall-clock cost as
// the instrumented/uninstrumented throughput ratio (budget >= 0.95),
// taking each twin's best of obsOverheadRounds rounds per iteration; the
// two engines alternate so both see the same host phases. It reports the
// ratio without failing on it: on a shared single-CPU host the figure
// swings with load.
func BenchmarkObsOverhead(b *testing.B) {
	src := obsOverheadMsg()
	engines := [2]*rijndaelip.Engine{newObsTwin(b, true), newObsTwin(b, false)}
	var best [2]float64
	for _, eng := range engines {
		defer eng.Close()
		if _, err := eng.EncryptECB(context.Background(), src); err != nil { // warmup
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N*obsOverheadRounds; i++ {
		for k, eng := range engines {
			start := time.Now()
			if _, err := eng.EncryptECB(context.Background(), src); err != nil {
				b.Fatal(err)
			}
			best[k] = max(best[k], 128/time.Since(start).Seconds())
		}
	}
	b.ReportMetric(best[1]/best[0], "obs-ratio")
}

// TestEngineThroughputZeroBlocks pins the division-by-zero guards: a
// freshly built engine that has processed nothing reports zero
// throughput and zero aggregate rates instead of NaN/Inf.
func TestEngineThroughputZeroBlocks(t *testing.T) {
	impl := supImpl(t)
	eng, err := impl.NewEngine([]byte("zero-blocks-key0"), rijndaelip.EngineOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if tp := eng.Throughput(); tp != 0 {
		t.Errorf("Throughput with zero blocks = %v, want 0", tp)
	}
	st := eng.Stats()
	if st.Blocks != 0 || st.AggregateCyclesPerBlock != 0 || st.LaneOccupancy != 0 {
		t.Errorf("zero-traffic stats not zero: %+v", st)
	}
	for _, ss := range st.Shards {
		if ss.CyclesPerBlock != 0 {
			t.Errorf("shard %d CyclesPerBlock = %v with no blocks", ss.Shard, ss.CyclesPerBlock)
		}
	}
}

// TestStatsQuarantinedShardSnapshot snapshots a pool with one shard
// parked dead by the respawn circuit breaker: the per-shard health, the
// healthy-shard count and the aggregate counters must describe the same
// instant, and the trace must record the shard-dead verdict with the
// vetoed respawn's error.
func TestStatsQuarantinedShardSnapshot(t *testing.T) {
	impl := supImpl(t)
	key := []byte("quarantine-snap0")
	var strikeOnce sync.Once
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   2,
		MaxLanes: 2,
		Supervise: &rijndaelip.SupervisorOptions{
			Check: rijndaelip.CheckLockstep,
			RespawnHook: func(shard int) error {
				if shard == 0 {
					return errTestRespawnVeto
				}
				return nil
			},
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				if shard != 0 {
					return
				}
				strikeOnce.Do(func() {
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
		src[i] = byte(i * 17)
	}
	got, err := eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	checkECB(t, got, src, key)
	st := eng.Stats()
	if h := st.Shards[0].Health; h != "dead" {
		t.Fatalf("shard 0 is %s when the call returned, want dead (circuit breaker)", h)
	}
	if st.HealthyShards != 1 || st.Degraded {
		t.Errorf("one-dead-shard pool: healthy=%d degraded=%v, want 1/false", st.HealthyShards, st.Degraded)
	}
	if ss := st.Shards[0]; ss.Quarantines != 1 || ss.Respawns != 0 || ss.Generation != 1 {
		t.Errorf("dead shard counters: %+v, want 1 quarantine, 0 respawns, gen 1", ss)
	}
	if st.Quarantines != st.Shards[0].Quarantines+st.Shards[1].Quarantines {
		t.Errorf("aggregate quarantines %d != sum of shard counters", st.Quarantines)
	}
	if st.RespawnFailures != 1 {
		t.Errorf("respawn failures = %d, want 1 (the vetoed respawn)", st.RespawnFailures)
	}
	events := eng.Trace().Snapshot()
	if !ladderSeq(events, 0, obs.KindQuarantine, obs.KindShardDead) {
		t.Errorf("trace missing quarantine → shard-dead for shard 0: %v", events)
	}
	for _, ev := range events {
		if ev.Kind == obs.KindShardDead && ev.Detail != errTestRespawnVeto.Error() {
			t.Errorf("shard-dead event %v does not carry the hook's error %q", ev, errTestRespawnVeto)
		}
	}
}

var errTestRespawnVeto = respawnVetoError{}

type respawnVetoError struct{}

func (respawnVetoError) Error() string { return "test: replica slot vetoed" }

// TestStatsSnapshotInvariants is the -race stress for the snapshot fix:
// while a supervised pool absorbs periodic strikes, a reader hammers
// Stats() and asserts the monotonic invariants the load ordering
// guarantees — no torn snapshot may show a retry without its detection,
// an escalation without its persistent classification, or a respawn
// without its quarantine.
func TestStatsSnapshotInvariants(t *testing.T) {
	impl := supImpl(t)
	key := []byte("snapshot-inv-key")
	var n atomic.Uint64
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
		Shards:   2,
		MaxLanes: 2,
		Supervise: &rijndaelip.SupervisorOptions{
			Check:           rijndaelip.CheckLockstep,
			TransientBudget: 1,
			TransientWindow: 16,
			Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
				// One transient flip roughly every 6th submission across the
				// pool keeps detections, transients, escalations, quarantines
				// and respawns all moving while the reader snapshots.
				if n.Add(1)%6 == 0 {
					sim.ScheduleFlipLanes(9, 1, sim.FindFF("s0[0]"))
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
		src[i] = byte(i * 23)
	}
	waves := 4
	if testing.Short() {
		waves = 2
	}
	done := make(chan error, 1)
	go func() {
		for w := 0; w < waves; w++ {
			if _, err := eng.EncryptECB(context.Background(), src); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var lastBlocks uint64
	snapshots := 0
	check := func() {
		st := eng.Stats()
		snapshots++
		if st.Retries > st.Detections {
			t.Fatalf("torn snapshot: %d retries > %d detections", st.Retries, st.Detections)
		}
		if st.Transients > st.InPlaceRecoveries || st.InPlaceRecoveries > st.Detections {
			t.Fatalf("torn snapshot: transients %d / in-place %d / detections %d out of order",
				st.Transients, st.InPlaceRecoveries, st.Detections)
		}
		if st.Escalations > st.Persistents {
			t.Fatalf("torn snapshot: %d escalations > %d persistents", st.Escalations, st.Persistents)
		}
		if st.Respawns > st.Quarantines || st.Quarantines > st.Persistents {
			t.Fatalf("torn snapshot: respawns %d / quarantines %d / persistents %d out of order",
				st.Respawns, st.Quarantines, st.Persistents)
		}
		if st.Blocks < lastBlocks {
			t.Fatalf("blocks went backwards: %d -> %d", lastBlocks, st.Blocks)
		}
		lastBlocks = st.Blocks
		// Aggregates must be exactly the sum of the same snapshot's shards.
		var det, qua, resp uint64
		for _, ss := range st.Shards {
			det += ss.Detections
			qua += ss.Quarantines
			resp += ss.Respawns
		}
		if det != st.Detections || qua != st.Quarantines || resp != st.Respawns {
			t.Fatalf("aggregates diverge from shard sums: %+v", st)
		}
	}
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			check()
			if st := eng.Stats(); st.Detections == 0 {
				t.Error("stress produced no detections; invariants were not exercised")
			}
			t.Logf("validated %d snapshots", snapshots)
			return
		default:
			check()
		}
	}
}

// TestStatsDeadShardFailures snapshots Stats concurrently with a ladder
// that kills every shard: each submission takes a transient strike, the
// one-strike error budget escalates the second one, and every respawn is
// vetoed, so each shard walks quarantine → failed respawn → dead.
// RespawnFailures is counted from the shard states the snapshot loads, so
// every snapshot must show exactly one failure per dead shard, and never
// more failures and respawns than quarantines. The circuit breaker trips
// on the first veto: the hook runs once per quarantine.
func TestStatsDeadShardFailures(t *testing.T) {
	impl := supImpl(t)
	key := []byte("dead-shard-fails")
	const shards = 2
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	src := make([]byte, 8*16)
	for i := range src {
		src[i] = byte(i * 41)
	}
	snapshots, deadSeen := 0, 0
	for round := 0; round < rounds; round++ {
		var hookCalls [shards]atomic.Uint64
		eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{
			Shards:   shards,
			MaxLanes: 2,
			Supervise: &rijndaelip.SupervisorOptions{
				Check:           rijndaelip.CheckLockstep,
				RetryBudget:     1,
				TransientBudget: 1,
				Strike: func(shard int, submission uint64, sim *netlist.Simulator) {
					sim.ScheduleFlipLanes(9, 1, sim.FindFF("s0[0]"))
				},
				RespawnHook: func(shard int) error {
					hookCalls[shard].Add(1)
					return errTestRespawnVeto
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := eng.EncryptECB(context.Background(), src)
			done <- err
		}()
		deadline := time.Now().Add(10 * time.Second)
		for finished := false; ; {
			st := eng.Stats()
			snapshots++
			dead := 0
			for _, ss := range st.Shards {
				if ss.Health == "dead" {
					dead++
				}
			}
			if st.RespawnFailures != uint64(dead) {
				t.Fatalf("round %d: torn snapshot: %d dead shards with %d respawn failures: %+v",
					round, dead, st.RespawnFailures, st)
			}
			if st.RespawnFailures+st.Respawns > st.Quarantines {
				t.Fatalf("round %d: torn snapshot: %d respawn failures, %d respawns after %d quarantines",
					round, st.RespawnFailures, st.Respawns, st.Quarantines)
			}
			if dead > 0 {
				deadSeen++
			}
			if !finished {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					finished = true
				default:
				}
			}
			if finished && dead == shards {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: timed out waiting for every shard to die: %+v", round, st)
			}
		}
		for _, ss := range eng.Stats().Shards {
			if calls := hookCalls[ss.Shard].Load(); calls != ss.Quarantines {
				t.Fatalf("round %d: shard %d: %d RespawnHook calls for %d quarantines, want one each",
					round, ss.Shard, calls, ss.Quarantines)
			}
		}
		eng.Close()
	}
	if deadSeen == 0 {
		t.Fatal("no snapshot saw a dead shard; the property was not exercised")
	}
	t.Logf("validated %d snapshots, %d with a dead shard", snapshots, deadSeen)
}
