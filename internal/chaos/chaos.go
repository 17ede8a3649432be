// Package chaos is a live fault-injection harness for the supervised
// sharded engine: where internal/faultcampaign sweeps faults over one
// device transaction at a time under laboratory conditions, chaos strikes
// random flip-flops of *live* shards mid-traffic — through the
// supervisor's Strike hook and netlist.Simulator.ScheduleFlipLanes — and
// holds the engine to the production bar throughout: every returned block
// bit-exact against the software reference, no stalls, and the triage
// state machine (in-place retry for transients, localization + quarantine
// → hot-respawn → software fallback for persistents) visibly doing its
// job in the stats.
//
// Beyond transient flips, the injector can weld stuck-at ROM bits into
// live shards (Config.StuckAt). A single stuck bit is corrected by the
// EDAC code on every read, so no output check can ever fire for it — the
// run then gates on the engine's delivery scrub finding and localizing
// it.
//
// The engine settles its recovery ladder inside each call: every
// quarantine a call's jobs caused has ended in a respawn or a dead shard
// before the call returns. Run therefore reads the counters, the
// diagnoses and the trace straight after the traffic, with no waiting.
//
// Everything is seeded: the traffic, the strike schedule and the struck
// flip-flops all derive from Config.Seed, so a failing run reproduces.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"

	"rijndaelip"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/edac"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/obs"
)

// Config tunes the strike generator.
type Config struct {
	// Seed feeds the deterministic traffic and strike sampler.
	Seed int64
	// Period is the mean number of lane-packed submissions between
	// strikes, across all shards (default 50: at least one flip per 50
	// transactions, the chaos gate's floor).
	Period int
	// MultiBit is how many distinct flip-flops each upset strikes
	// (default 1).
	MultiBit int
	// StuckAt welds one stuck-at ROM bit into each of the first StuckAt
	// shards, once that shard has traffic flowing (its second submission).
	// The welded bit is EDAC-masked — every read is corrected, outputs
	// stay bit-exact — so only the engine's ROM scrub can find it; the
	// triage gate asserts it does, word-accurately. Respawned shards are
	// not re-struck.
	StuckAt int
}

// Planted records one stuck-at ROM bit the injector welded into a live
// shard, for matching against the engine's Diagnosis log.
type Planted struct {
	Shard int
	ROM   string
	Word  int
	Bit   int
}

// Injector turns a Config into a SupervisorOptions.Strike hook. Strikes
// arm a transient upset on one random lane of the shard's primary
// simulator, at a random cycle inside the upcoming transaction, on
// MultiBit random flip-flops. The injector is safe for concurrent use:
// shard workers call Strike from their own goroutines.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	period   float64
	multiBit int
	// window is the strike-cycle range: upsets land 1..window Steps after
	// arming, i.e. inside the block latency of the transaction.
	window  int
	strikes uint64
	// stuckAt / stuck / planted drive the stuck-at ROM planting: one weld
	// per shard id below stuckAt, recorded for localization matching.
	stuckAt int
	stuck   map[int]bool
	planted []Planted
}

// NewInjector builds an injector; window is the transaction's cycle count
// (the core's BlockLatency), inside which every upset lands.
func NewInjector(cfg Config, window int) *Injector {
	period := cfg.Period
	if period <= 0 {
		period = 50
	}
	multi := cfg.MultiBit
	if multi <= 0 {
		multi = 1
	}
	if window <= 0 {
		window = 1
	}
	return &Injector{
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		period:   float64(period),
		multiBit: multi,
		window:   window,
		stuckAt:  cfg.StuckAt,
		stuck:    make(map[int]bool),
	}
}

// Strike is the SupervisorOptions.Strike hook: with probability 1/Period
// it arms one transient upset on the submitting shard, and (once per
// shard below Config.StuckAt) welds one stuck-at ROM bit.
func (in *Injector) Strike(shard int, submission uint64, sim *netlist.Simulator) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if shard < in.stuckAt && !in.stuck[shard] && submission >= 2 && sim.NumROMs() > 0 {
		in.stuck[shard] = true
		ri := in.rng.Intn(sim.NumROMs())
		word := in.rng.Intn(edac.Words)
		bit := in.rng.Intn(edac.CodeBits)
		sim.StickROMBit(ri, word, bit, !sim.ROMStore(ri).CodewordBit(word, bit))
		in.planted = append(in.planted, Planted{
			Shard: shard, ROM: sim.ROMName(ri), Word: word, Bit: bit,
		})
	}
	if in.rng.Float64()*in.period >= 1 {
		return
	}
	nFFs := sim.NumFFs()
	if nFFs == 0 {
		return
	}
	ffs := make([]int, 0, in.multiBit)
	seen := make(map[int]bool, in.multiBit)
	for len(ffs) < in.multiBit && len(ffs) < nFFs {
		ff := in.rng.Intn(nFFs)
		if !seen[ff] {
			seen[ff] = true
			ffs = append(ffs, ff)
		}
	}
	lane := in.rng.Intn(bfm.Lanes)
	sim.ScheduleFlipLanes(1+in.rng.Intn(in.window), 1<<uint(lane), ffs...)
	in.strikes++
}

// Strikes returns how many transient upsets have been armed so far.
func (in *Injector) Strikes() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.strikes
}

// Planted returns the stuck-at ROM faults welded so far.
func (in *Injector) Planted() []Planted {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Planted(nil), in.planted...)
}

// RunConfig describes one harness run. The engine is supervised with
// CheckLockstep — the only policy that catches persistent key-schedule
// corruption, which is what random strikes mostly produce — and the
// supervisor's defaults for everything else.
type RunConfig struct {
	// Shards and MaxLanes shape the engine (defaults 4 and 8; small lane
	// packing keeps the submission count high, which is what the strike
	// schedule keys on).
	Shards   int
	MaxLanes int
	// Blocks is the number of 16-byte blocks pushed per wave (default
	// 256); Waves is how many waves run back to back (default 1) — waves
	// give respawned shards traffic to rejoin.
	Blocks int
	Waves  int
	// Baseline also runs an identically configured, strike-free engine
	// over the same traffic and records its cycles/block, so recovery
	// overhead is measurable.
	Baseline bool
	// Chaos tunes the strike generator.
	Chaos Config
	// OnEngine, when set, is invoked with the chaos engine right after it
	// is built and before traffic starts — the hook CLIs use to expose the
	// engine's metrics registry and trace ring for the duration of the run.
	OnEngine func(*rijndaelip.Engine)
}

// Report is the harness verdict.
type Report struct {
	// Blocks is the total blocks processed (all waves); Mismatches counts
	// blocks that diverged from the software reference — anything nonzero
	// is a harness failure.
	Blocks     int
	Mismatches int
	// Strikes is how many transient upsets the injector armed.
	Strikes uint64
	// Planted lists the stuck-at ROM bits the injector welded; Localized
	// is how many of them the engine's triage/scrub matched with a
	// word-accurate ROM diagnosis (gate: Localized == len(Planted)).
	Planted   []Planted
	Localized int
	// Diagnoses is the engine's persistent-fault localization log.
	Diagnoses []rijndaelip.Diagnosis
	// Stats is the chaos engine's final counter snapshot.
	Stats rijndaelip.EngineStats
	// CyclesPerBlock is the chaos engine's aggregate rate;
	// BaselineCyclesPerBlock is the strike-free engine's (0 unless
	// RunConfig.Baseline).
	CyclesPerBlock         float64
	BaselineCyclesPerBlock float64
	// Trace is the chaos engine's final event-trace snapshot (oldest
	// first) and TraceOverwritten how many events the bounded ring lost to
	// wraparound — 0 means the whole run's supervision history is here.
	Trace            []obs.Event
	TraceOverwritten uint64
}

// VerifyLadder replays the recovery ladder from the event trace alone:
// every quarantine must be resolved by a later respawn (or the
// circuit-breaker dead verdict) of the same shard, no respawn may appear
// without a preceding quarantine, and every quarantine must be preceded
// by a persistent classification. A nil error means the whole
// detect → classify → quarantine → respawn story is reconstructible from
// the ring, independent of the counters.
func (r *Report) VerifyLadder() error {
	if r.TraceOverwritten > 0 {
		return fmt.Errorf("chaos: trace ring lost %d events to wraparound; ladder not reconstructible", r.TraceOverwritten)
	}
	open := make(map[int]int)       // quarantines awaiting resolution
	persistent := make(map[int]int) // classifications not yet consumed by a quarantine
	for _, ev := range r.Trace {
		switch ev.Kind {
		case obs.KindPersistent:
			persistent[ev.Shard]++
		case obs.KindQuarantine:
			// Every quarantine follows the persistent classification
			// that caused it.
			if persistent[ev.Shard] == 0 {
				return fmt.Errorf("chaos: trace %s without a preceding persistent classification", ev)
			}
			persistent[ev.Shard] = 0
			open[ev.Shard]++
		case obs.KindRespawn, obs.KindShardDead:
			if open[ev.Shard] == 0 {
				return fmt.Errorf("chaos: trace %s without a preceding quarantine", ev)
			}
			open[ev.Shard]--
		}
	}
	for shard, n := range open {
		if n > 0 {
			return fmt.Errorf("chaos: shard %d has %d unresolved quarantine(s) in the trace", shard, n)
		}
	}
	return nil
}

// Overhead is the recovery tax: CyclesPerBlock relative to the fault-free
// baseline (1.0 = no overhead; 0 when no baseline ran).
func (r *Report) Overhead() float64 {
	if r.BaselineCyclesPerBlock == 0 {
		return 0
	}
	return r.CyclesPerBlock / r.BaselineCyclesPerBlock
}

func (r *Report) String() string {
	s := fmt.Sprintf("chaos: %d blocks, %d strikes, %d mismatches; %d detections (%d transient, %d escalated), %d retries, %d quarantines, %d respawns (%d failed), %d fallback blocks; %.2f cycles/block",
		r.Blocks, r.Strikes, r.Mismatches,
		r.Stats.Detections, r.Stats.Transients, r.Stats.Escalations,
		r.Stats.Retries, r.Stats.Quarantines,
		r.Stats.Respawns, r.Stats.RespawnFailures, r.Stats.FallbackBlocks,
		r.CyclesPerBlock)
	if len(r.Planted) > 0 {
		s += fmt.Sprintf("; %d/%d stuck-at ROM bits localized", r.Localized, len(r.Planted))
	}
	if r.BaselineCyclesPerBlock > 0 {
		s += fmt.Sprintf(" (fault-free %.2f, overhead %.2fx)", r.BaselineCyclesPerBlock, r.Overhead())
	}
	return s
}

// localized counts planted stuck-ats matched by a word-accurate ROM
// diagnosis (same shard, same store, same word).
func localized(planted []Planted, diags []rijndaelip.Diagnosis) int {
	n := 0
	for _, p := range planted {
		for _, d := range diags {
			if d.Cause == rijndaelip.CauseROM && d.Shard == p.Shard && d.ROM == p.ROM && d.Word == p.Word {
				n++
				break
			}
		}
	}
	return n
}

// Run drives seeded traffic through a supervised engine under live
// strikes and verifies every block against the software reference. The
// engine and (optional) baseline are built, exercised and closed inside
// the call.
func Run(ctx context.Context, impl *rijndaelip.Implementation, key []byte, rc RunConfig) (*Report, error) {
	if rc.Shards <= 0 {
		rc.Shards = 4
	}
	if rc.MaxLanes <= 0 {
		rc.MaxLanes = 8
	}
	if rc.Blocks <= 0 {
		rc.Blocks = 256
	}
	if rc.Waves <= 0 {
		rc.Waves = 1
	}
	inj := NewInjector(rc.Chaos, impl.Core.BlockLatency)
	sup := rijndaelip.SupervisorOptions{
		Check:  rijndaelip.CheckLockstep,
		Strike: inj.Strike,
	}
	opts := rijndaelip.EngineOptions{
		Shards:    rc.Shards,
		MaxLanes:  rc.MaxLanes,
		Supervise: &sup,
	}
	eng, err := impl.NewEngine(key, opts)
	if err != nil {
		return nil, fmt.Errorf("chaos: engine: %w", err)
	}
	defer eng.Close()
	if rc.OnEngine != nil {
		rc.OnEngine(eng)
	}

	ref, err := rijndaelip.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("chaos: reference: %w", err)
	}
	traffic := rand.New(rand.NewSource(rc.Chaos.Seed ^ 0x6368616f73)) // "chaos"
	rep := &Report{}
	want := make([]byte, 16)
	var waves [][]byte
	for w := 0; w < rc.Waves; w++ {
		src := make([]byte, rc.Blocks*16)
		traffic.Read(src)
		waves = append(waves, src)
		got, err := eng.EncryptECB(ctx, src)
		if err != nil {
			return nil, fmt.Errorf("chaos: wave %d: %w", w, err)
		}
		for b := 0; b < rc.Blocks; b++ {
			ref.Encrypt(want, src[b*16:b*16+16])
			if !bytes.Equal(got[b*16:b*16+16], want) {
				rep.Mismatches++
			}
		}
		rep.Blocks += rc.Blocks
	}
	rep.Planted = inj.Planted()
	rep.Strikes = inj.Strikes()
	rep.Stats = eng.Stats()
	if ring := eng.Trace(); ring != nil {
		rep.Trace = ring.Snapshot()
		rep.TraceOverwritten = ring.Overwritten()
	}
	rep.Diagnoses = eng.Diagnoses()
	rep.Localized = localized(rep.Planted, rep.Diagnoses)
	rep.CyclesPerBlock = rep.Stats.AggregateCyclesPerBlock

	if rc.Baseline {
		base := sup
		base.Strike = nil
		baseOpts := opts
		baseOpts.Supervise = &base
		beng, err := impl.NewEngine(key, baseOpts)
		if err != nil {
			return nil, fmt.Errorf("chaos: baseline engine: %w", err)
		}
		defer beng.Close()
		for _, src := range waves {
			if _, err := beng.EncryptECB(ctx, src); err != nil {
				return nil, fmt.Errorf("chaos: baseline wave: %w", err)
			}
		}
		rep.BaselineCyclesPerBlock = beng.Stats().AggregateCyclesPerBlock
	}
	return rep, nil
}
