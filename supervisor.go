package rijndaelip

import (
	"bytes"
	"errors"
	"fmt"

	"rijndaelip/internal/bfm"
	"rijndaelip/internal/edac"
	"rijndaelip/internal/faultcampaign"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/obs"
	"rijndaelip/internal/rijndael"
)

// CheckPolicy selects how a supervised engine detects a corrupted
// transaction before handing the result to the caller.
type CheckPolicy int

const (
	// CheckNone relies on the BFM watchdog and fixed-latency protocol
	// assertion alone: hung or mistimed transactions are caught, silent
	// data corruption is not.
	CheckNone CheckPolicy = iota
	// CheckLockstep runs every shard as a dual-modular-redundant pair: an
	// independent shadow replica is stepped cycle-for-cycle and any
	// divergence of the observable outputs flags the transaction.
	CheckLockstep
	// CheckInverse round-trips results through the opposite direction on
	// the same shard (requires the combined Both variant):
	// decrypt(encrypt(x)) must give back x. Costs a second transaction per
	// checked submission but needs no duplicated hardware.
	CheckInverse
)

// SupervisorOptions arms the engine's per-shard supervision layer: every
// shard transaction runs under the BFM watchdog (EngineOptions.Watchdog)
// and the fixed-latency protocol assertion on every lane, optionally
// cross-checked by a lockstep shadow replica or an inverse-operation
// check, and any detection triggers
// the recovery ladder — retry in place, re-queue the failed submission to
// a healthy shard, quarantine the sick shard, hot-respawn it, and degrade
// to the software reference only when every replica is out of service.
//
// Each shard's worker goroutine is the only one that touches the shard's
// simulators, EDAC ROM stores and driver. Before it copies a job's results
// home it scrubs the ROM words its stores report faulty (correctable
// errors are rewritten; a word that stays bad quarantines the shard with a
// ROM diagnosis), and a quarantine respawns the shard on the spot: the
// worker reconfigures the shard's simulators in place, attempt after
// attempt, until the shard is healthy again or the circuit breaker has
// declared it dead. The ladder is therefore settled when a call returns:
// every quarantine its jobs caused has already ended in a respawn or a
// dead shard.
//
// A single self-checking device is the one-shard, one-lane case:
//
//	eng, _ := impl.NewEngine(key, EngineOptions{Shards: 1, MaxLanes: 1,
//		Supervise: &SupervisorOptions{Check: CheckLockstep}})
//	blk := eng.Block() // a modes.Block that absorbs detected faults
//
// Every shard simulates the technology-mapped netlist (like the fault
// campaigns), so chaos harnesses can strike real flip-flops of live
// shards mid-traffic.
type SupervisorOptions struct {
	// Check selects the per-transaction detection mechanism. CheckNone
	// relies on the watchdog and latency assertion alone; CheckLockstep
	// steps a fault-free shadow replica in lockstep with every shard and
	// flags any observable divergence (detects corrupted data the instant
	// it surfaces, including persistent key-schedule upsets); CheckInverse
	// round-trips results through the opposite direction on the same shard
	// (needs the combined Both variant, costs an extra transaction per
	// submission, and — like any inverse check — cannot see
	// common-mode corruption such as a flipped key register that skews
	// both directions identically).
	Check CheckPolicy
	// RetryBudget is how many times a detected-bad submission is re-queued
	// to a healthy shard before its blocks are served by the software
	// reference instead. Default 2.
	RetryBudget int
	// MaxRespawnFailures is the permanent-defect circuit breaker: a
	// quarantined shard gets this many respawn attempts, back to back, and
	// is declared dead and never retried once they have all failed.
	// Default 3.
	MaxRespawnFailures int
	// Strike, when set, is invoked on the shard's worker goroutine
	// immediately before every hardware submission with the shard id, the
	// shard's submission ordinal, and its primary simulator. Chaos
	// harnesses use it to arm ScheduleFlipLanes upsets that land
	// mid-transaction. The hook runs on the worker goroutine that owns the
	// simulator, so it may touch the simulator without extra locking, and
	// ROM damage it plants is found by the scrub that precedes the job's
	// delivery.
	Strike func(shard int, submission uint64, sim *netlist.Simulator)
	// RespawnHook, when set, gates every respawn attempt: it is invoked
	// with the shard id and the consecutive-failure ordinal before the
	// shard is reconfigured, and a non-nil return fails the attempt.
	// Tests use it to model a permanently damaged replica slot and drive
	// the circuit breaker.
	RespawnHook func(shard, attempt int) error

	// TransientBudget is the per-shard sliding-window error budget for
	// triage: a detection whose in-place retry succeeds is classified
	// transient and merely recorded, but once more than TransientBudget
	// transients land within TransientWindow submissions the shard is
	// treated as persistently sick (escalation) and quarantined anyway —
	// a replica that "recovers" every few transactions is not healthy.
	// Default 3.
	TransientBudget int
	// TransientWindow is the budget window, in per-shard submissions.
	// Default 64.
	TransientWindow int
}

// Shard supervision states. Unsupervised engines keep every shard healthy
// forever; under supervision a persistent fault moves the shard to
// quarantined for as long as its worker spends respawning it, a successful
// respawn moves it back, and the circuit breaker parks it at dead.
const (
	shardHealthy int32 = iota
	shardQuarantined
	shardDead
)

// healthName renders a shard state for stats snapshots.
func healthName(state int32) string {
	switch state {
	case shardHealthy:
		return "healthy"
	case shardQuarantined:
		return "quarantined"
	case shardDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", state)
}

// ErrShardDivergence is the lockstep comparator's detection: a shard's
// observable outputs diverged from its fault-free shadow replica.
// Returned errors wrap it; match with errors.Is.
var ErrShardDivergence = errors.New("rijndaelip: lockstep divergence")

// ErrInverseMismatch is the inverse-operation spot-check's detection:
// running a result back through the opposite direction did not return the
// original block. Returned errors wrap it; match with errors.Is.
var ErrInverseMismatch = errors.New("rijndaelip: inverse check mismatch")

// errNoHealthyShard is the internal signal that every shard is
// quarantined or dead: the submitting side serves the job from the
// software reference instead of stalling.
var errNoHealthyShard = errors.New("rijndaelip: engine: no healthy shard")

// Diagnosis causes: what the targeted diagnosis pass localized a
// persistent fault to.
const (
	// CauseROM: a ROM word holds a stuck bit or multi-bit damage
	// (Diagnosis.ROM / Diagnosis.Word name the word).
	CauseROM = "rom"
	// CauseFF: the memory sweep came back clean, implicating the
	// flip-flop region (POST failure or unreproducible state corruption).
	CauseFF = "ff"
	// CauseErrorBudget: no single fault localized, but the shard burned
	// through its transient error budget — persistently sick by policy.
	CauseErrorBudget = "error-budget"
)

// Diagnosis is one persistent-fault localization record, appended every
// time triage (or the delivery scrub) classifies a shard fault as
// persistent and quarantines it.
type Diagnosis struct {
	// Shard is the sick shard; Generation its driver generation at
	// classification time (1 = the original build).
	Shard      int
	Generation uint64
	// Cause is one of CauseROM, CauseFF, CauseErrorBudget.
	Cause string
	// ROM and Word localize CauseROM faults to a ROM macro word.
	ROM  string
	Word int
	// Detail is a human-readable note from the diagnosing component.
	Detail string
}

func (d Diagnosis) String() string {
	switch d.Cause {
	case CauseROM:
		return fmt.Sprintf("shard %d gen %d: rom %s word 0x%02x (%s)", d.Shard, d.Generation, d.ROM, d.Word, d.Detail)
	default:
		return fmt.Sprintf("shard %d gen %d: %s (%s)", d.Shard, d.Generation, d.Cause, d.Detail)
	}
}

// recordDiagnosis appends one localization record to the engine's log.
func (e *Engine) recordDiagnosis(d Diagnosis) {
	e.diagMu.Lock()
	e.diagnoses = append(e.diagnoses, d)
	e.diagMu.Unlock()
}

// Diagnoses returns a copy of the persistent-fault localization log, in
// classification order. Safe to call while traffic is in flight.
func (e *Engine) Diagnoses() []Diagnosis {
	e.diagMu.Lock()
	defer e.diagMu.Unlock()
	return append([]Diagnosis(nil), e.diagnoses...)
}

// normalizedSupervisor validates and defaults a supervisor policy. A copy
// is returned so defaulting never mutates the caller's struct.
func normalizedSupervisor(im *Implementation, opts *SupervisorOptions) (*SupervisorOptions, error) {
	if opts == nil {
		return nil, nil
	}
	s := *opts
	if s.Check == CheckInverse && im.Core.Config.Variant != rijndael.Both {
		return nil, fmt.Errorf("rijndaelip: inverse check needs the combined variant, core is %v", im.Core.Config.Variant)
	}
	if s.RetryBudget <= 0 {
		s.RetryBudget = 2
	}
	if s.MaxRespawnFailures <= 0 {
		s.MaxRespawnFailures = 3
	}
	if s.TransientBudget <= 0 {
		s.TransientBudget = 3
	}
	if s.TransientWindow <= 0 {
		s.TransientWindow = 64
	}
	return &s, nil
}

// newShard builds shard id's hardware, once: a keyed device of the
// implementation's mapped netlist, like the fault campaigns'. A supervised
// shard adds the latency assertion and, under CheckLockstep, the shadow
// twin, so the supervisor checks — and chaos harnesses strike — real
// mapped flip-flops. A respawn reconfigures this device in place.
func (e *Engine) newShard(id int) (*engineShard, error) {
	dev, err := faultcampaign.NewDevice(e.impl.Core, e.impl.Netlist.nl, e.sup != nil && e.sup.Check == CheckLockstep)
	if err != nil {
		return nil, err
	}
	dev.Driver.AssertLatency = e.sup != nil
	if e.opts.Watchdog > 0 {
		dev.Driver.Timeout = e.opts.Watchdog
	}
	if err := dev.Key(e.key); err != nil {
		return nil, err
	}
	s := &engineShard{id: id, dev: dev, q: make(chan *engineJob, e.opts.QueueDepth)}
	s.gen.Store(1)
	return s, nil
}

// runSupervised executes one job on a healthy supervised shard: arm the
// chaos hook, run the transaction under the watchdog and latency
// assertion, cross-check per the policy, and on a detection run the
// triage state machine instead of unconditionally quarantining:
//
//	detection
//	   ├─ uncorrectable/stuck ROM word known? ──────────────► PERSISTENT
//	   └─ restore state from shadow, retry once in place
//	         ├─ retry fails ─────────────────────────────────► PERSISTENT
//	         └─ retry succeeds (in-place recovery)
//	               ├─ error budget exhausted ── escalation ──► PERSISTENT
//	               └─ within budget ──────────────────────────► TRANSIENT
//
// A transient costs one extra transaction and a budget strike — no
// quarantine, no respawn. A persistent classification runs the targeted
// diagnosis pass (ROM sweep, then power-on self-test) to localize the
// fault, records a Diagnosis, and walks the recovery ladder
// (quarantine → hot-respawn → degrade) to its end before the job moves
// on. Detected faults are never surfaced to the caller either way —
// correct data comes from the retry, a sibling, or the software fallback.
func (e *Engine) runSupervised(s *engineShard, j *engineJob) {
	sub := s.submissions.Add(1)
	err := e.attempt(s, j, sub, true)
	if err == nil {
		e.deliver(s, j)
		return
	}
	s.detections.Add(1)
	e.emit(obs.Event{Kind: obs.KindDetection, Shard: s.id, Generation: s.gen.Load(),
		Submission: sub, Cause: detectCause(err), Detail: err.Error()})
	// Triage. Known memory damage short-circuits the retry: a stuck or
	// multi-bit ROM word cannot heal, so the failure is persistent by
	// construction.
	if rom, word, ok := shardROMDamage(s); ok {
		e.classifyPersistent(s, Diagnosis{
			Cause: CauseROM, ROM: rom, Word: word,
			Detail: "uncorrectable ROM word at detection",
		})
		e.requeue(s, j)
		return
	}
	// Retry once in place. Under lockstep the shadow replica holds the
	// fault-free trajectory, so the primary's sequential state (including
	// the persistent key-schedule registers) is restored from it first —
	// without this, corruption that outlives one transaction would turn
	// every deep upset into a respawn.
	if lock := s.dev.Lockstep; lock != nil {
		// Same-netlist replicas cannot mismatch; an error would only mean
		// no restoration, and the retry classifies either way.
		_ = s.dev.Primary.CopyStateFrom(s.dev.Shadow)
		lock.ClearMismatch()
	}
	if err := e.attempt(s, j, sub, false); err != nil {
		e.classifyPersistent(s, e.diagnose(s))
		e.requeue(s, j)
		return
	}
	s.inPlace.Add(1)
	e.emit(obs.Event{Kind: obs.KindInPlaceRecovery, Shard: s.id,
		Generation: s.gen.Load(), Submission: sub})
	if e.recordTransient(s, sub) {
		// Budget exhausted: the retry's data is good (deliver it), but a
		// shard needing this many in-place saves is persistently sick.
		e.emit(obs.Event{Kind: obs.KindEscalation, Shard: s.id,
			Generation: s.gen.Load(), Submission: sub, Cause: CauseErrorBudget})
		e.classifyPersistent(s, Diagnosis{
			Cause: CauseErrorBudget,
			Detail: fmt.Sprintf("more than %d transients within %d submissions",
				e.sup.TransientBudget, e.sup.TransientWindow),
		})
		// After classifyPersistent so a Stats snapshot can never show
		// Escalations > Persistents (see the load-order contract there),
		// and before deliver so a caller whose call just returned sees
		// the escalation counted.
		e.escalations.Add(1)
		e.deliver(s, j)
		return
	}
	s.transients.Add(1)
	e.emit(obs.Event{Kind: obs.KindTransient, Shard: s.id,
		Generation: s.gen.Load(), Submission: sub})
	e.deliver(s, j)
}

// detectCause maps a detection error to its machine-matchable trace
// cause: the four armed checkers each have a sentinel, anything else is a
// generic simulation error.
func detectCause(err error) string {
	switch {
	case errors.Is(err, bfm.ErrTimeout):
		return "timeout"
	case errors.Is(err, bfm.ErrLatency):
		return "latency"
	case errors.Is(err, ErrShardDivergence):
		return "divergence"
	case errors.Is(err, ErrInverseMismatch):
		return "inverse"
	}
	return "error"
}

// attempt runs one transaction of job j on shard s (see transact) and
// applies the armed checks. The inverse check's round trip runs on the
// shard's second record, s.inv, so s.tx.Outs still holds the forward
// results that deliver copies home.
func (e *Engine) attempt(s *engineShard, j *engineJob, sub uint64, first bool) error {
	err := e.transact(s, j, sub, first)
	if lock := s.dev.Lockstep; err == nil && lock != nil {
		// Any diverged lane — used or not — means the primary's state is
		// corrupt (upsets persist in flip-flops), so the whole shard is
		// suspect, not just the lanes this job rode.
		if mask := lock.MismatchMask(); mask != 0 {
			err = fmt.Errorf("%w: shard %d lanes %#x", ErrShardDivergence, s.id, mask)
		}
	}
	if err == nil && e.sup.Check == CheckInverse {
		err = s.dev.Driver.Transact(&s.inv, s.tx.Outs, !j.encrypt)
		s.cycles.Add(uint64(s.inv.Cycles) + 1)
		if err == nil {
			err = s.dev.Driver.Verdict(&s.inv)
		}
		if err == nil {
			for i, b := range s.inv.Outs {
				if !bytes.Equal(b, j.src[i*16:i*16+16]) {
					err = fmt.Errorf("%w: shard %d lane %d", ErrInverseMismatch, s.id, i)
					break
				}
			}
		}
	}
	return err
}

// deliver writes a successful submission's results (s.tx.Outs) home and
// completes its share of the batch. A healthy supervised shard scrubs its
// ROM stores first, so damage the job left behind is localized, and the
// shard respawned or dead, before the caller can return. The results it
// then copies passed every armed check, and the respawn leaves s.tx alone.
func (e *Engine) deliver(s *engineShard, j *engineJob) {
	if e.sup != nil && s.state.Load() == shardHealthy {
		if d, ok := e.scrub(s); ok {
			e.classifyPersistent(s, d)
		}
	}
	s.observe(j)
	s.blocks.Add(uint64(j.n))
	s.wasted.Add(uint64(e.opts.MaxLanes - j.n))
	for i, out := range s.tx.Outs {
		copy(j.dst[i*16:i*16+16], out)
	}
	j.batch.complete(nil)
}

// shardROMDamage reports the first currently-uncorrectable ROM word of
// the shard's primary simulation, if any — the cheap health probe triage
// uses before deciding whether an in-place retry can possibly help. Words
// the code can still correct are deliberately excluded: a correctable SEU
// is masked on every read (it cannot have caused the detection) and the
// delivery scrub will rewrite it, so it must not veto the retry.
func shardROMDamage(s *engineShard) (rom string, word int, ok bool) {
	for _, store := range s.dev.Primary.ROMStores() {
		for _, bad := range store.BadWords() {
			if bad.Status == edac.Uncorrectable {
				return store.Name(), bad.Word, true
			}
		}
	}
	return "", 0, false
}

// recordTransient logs one transient classification against the shard's
// sliding-window error budget and reports whether the budget is now
// exhausted (the caller escalates). Called only by the shard's worker;
// the log is reset on respawn — the budget belongs to one hardware
// incarnation.
func (e *Engine) recordTransient(s *engineShard, sub uint64) bool {
	log := append(s.transientLog, sub)
	lo := 0
	for lo < len(log) && log[lo]+uint64(e.sup.TransientWindow) <= sub {
		lo++
	}
	s.transientLog = log[lo:]
	return len(s.transientLog) > e.sup.TransientBudget
}

// classifyPersistent records a persistent-fault classification: counters,
// the localization record, and the quarantine, which runs the recovery
// ladder to its end. The caller supplies the diagnosis (known ROM damage,
// an escalation verdict, a scrub find, or the result of diagnose).
func (e *Engine) classifyPersistent(s *engineShard, d Diagnosis) {
	s.persistents.Add(1)
	d.Shard = s.id
	d.Generation = s.gen.Load()
	e.recordDiagnosis(d)
	e.emit(obs.Event{Kind: obs.KindPersistent, Shard: s.id,
		Generation: d.Generation, Cause: d.Cause, Detail: d.Detail})
	e.quarantine(s)
}

// diagnose localizes a persistent fault after a failed in-place retry:
// first the ROM scrub (damage the read path has not touched yet still
// shows up in the stores' faulty-word lists), then the power-on self-test
// on the live driver to implicate the flip-flop region.
func (e *Engine) diagnose(s *engineShard) Diagnosis {
	if d, ok := e.scrub(s); ok {
		return d
	}
	if err := e.selfTest(s.dev.Driver); err != nil {
		return Diagnosis{Cause: CauseFF, Detail: "POST failed: " + err.Error()}
	}
	return Diagnosis{Cause: CauseFF, Detail: "POST passed after failed retry; intermittent state corruption"}
}

// scrub repairs the primary simulation's damaged ROM words. It runs on
// the shard's worker before every supervised delivery (and inside
// diagnose): every fault source reaches a store on the worker — in the
// Strike hook or during a transaction — so the sweep that ends the job
// sees all of it. A store whose token's low bit is clear holds no faulty
// word and is skipped without taking its lock; only the words a store
// lists as bad are visited. A correctable error is rewritten in place
// (counted and traced as a scrub correction); a word that stays bad after
// the rewrite — a stuck bit or multi-bit damage — is persistent memory
// damage, and scrub returns its ROM-localized diagnosis. This is what catches
// EDAC-masked faults: a single stuck ROM bit is corrected on every read,
// so no output check will ever fire for it.
func (e *Engine) scrub(s *engineShard) (Diagnosis, bool) {
	for _, store := range s.dev.Primary.ROMStores() {
		if store.Token()&1 == 0 {
			continue
		}
		for _, bad := range store.BadWords() {
			switch res := store.Scrub(bad.Word); res {
			case edac.ScrubRepaired:
				s.scrubCorrected.Add(1)
				e.emit(obs.Event{Kind: obs.KindScrubCorrect, Shard: s.id, Generation: s.gen.Load(),
					Cause: CauseROM, Detail: fmt.Sprintf("rom %s word 0x%02x rewritten", store.Name(), bad.Word)})
			case edac.ScrubHard, edac.ScrubUncorrectable:
				s.scrubUncorrectable.Add(1)
				detail := "scrub: stuck bit re-asserted after rewrite"
				if res == edac.ScrubUncorrectable {
					detail = "scrub: multi-bit damage beyond SECDED"
				}
				return Diagnosis{Cause: CauseROM, ROM: store.Name(), Word: bad.Word, Detail: detail}, true
			}
		}
	}
	return Diagnosis{}, false
}

// quarantine takes a shard out of rotation after a persistent
// classification and respawns it at once. Only the shard's own worker
// classifies, so the state change needs no arbitration. Submitters and
// siblings pass the shard by while it is quarantined; a job that reached
// its queue before that waits for the respawn's verdict (see run).
func (e *Engine) quarantine(s *engineShard) {
	s.state.Store(shardQuarantined)
	s.quarantines.Add(1)
	e.emit(obs.Event{Kind: obs.KindQuarantine, Shard: s.id, Generation: s.gen.Load()})
	e.respawn(s)
}

// requeue sends a detected-bad job back through the pool within its retry
// budget; past the budget its blocks are served by the software reference
// (correct data beats hardware pride). s is the shard that detected the
// failure; it only names the trace event's origin. Its quarantine has
// already run, so the job may go to any healthy shard, s's fresh
// incarnation included.
func (e *Engine) requeue(s *engineShard, j *engineJob) {
	if j.attempt >= e.sup.RetryBudget {
		e.fallback(j)
		return
	}
	j.attempt++
	e.retries.Add(1)
	e.emit(obs.Event{Kind: obs.KindRetry, Shard: s.id, Generation: s.gen.Load(),
		Attempt: j.attempt})
	e.redistribute(j)
}

// redistribute hands a job to any healthy sibling without blocking; if
// every healthy queue is full — or no shard is healthy at all — the job
// is served by the software reference instead. The non-blocking sends are
// what make the recovery path deadlock-free: a worker redistributing jobs
// can never park on a sibling that is itself trying to redistribute.
func (e *Engine) redistribute(j *engineJob) {
	start := int(e.rr.Add(1) - 1)
	n := len(e.shards)
	for off := 0; off < n; off++ {
		t := e.shards[(start+off)%n]
		if t.state.Load() != shardHealthy {
			continue
		}
		select {
		case t.q <- j:
			e.poke()
			return
		default:
		}
	}
	e.fallback(j)
}

// fallback serves one job from the software reference cipher — the
// engine-level graceful degradation. Callers see correct data and a
// completed batch; the FallbackBlocks counter records that the hardware
// pool did not produce it.
func (e *Engine) fallback(j *engineJob) {
	for i := 0; i < j.n; i++ {
		src := j.src[i*16 : i*16+16]
		dst := j.dst[i*16 : i*16+16]
		if j.encrypt {
			e.soft.Encrypt(dst, src)
		} else {
			e.soft.Decrypt(dst, src)
		}
	}
	e.fallbackBlocks.Add(uint64(j.n))
	e.emit(obs.Event{Kind: obs.KindFallback, Shard: -1, Attempt: j.attempt,
		Detail: fmt.Sprintf("%d blocks served by software reference", j.n)})
	j.batch.complete(nil)
}

// respawn reconfigures a quarantined shard on its own worker: up to
// MaxRespawnFailures attempts back to back, each gated by a power-on
// self-test, after which the shard is healthy with a bumped generation or
// the permanent-defect circuit breaker has declared it dead. Nothing waits
// between attempts: a reconfiguration is deterministic, so only the
// RespawnHook can fail one, and waiting would not change its verdict.
func (e *Engine) respawn(s *engineShard) {
	for attempt := 1; attempt <= e.sup.MaxRespawnFailures; attempt++ {
		err := e.respawnShard(s, attempt)
		if err == nil {
			gen := s.gen.Add(1)
			s.respawns.Add(1)
			s.state.Store(shardHealthy)
			e.emit(obs.Event{Kind: obs.KindRespawn, Shard: s.id, Generation: gen,
				Attempt: attempt})
			return
		}
		s.respawnFailures.Add(1)
		e.emit(obs.Event{Kind: obs.KindRespawnFailure, Shard: s.id,
			Generation: s.gen.Load(), Attempt: attempt, Detail: err.Error()})
	}
	s.state.Store(shardDead)
	e.emit(obs.Event{Kind: obs.KindShardDead, Shard: s.id, Generation: s.gen.Load(),
		Attempt: e.sup.MaxRespawnFailures, Detail: "respawn circuit breaker tripped"})
}

// respawnShard reconfigures the shard's device in place
// (Device.Reconfigure: clear every installed fault, reset, re-key) and
// runs the power-on self-test. The EDAC stores stay the same and keep
// their read counters, so Stats' lifetime totals carry across
// generations. Respawning resets the transient error budget — it belongs
// to the previous hardware incarnation.
func (e *Engine) respawnShard(s *engineShard, attempt int) error {
	if e.sup.RespawnHook != nil {
		if err := e.sup.RespawnHook(s.id, attempt); err != nil {
			return err
		}
	}
	if err := s.dev.Reconfigure(e.key); err != nil {
		return err
	}
	if err := e.selfTest(s.dev.Driver); err != nil {
		return err
	}
	s.transientLog = nil
	return nil
}

// selfTest runs one known-answer transaction through a freshly keyed
// driver and verifies it against the software reference — the power-on
// self-test a respawned shard must pass before rejoining the pool.
func (e *Engine) selfTest(drv *bfm.Driver) error {
	pt := []byte("rijndaelip-post!")
	encrypt := e.impl.Core.Config.Variant != rijndael.Decrypt
	outs, _, err := drv.ProcessVector([][]byte{pt}, encrypt)
	if err != nil {
		return fmt.Errorf("rijndaelip: respawn self-test: %w", err)
	}
	want := make([]byte, 16)
	if encrypt {
		e.soft.Encrypt(want, pt)
	} else {
		e.soft.Decrypt(want, pt)
	}
	if !bytes.Equal(outs[0], want) {
		return fmt.Errorf("rijndaelip: respawn self-test: got %x, want %x", outs[0], want)
	}
	return nil
}
