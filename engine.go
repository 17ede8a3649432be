package rijndaelip

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rijndaelip/internal/aes"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/faultcampaign"
	"rijndaelip/internal/modes"
	"rijndaelip/internal/obs"
)

// Engine is a sharded hardware throughput pool: N independent
// cycle-accurate simulations of the same generated IP core, each behind
// its own bus-functional driver keyed once at construction, fed by a
// work-stealing block scheduler. The paper's decoupled Data-In / Rijndael
// / Data-Out processes let one core sustain back-to-back blocks; the
// engine scales past a single core the way a board full of the paper's
// low-occupation IPs would — by replicating the device and fanning
// independent blocks across the replicas.
//
// Scheduling model: Process packs up to MaxLanes consecutive blocks into
// one lane-parallel submission (the simulators carry 64 independent lanes
// per sweep, so a packed submission costs the same simulated cycles as a
// single block — see internal/logic/lanes.go), round-robins submissions
// onto bounded per-shard queues (a full queue blocks the submitter — that
// is the backpressure boundary), each shard drains its own queue first,
// and an idle shard steals queued submissions from its siblings so a
// transient imbalance never leaves a replica dark. Output ordering always
// matches input ordering: results are written to their submission slot,
// not to a completion-order stream. Lanes and shards compound: 8 shards ×
// 64 lanes keep 512 blocks in flight.
//
// Which modes parallelize: ECB and the CTR keystream are embarrassingly
// parallel, and CBC and CFB decryption are too (every plaintext block is
// D(C_i) XOR C_{i-1}, or C_i XOR E(C_{i-1}), with both operands known up
// front). CBC and CFB encryption chain each input on the previous output,
// so they fall back to sequential block-at-a-time streaming through the
// pool.
type Engine struct {
	impl   *Implementation
	opts   EngineOptions
	key    []byte
	shards []*engineShard

	// sup is the normalized supervision policy, nil for a plain engine.
	// soft is the software reference cipher the supervised recovery ladder
	// falls back to (built only when supervision is armed).
	sup  *SupervisorOptions
	soft *aes.Cipher

	// wake is poked (non-blocking) on every submission so parked shards
	// re-run their steal scan instead of waiting on their own queue alone.
	wake   chan struct{}
	closed chan struct{}

	// mu guards the closed flag against racing submissions: Close takes
	// the write side after which no submit can enqueue, so draining the
	// queues at shutdown cannot strand a job.
	mu       sync.RWMutex
	isClosed bool
	wg       sync.WaitGroup
	rr       atomic.Uint64

	// Engine-level supervision counters (see EngineStats). Only counters
	// with no per-shard twin live here: everything that can be attributed
	// to a shard is counted on the shard and summed by Stats in one pass,
	// so a snapshot cannot tear between an aggregate and its parts.
	retries        atomic.Uint64
	fallbackBlocks atomic.Uint64
	escalations    atomic.Uint64

	// reg and ring are the observability surface: a metrics registry
	// (counters/gauges/latency histograms over the pool) and the bounded
	// event-trace ring recording every supervision/triage transition.
	// Both nil when EngineOptions.DisableObs.
	reg  *obs.Registry
	ring *obs.Ring

	// diagnoses is the persistent-fault localization log (see Diagnoses).
	diagMu    sync.Mutex
	diagnoses []Diagnosis
}

// EngineOptions tunes the shard pool.
type EngineOptions struct {
	// Shards is the number of replicated core instances. Default 1.
	Shards int
	// QueueDepth bounds each shard's queue; a submitter that finds every
	// slot of the chosen queue full blocks until the pool catches up
	// (backpressure) or its context is cancelled. Default 2.
	QueueDepth int
	// MaxLanes caps how many blocks one submission packs into the
	// simulator's 64 parallel lanes. Default (0) and any value above
	// bfm.Lanes mean full packing (64); 1 forces scalar one-block
	// submissions, which scheduler-behavior tests use to keep per-block
	// queueing observable.
	MaxLanes int
	// Jitter, when set, is invoked before each block is processed with the
	// executing shard and the block's submission index. Tests use it to
	// inject per-shard latency skew and prove result ordering survives
	// out-of-order completion. Leave nil in production.
	Jitter func(shard, index int)
	// Watchdog overrides every shard driver's cycle budget for hung
	// transactions (0 keeps bfm.Driver.Timeout's default,
	// 4×(BlockLatency+KeySetupCycles+2)).
	Watchdog int
	// Supervise arms the per-shard supervision layer (detect → re-queue →
	// quarantine → hot-respawn → degrade); see SupervisorOptions. Every
	// shard, supervised or not, simulates the technology-mapped netlist;
	// supervision adds the checks, so fault campaigns and chaos harnesses
	// strike real flip-flops of live shards.
	Supervise *SupervisorOptions
	// DisableObs turns off the metrics registry and event-trace ring.
	// The default (observability on) costs only atomic increments and two
	// clock reads per submission; BenchmarkObsOverhead reports it against
	// a 5% budget. Disable only for A/B overhead measurements.
	DisableObs bool
}

// ErrEngineClosed is returned for blocks submitted after Close.
var ErrEngineClosed = errors.New("rijndaelip: engine closed")

type engineShard struct {
	id int

	// state is the supervision lifecycle (healthy / quarantined / dead);
	// unsupervised engines keep every shard healthy forever. Only the
	// shard's worker changes it; the shard is quarantined only while that
	// worker respawns it. dev is the shard's hardware (a lockstep
	// pair under CheckLockstep): built once by newShard in NewEngine,
	// before the worker starts, and driven only by the worker, which
	// reconfigures it in place on a respawn (Device.Reconfigure). Stats
	// may therefore read the primary's EDAC stores from any goroutine.
	state atomic.Int32
	gen   atomic.Uint64
	dev   *faultcampaign.Device

	// rows and tx are the buffers of the shard's transactions: rows[i]
	// points lane i at its input block for the length of one transaction,
	// and tx records it (deliver copies the results out of tx.Outs). inv
	// records CheckInverse's round trip, which reads tx.Outs as its input,
	// so it needs a record of its own. Touched only by the worker, they
	// make a transaction allocation-free.
	rows [bfm.Lanes][]byte
	tx   bfm.Transaction
	inv  bfm.Transaction

	// transientLog holds the submission ordinals of this incarnation's
	// transient classifications (the sliding-window error budget). Touched
	// only by the worker; reset by respawn.
	transientLog []uint64

	// lat is the submit→complete wall-clock latency histogram of jobs this
	// shard delivered (nil when observability is disabled).
	lat *obs.Histogram

	q           chan *engineJob
	blocks      atomic.Uint64
	cycles      atomic.Uint64
	stolen      atomic.Uint64
	submissions atomic.Uint64
	wasted      atomic.Uint64
	detections  atomic.Uint64
	quarantines atomic.Uint64
	respawns    atomic.Uint64
	// respawnFailures is this shard's share of
	// EngineStats.RespawnFailures.
	respawnFailures atomic.Uint64

	// Triage and scrub counters (per-shard shares of the engine totals).
	transients         atomic.Uint64
	persistents        atomic.Uint64
	inPlace            atomic.Uint64
	scrubCorrected     atomic.Uint64
	scrubUncorrectable atomic.Uint64
}

// romReadStats returns the shard's lifetime EDAC read counters. A respawn
// keeps the stores and edac.ROM.ClearFaults leaves their counters alone,
// so the live stores' counts are the lifetime totals.
func (s *engineShard) romReadStats() (corrected, uncorrectable uint64) {
	for _, r := range s.dev.Primary.ROMStores() {
		st := r.Stats()
		corrected += st.CorrectedReads
		uncorrectable += st.UncorrectableReads
	}
	return corrected, uncorrectable
}

// engineJob is one lane-packed submission: n consecutive 16-byte blocks
// (n in [1, MaxLanes]) that ride one protocol transaction, block i on
// lane i. attempt counts supervised re-queues after detections; it is
// only touched by the worker currently executing the job (handoffs ride
// the shard queues, which order the accesses).
type engineJob struct {
	index   int
	n       int
	src     []byte
	dst     []byte
	encrypt bool
	batch   *engineBatch
	attempt int
	// start is the submission instant (UnixNano) feeding the per-shard
	// submit→complete latency histogram; 0 when observability is off.
	start int64
}

// observe records the job's submit→complete latency on the delivering
// shard's histogram. Called on the worker goroutine at completion.
func (s *engineShard) observe(j *engineJob) {
	if s.lat != nil && j.start != 0 {
		s.lat.Observe(time.Duration(time.Now().UnixNano() - j.start))
	}
}

// engineBatch tracks one Process call's fan-out: the submitter adds each
// job to wg before submitting it, and every job calls complete exactly
// once, successfully or not. The first error wins. A one-job call's job
// lives in one, so the call allocates the batch and nothing else.
type engineBatch struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
	one [1]engineJob
}

func (b *engineBatch) complete(err error) {
	if err != nil {
		b.mu.Lock()
		if b.err == nil {
			b.err = err
		}
		b.mu.Unlock()
	}
	b.wg.Done()
}

// NewEngine builds opts.Shards independent keyed simulations of the
// implementation's mapped netlist (each paying the key-setup walk once)
// and starts one scheduler worker per shard. Close releases the workers.
// The key must be the core's key length; the first shard's key load
// rejects any other.
func (im *Implementation) NewEngine(key []byte, opts EngineOptions) (*Engine, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 2
	}
	if opts.MaxLanes <= 0 || opts.MaxLanes > bfm.Lanes {
		opts.MaxLanes = bfm.Lanes
	}
	sup, err := normalizedSupervisor(im, opts.Supervise)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		impl:   im,
		opts:   opts,
		key:    append([]byte(nil), key...),
		sup:    sup,
		wake:   make(chan struct{}, opts.Shards),
		closed: make(chan struct{}),
	}
	if !opts.DisableObs {
		e.reg = obs.NewRegistry()
		e.ring = obs.NewRing(0)
	}
	if sup != nil {
		soft, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		e.soft = soft
	}
	for i := 0; i < opts.Shards; i++ {
		s, err := e.newShard(i)
		if err != nil {
			return nil, fmt.Errorf("rijndaelip: engine shard %d: %w", i, err)
		}
		e.shards = append(e.shards, s)
	}
	e.registerMetrics()
	for _, s := range e.shards {
		e.wg.Add(1)
		go e.worker(s)
	}
	return e, nil
}

// registerMetrics publishes the pool's counters, gauges and latency
// histograms on the engine registry. Everything except the histograms is
// func-backed over the atomics the engine already maintains, so scrapes
// read live values and the hot path pays nothing beyond its existing
// atomic increments.
func (e *Engine) registerMetrics() {
	if e.reg == nil {
		return
	}
	for _, s := range e.shards {
		s := s
		l := []string{"shard", strconv.Itoa(s.id)}
		s.lat = e.reg.Histogram("aesip_engine_submit_latency_ns", l...)
		e.reg.CounterFunc("aesip_engine_blocks_total", s.blocks.Load, l...)
		e.reg.CounterFunc("aesip_engine_cycles_total", s.cycles.Load, l...)
		e.reg.CounterFunc("aesip_engine_submissions_total", s.submissions.Load, l...)
		e.reg.CounterFunc("aesip_engine_steals_total", s.stolen.Load, l...)
		e.reg.CounterFunc("aesip_engine_detections_total", s.detections.Load, l...)
		e.reg.CounterFunc("aesip_engine_quarantines_total", s.quarantines.Load, l...)
		e.reg.CounterFunc("aesip_engine_respawns_total", s.respawns.Load, l...)
		e.reg.CounterFunc("aesip_engine_transients_total", s.transients.Load, l...)
		e.reg.CounterFunc("aesip_engine_persistents_total", s.persistents.Load, l...)
		e.reg.CounterFunc("aesip_engine_scrub_corrected_total", s.scrubCorrected.Load, l...)
		e.reg.CounterFunc("aesip_engine_scrub_uncorrectable_total", s.scrubUncorrectable.Load, l...)
		e.reg.GaugeFunc("aesip_engine_queue_depth", func() float64 { return float64(len(s.q)) }, l...)
		e.reg.GaugeFunc("aesip_engine_shard_health", func() float64 { return float64(s.state.Load()) }, l...)
		e.reg.GaugeFunc("aesip_engine_shard_generation", func() float64 { return float64(s.gen.Load()) }, l...)
	}
	e.reg.CounterFunc("aesip_engine_retries_total", e.retries.Load)
	e.reg.CounterFunc("aesip_engine_escalations_total", e.escalations.Load)
	e.reg.CounterFunc("aesip_engine_respawn_failures_total", func() uint64 {
		var n uint64
		for _, s := range e.shards {
			n += s.respawnFailures.Load()
		}
		return n
	})
	e.reg.CounterFunc("aesip_engine_fallback_blocks_total", e.fallbackBlocks.Load)
	e.reg.GaugeFunc("aesip_engine_healthy_shards", func() float64 {
		n := 0
		for _, s := range e.shards {
			if s.state.Load() == shardHealthy {
				n++
			}
		}
		return float64(n)
	})
}

// Metrics returns the engine's metrics registry, for exposition via
// obs.Handler/obs.Serve or direct snapshots. Nil when
// EngineOptions.DisableObs was set.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Trace returns the engine's bounded event-trace ring: every
// supervision/triage transition (detection, retry, classification,
// quarantine, respawn, scrub correction, fallback) in emission order.
// Nil when EngineOptions.DisableObs was set.
func (e *Engine) Trace() *obs.Ring { return e.ring }

// emit records one trace event if the ring is armed.
func (e *Engine) emit(ev obs.Event) {
	if e.ring != nil {
		e.ring.Emit(ev)
	}
}

// Close stops the shard workers and waits for them to exit. Outstanding
// Process calls complete (already-queued blocks are failed with
// ErrEngineClosed rather than stranded); new submissions are rejected.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.isClosed {
		e.mu.Unlock()
		return
	}
	e.isClosed = true
	close(e.closed)
	e.mu.Unlock()
	e.wg.Wait()
}

// submit places one job on a healthy shard's queue, blocking for
// backpressure. The read lock is held across the send so Close cannot
// declare the engine closed while a job is in flight toward a queue. When
// every shard is quarantined or dead it returns errNoHealthyShard so the
// submitter can degrade to the software reference instead of stalling. (A
// shard that is quarantined after we picked it is harmless: its worker runs
// queue arrivals after the respawn, or redistributes them if the shard
// died.)
func (e *Engine) submit(ctx context.Context, j *engineJob) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.isClosed {
		return ErrEngineClosed
	}
	start := int(e.rr.Add(1) - 1)
	var s *engineShard
	for off := 0; off < len(e.shards); off++ {
		if c := e.shards[(start+off)%len(e.shards)]; c.state.Load() == shardHealthy {
			s = c
			break
		}
	}
	if s == nil {
		return errNoHealthyShard
	}
	select {
	case s.q <- j:
		e.poke()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) poke() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// worker is the one goroutine that owns shard s: it runs the shard's
// transactions, scrubs its ROM stores before each supervised delivery, and
// respawns it inside the job whose fault quarantined it, so between jobs
// the shard is healthy or dead.
func (e *Engine) worker(s *engineShard) {
	defer e.wg.Done()
	for {
		if s.state.Load() == shardHealthy {
			// Fast path: the shard's own queue.
			select {
			case j := <-s.q:
				e.run(s, j)
				continue
			default:
			}
			// Idle: steal from a sibling before parking.
			if e.trySteal(s) {
				continue
			}
		}
		select {
		case j := <-s.q:
			// run redistributes the job if this shard is dead, so a
			// submission that raced onto its queue can never stall or
			// touch sick hardware.
			e.run(s, j)
		case <-e.wake:
			// A submission landed somewhere; rescan.
		case <-e.closed:
			e.drain(s)
			return
		}
	}
}

// trySteal claims one queued block from a sibling shard. Only surplus
// work is stolen — a victim queue holding a single block keeps it for its
// owner. Stealing the last block from a momentarily descheduled (but
// otherwise idle) owner would concentrate the workload on whichever
// shards woke first and inflate the pool's makespan; the surplus rule
// keeps every replica lit while still draining genuine backlogs. (The
// length check races with other thieves, which is harmless: the worst
// case is stealing what just became the last block.)
func (e *Engine) trySteal(s *engineShard) bool {
	for off := 1; off < len(e.shards); off++ {
		victim := e.shards[(s.id+off)%len(e.shards)]
		if len(victim.q) < 2 {
			continue
		}
		select {
		case j := <-victim.q:
			s.stolen.Add(1)
			e.run(s, j)
			return true
		default:
		}
	}
	return false
}

// drain fails any block still queued at shutdown so its batch completes.
func (e *Engine) drain(s *engineShard) {
	for {
		select {
		case j := <-s.q:
			j.batch.complete(ErrEngineClosed)
		default:
			return
		}
	}
}

func (e *Engine) run(s *engineShard, j *engineJob) {
	if s.state.Load() != shardHealthy {
		// The job raced onto a dead shard's queue; hand it to a healthy
		// sibling instead of trusting sick hardware.
		e.redistribute(j)
		return
	}
	if e.sup != nil {
		e.runSupervised(s, j)
		return
	}
	if err := e.transact(s, j, s.submissions.Add(1), true); err != nil {
		// Identify the failing shard, preserving driver sentinels
		// (bfm.ErrTimeout, bfm.ErrLatency) for errors.Is through
		// Process/EngineBlock.
		j.batch.complete(fmt.Errorf("rijndaelip: engine shard %d: %w", s.id, err))
		return
	}
	e.deliver(s, j)
}

// transact runs job j, shard s's submission sub, as one lane-packed
// transaction on the shard's own buffers, block i on lane i, and returns
// the driver's verdict; the results are in s.tx.Outs. A first attempt
// calls the jitter hook and then the supervisor's chaos Strike hook; an
// in-place retry calls neither (it must be strike-free to be
// diagnostic). +1 accounts the
// wr_data load edge, which the driver steps before it starts counting
// completion-wait cycles; the cycle cost is per submission, not per block,
// since all j.n lanes share one transaction.
func (e *Engine) transact(s *engineShard, j *engineJob, sub uint64, first bool) error {
	if first && e.opts.Jitter != nil {
		e.opts.Jitter(s.id, j.index)
	}
	if first && e.sup != nil && e.sup.Strike != nil {
		e.sup.Strike(s.id, sub, s.dev.Primary)
	}
	rows := s.rows[:j.n]
	for i := range rows {
		rows[i] = j.src[i*16 : i*16+16]
	}
	err := s.dev.Driver.Transact(&s.tx, rows, j.encrypt)
	clear(rows) // keep no hold on the caller's input
	s.cycles.Add(uint64(s.tx.Cycles) + 1)
	if err != nil {
		return err
	}
	return s.dev.Driver.Verdict(&s.tx)
}

// process packs the concatenated 16-byte blocks of src into lane groups
// of up to MaxLanes, fans the groups across the shard pool, and writes
// each result into the matching offset of dst. It returns after every
// submitted group has completed; ctx cancels groups that are still
// waiting for queue space (in-flight transactions always finish — a bus
// transaction is bounded by the driver watchdog).
func (e *Engine) process(ctx context.Context, dst, src []byte, encrypt bool) error {
	if len(src)%16 != 0 || len(dst) < len(src) {
		return fmt.Errorf("rijndaelip: engine: need whole blocks and dst >= src, got src=%d dst=%d",
			len(src), len(dst))
	}
	n := len(src) / 16
	if n == 0 {
		return nil
	}
	lanes := e.opts.MaxLanes
	batch := new(engineBatch)
	jobs := batch.one[:]
	if n > lanes {
		jobs = make([]engineJob, (n+lanes-1)/lanes)
	}
	var submitErr error
	for i := range jobs {
		lo := i * lanes
		hi := min(lo+lanes, n)
		j := &jobs[i]
		*j = engineJob{
			index:   i,
			n:       hi - lo,
			src:     src[lo*16 : hi*16],
			dst:     dst[lo*16 : hi*16],
			encrypt: encrypt,
			batch:   batch,
		}
		if e.reg != nil {
			j.start = time.Now().UnixNano()
		}
		batch.wg.Add(1)
		if err := e.submit(ctx, j); err != nil {
			if e.sup != nil && errors.Is(err, errNoHealthyShard) {
				// Engine-wide degradation: every replica is quarantined or
				// dead, so this job is served by the software reference —
				// callers never see corrupted data or a stalled pipeline.
				e.fallback(j)
				continue
			}
			// This job and everything after it never ran.
			submitErr = err
			batch.wg.Done()
			break
		}
	}
	batch.wg.Wait()
	if submitErr != nil {
		return submitErr
	}
	batch.mu.Lock()
	defer batch.mu.Unlock()
	return batch.err
}

// Process runs independent 16-byte blocks through the pool, preserving
// order: result i is the transformation of blocks[i].
func (e *Engine) Process(ctx context.Context, blocks [][]byte, encrypt bool) ([][]byte, error) {
	src := make([]byte, 0, len(blocks)*16)
	for i, b := range blocks {
		if len(b) != 16 {
			return nil, fmt.Errorf("rijndaelip: engine: block %d is %d bytes, want 16", i, len(b))
		}
		src = append(src, b...)
	}
	dst := make([]byte, len(src))
	if err := e.process(ctx, dst, src, encrypt); err != nil {
		return nil, err
	}
	outs := make([][]byte, len(blocks))
	for i := range outs {
		outs[i] = dst[i*16 : i*16+16 : i*16+16]
	}
	return outs, nil
}

// EngineBlock adapts the shard pool to the modes.Block interface, so every
// protocol in internal/modes runs over the replicated hardware. It also
// implements modes.BatchBlock: the mode helpers hand independent-block
// work (ECB, the CTR keystream, CBC and CFB decryption) to the pool in one
// call, which is where the parallel speedup comes from; single-block calls
// still go through the scheduler, one shard busy at a time.
//
// Like HardwareBlock, protocol errors surface via Err (the Block
// interface has no error returns) and the affected output is zeroed.
// EngineBlock is safe for concurrent use.
type EngineBlock struct {
	e   *Engine
	ctx context.Context

	mu  sync.Mutex
	err error
}

// Block returns a modes.Block adapter over the pool with a background
// context.
func (e *Engine) Block() *EngineBlock { return e.BlockContext(context.Background()) }

// BlockContext returns a modes.Block adapter whose submissions are bounded
// by ctx.
func (e *Engine) BlockContext(ctx context.Context) *EngineBlock {
	return &EngineBlock{e: e, ctx: ctx}
}

// BlockSize returns 16.
func (b *EngineBlock) BlockSize() int { return 16 }

// Err returns the first engine error encountered through this adapter.
func (b *EngineBlock) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

func (b *EngineBlock) record(err error) error {
	if err != nil {
		b.mu.Lock()
		if b.err == nil {
			b.err = err
		}
		b.mu.Unlock()
	}
	return err
}

func (b *EngineBlock) one(dst, src []byte, encrypt bool) {
	if len(src) < 16 || len(dst) < 16 {
		b.record(fmt.Errorf("rijndaelip: engine block: need 16-byte src and dst, got src=%d dst=%d",
			len(src), len(dst)))
		zeroBlock(dst)
		return
	}
	if b.record(b.e.process(b.ctx, dst[:16], src[:16], encrypt)) != nil {
		zeroBlock(dst)
	}
}

// zeroBlock clears the first (up to) 16 bytes of dst: the output a
// block adapter leaves behind when it cannot produce a result.
func zeroBlock(dst []byte) {
	clear(dst[:min(len(dst), 16)])
}

// Encrypt runs one block through the pool in the encrypt direction.
func (b *EngineBlock) Encrypt(dst, src []byte) { b.one(dst, src, true) }

// Decrypt runs one block through the pool in the decrypt direction.
func (b *EngineBlock) Decrypt(dst, src []byte) { b.one(dst, src, false) }

// EncryptBlocks fans the concatenated independent blocks of src across
// the shard pool (modes.BatchBlock).
func (b *EngineBlock) EncryptBlocks(dst, src []byte) error {
	return b.record(b.e.process(b.ctx, dst, src, true))
}

// DecryptBlocks is the decrypt-direction counterpart of EncryptBlocks.
func (b *EngineBlock) DecryptBlocks(dst, src []byte) error {
	return b.record(b.e.process(b.ctx, dst, src, false))
}

// blockErr folds an EngineBlock's recorded error into a mode result.
func blockErr(out []byte, err error, blk *EngineBlock) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if blkErr := blk.Err(); blkErr != nil {
		return nil, blkErr
	}
	return out, nil
}

// CTR XORs src (any length) with the counter-mode keystream derived from
// the 16-byte iv. The keystream blocks are independent, so they fan out
// across all shards — the engine's headline parallel mode.
func (e *Engine) CTR(ctx context.Context, iv, src []byte) ([]byte, error) {
	blk := e.BlockContext(ctx)
	out, err := modes.CTRStream(blk, iv, src)
	return blockErr(out, err, blk)
}

// EncryptECB encrypts whole independent blocks across the pool.
func (e *Engine) EncryptECB(ctx context.Context, src []byte) ([]byte, error) {
	blk := e.BlockContext(ctx)
	out, err := modes.EncryptECB(blk, src)
	return blockErr(out, err, blk)
}

// DecryptECB decrypts whole independent blocks across the pool.
func (e *Engine) DecryptECB(ctx context.Context, src []byte) ([]byte, error) {
	blk := e.BlockContext(ctx)
	out, err := modes.DecryptECB(blk, src)
	return blockErr(out, err, blk)
}

// EncryptCBC chains each block on the previous ciphertext, so it cannot
// fan out: it streams sequentially through the pool (single shard busy at
// a time). Use CTR when throughput matters.
func (e *Engine) EncryptCBC(ctx context.Context, iv, src []byte) ([]byte, error) {
	blk := e.BlockContext(ctx)
	out, err := modes.EncryptCBC(blk, iv, src)
	return blockErr(out, err, blk)
}

// DecryptCBC decrypts CBC ciphertext with the block decrypts fanned out
// across the pool (CBC decryption is order-independent).
func (e *Engine) DecryptCBC(ctx context.Context, iv, src []byte) ([]byte, error) {
	blk := e.BlockContext(ctx)
	out, err := modes.DecryptCBC(blk, iv, src)
	return blockErr(out, err, blk)
}

// EncryptCFB chains like CBC encryption and therefore streams
// sequentially through the pool.
func (e *Engine) EncryptCFB(ctx context.Context, iv, src []byte) ([]byte, error) {
	blk := e.BlockContext(ctx)
	out, err := modes.EncryptCFB(blk, iv, src)
	return blockErr(out, err, blk)
}

// DecryptCFB inverts EncryptCFB. Every keystream input is known up front
// (the IV, then each full ciphertext block but the last), so the keystream
// fans out across the pool in one call, as in DecryptCBC.
func (e *Engine) DecryptCFB(ctx context.Context, iv, src []byte) ([]byte, error) {
	blk := e.BlockContext(ctx)
	out, err := modes.DecryptCFB(blk, iv, src)
	return blockErr(out, err, blk)
}

// ShardStats is one replica's share of the work.
type ShardStats struct {
	Shard int
	// Blocks is how many transactions this shard completed successfully.
	Blocks uint64
	// Cycles is the simulated clock cycles this shard's device spent,
	// including the load edge of every transaction.
	Cycles uint64
	// CyclesPerBlock is Cycles / Blocks.
	CyclesPerBlock float64
	// Stolen counts submissions this shard claimed from a sibling's queue.
	Stolen uint64
	// QueueDepth is the queue occupancy at snapshot time.
	QueueDepth int
	// Submissions is how many lane-packed transactions this shard ran
	// (each carrying 1..MaxLanes blocks; under supervision, detected-bad
	// attempts count too).
	Submissions uint64
	// WastedLanes sums, over successful submissions, the lanes left idle
	// because fewer than MaxLanes blocks were available to pack.
	WastedLanes uint64
	// Health is the shard's supervision state at snapshot time:
	// "healthy", "quarantined" or "dead". Always "healthy" on an
	// unsupervised engine.
	Health string
	// Generation counts the shard's hardware incarnations: 1 at
	// construction, +1 per successful hot-respawn, which reconfigures the
	// same simulators in place.
	Generation uint64
	// Detections, Quarantines and Respawns are this shard's share of the
	// supervision counters.
	Detections  uint64
	Quarantines uint64
	Respawns    uint64
	// Triage classification shares: Transients (detections recovered in
	// place, within budget), Persistents (classifications that
	// quarantined this shard, escalations included), InPlaceRecoveries
	// (successful strike-free retries, whether or not the budget then
	// escalated).
	Transients        uint64
	Persistents       uint64
	InPlaceRecoveries uint64
	// Scrub and EDAC shares: words repaired / found hard by this shard's
	// scrubs, and EDAC read-path correction events across all of the
	// shard's generations.
	ScrubCorrected        uint64
	ScrubUncorrectable    uint64
	ROMCorrectedReads     uint64
	ROMUncorrectableReads uint64
}

// EngineStats aggregates the pool.
type EngineStats struct {
	Shards []ShardStats
	// Blocks is the total completed across all shards.
	Blocks uint64
	// MaxShardCycles is the busiest shard's simulated cycle count — the
	// makespan: the replicas run concurrently in hardware, so the wall
	// clock of the whole pool is the slowest replica, not the sum.
	MaxShardCycles uint64
	// AggregateCyclesPerBlock is MaxShardCycles / Blocks: the effective
	// per-block cost of the pool. With N evenly loaded shards it
	// approaches (single-core cycles per block) / N, and lane packing
	// divides it further by the average blocks per submission.
	AggregateCyclesPerBlock float64
	// Submissions is the total lane-packed transactions across all shards.
	Submissions uint64
	// WastedLanes is the total idle lanes across successful submissions.
	WastedLanes uint64
	// LaneOccupancy is Blocks / (Blocks + WastedLanes): the fraction of
	// configured lane capacity that carried real blocks. 1.0 means every
	// submission was fully packed.
	LaneOccupancy float64

	// Supervision counters (all zero on an unsupervised engine).
	//
	// Detections counts checker hits across all shards (watchdog expiry,
	// latency assertion, lockstep divergence, failed inverse check).
	// Retries counts detected-bad submissions re-queued to a healthy
	// shard. Quarantines counts shards taken out of rotation (a shard can
	// be quarantined more than once across its lifetime). Respawns counts
	// successful hot-respawns; RespawnFailures counts failed attempts
	// (hook veto, key-load error, or power-on self-test mismatch).
	// FallbackBlocks counts blocks served by the software reference —
	// retry budgets exhausted or no healthy shard available.
	Detections      uint64
	Retries         uint64
	Quarantines     uint64
	Respawns        uint64
	RespawnFailures uint64
	FallbackBlocks  uint64

	// Triage counters (all zero without supervision).
	//
	// Every detection is classified: Transients recovered with one
	// in-place retry and stayed within the shard's error budget (no
	// quarantine); Persistents quarantined the shard — repeat failures,
	// ROM damage found by triage or the post-job scrub, and budget
	// Escalations all count here. InPlaceRecoveries counts successful
	// strike-free retries (a budget escalation still recovered its data in
	// place, so InPlaceRecoveries >= Transients). Detections may exceed
	// Transients+Persistents (classification in flight), and Persistents
	// may exceed what detections explain: the post-job scrub classifies
	// EDAC-masked ROM damage persistent without any transaction-level
	// detection ever firing.
	Transients        uint64
	Persistents       uint64
	InPlaceRecoveries uint64
	Escalations       uint64
	// Memory-integrity counters. ScrubCorrected counts words whose
	// correctable error a scrub rewrote successfully (SEUs flushed);
	// ScrubUncorrectable counts words a scrub could not repair (stuck bit
	// or multi-bit damage — each such find quarantines its shard).
	// ROMCorrectedReads / ROMUncorrectableReads count EDAC read-path
	// events: transactions that touched a faulty word and got corrected
	// (or raw, for multi-bit) data.
	ScrubCorrected        uint64
	ScrubUncorrectable    uint64
	ROMCorrectedReads     uint64
	ROMUncorrectableReads uint64

	// HealthyShards is how many shards were healthy at snapshot time;
	// Degraded reports that none were — the engine is serving every block
	// from the software reference until a respawn lands.
	HealthyShards int
	Degraded      bool
}

// Stats snapshots per-shard and aggregate counters. Safe to call while
// blocks are in flight.
//
// Snapshot consistency: aggregates are derived from a single pass over
// the per-shard counters (never from separately maintained engine totals,
// which could be loaded at a different instant), so Blocks, Detections,
// Quarantines, Respawns, the triage counters and HealthyShards are always
// exactly the sum/count of the Shards slice in the same snapshot. Within
// each shard the counters are loaded in the reverse of their increment
// order, which preserves the monotonic invariants even mid-flight:
//
//	Retries            <= Detections
//	Transients         <= InPlaceRecoveries <= Detections
//	Escalations        <= Persistents
//	Respawns           <= Quarantines       <= Persistents
//	MaxRespawnFailures × dead shards <= RespawnFailures
//	                   <= MaxRespawnFailures × Quarantines
//
// (TestStatsSnapshotInvariants and TestStatsDeadShardFailures hold these
// under -race chaos load.)
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Shards: make([]ShardStats, len(e.shards)),
		// Engine-level counters without per-shard twins are loaded before
		// the shard pass: each is incremented after the per-shard counter
		// that bounds it (a retry after its detection, an escalation after
		// its persistent classification), so loading the bound first and
		// the bounding sum second keeps the inequality intact.
		Retries:        e.retries.Load(),
		Escalations:    e.escalations.Load(),
		FallbackBlocks: e.fallbackBlocks.Load(),
	}
	for i, s := range e.shards {
		// Load order (reverse of increment order): a counter that is
		// incremented later in the recovery ladder is loaded earlier, so
		// its snapshot can never exceed the counter that precedes it.
		// A respawn failure is counted before the circuit breaker stores
		// shardDead, and after the quarantine it follows.
		state := s.state.Load()
		respawns := s.respawns.Load()
		st.RespawnFailures += s.respawnFailures.Load()
		quarantines := s.quarantines.Load()
		persistents := s.persistents.Load()
		transients := s.transients.Load()
		inPlace := s.inPlace.Load()
		detections := s.detections.Load()
		ss := ShardStats{
			Shard:       i,
			Blocks:      s.blocks.Load(),
			Cycles:      s.cycles.Load(),
			Stolen:      s.stolen.Load(),
			QueueDepth:  len(s.q),
			Submissions: s.submissions.Load(),
			WastedLanes: s.wasted.Load(),
			Health:      healthName(state),
			Generation:  s.gen.Load(),
			Detections:  detections,
			Quarantines: quarantines,
			Respawns:    respawns,

			Transients:         transients,
			Persistents:        persistents,
			InPlaceRecoveries:  inPlace,
			ScrubCorrected:     s.scrubCorrected.Load(),
			ScrubUncorrectable: s.scrubUncorrectable.Load(),
		}
		ss.ROMCorrectedReads, ss.ROMUncorrectableReads = s.romReadStats()
		st.ROMCorrectedReads += ss.ROMCorrectedReads
		st.ROMUncorrectableReads += ss.ROMUncorrectableReads
		if ss.Blocks > 0 {
			ss.CyclesPerBlock = float64(ss.Cycles) / float64(ss.Blocks)
		}
		if state == shardHealthy {
			st.HealthyShards++
		}
		st.Blocks += ss.Blocks
		st.Submissions += ss.Submissions
		st.WastedLanes += ss.WastedLanes
		st.Detections += ss.Detections
		st.Quarantines += ss.Quarantines
		st.Respawns += ss.Respawns
		st.Transients += ss.Transients
		st.Persistents += ss.Persistents
		st.InPlaceRecoveries += ss.InPlaceRecoveries
		st.ScrubCorrected += ss.ScrubCorrected
		st.ScrubUncorrectable += ss.ScrubUncorrectable
		if ss.Cycles > st.MaxShardCycles {
			st.MaxShardCycles = ss.Cycles
		}
		st.Shards[i] = ss
	}
	st.Degraded = st.HealthyShards == 0
	if st.Blocks > 0 {
		st.AggregateCyclesPerBlock = float64(st.MaxShardCycles) / float64(st.Blocks)
		st.LaneOccupancy = float64(st.Blocks) / float64(st.Blocks+st.WastedLanes)
	}
	return st
}

// Throughput converts the aggregate steady-state rate into the paper's
// megabit-per-second metric at the implementation's timing-closed clock.
func (e *Engine) Throughput() float64 {
	st := e.Stats()
	if st.AggregateCyclesPerBlock == 0 {
		return 0
	}
	ns := st.AggregateCyclesPerBlock * e.impl.ClockNS()
	if ns == 0 {
		return 0
	}
	return 128 / ns * 1000
}
