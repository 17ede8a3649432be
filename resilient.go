package rijndaelip

import (
	"errors"
	"fmt"
	"sync"

	"rijndaelip/internal/aes"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/faultcampaign"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/obs"
	"rijndaelip/internal/rijndael"
)

// CheckPolicy selects how a ResilientBlock detects a corrupted
// transaction before handing the result to the caller.
type CheckPolicy int

const (
	// CheckNone relies on the BFM watchdog and fixed-latency protocol
	// assertion alone: hung or mistimed transactions are caught, silent
	// data corruption is not.
	CheckNone CheckPolicy = iota
	// CheckLockstep runs the core as a dual-modular-redundant pair: an
	// independent shadow replica is stepped cycle-for-cycle and any
	// divergence of the observable outputs flags the transaction.
	CheckLockstep
	// CheckInverse round-trips every result through the opposite
	// direction on the same device (requires the combined Both variant):
	// decrypt(encrypt(x)) must give back x. Costs a second transaction
	// per block but needs no duplicated hardware.
	CheckInverse
)

// ResilientOptions tunes the detect → retry → degrade policy.
type ResilientOptions struct {
	// Check is the detection mechanism (default CheckNone).
	Check CheckPolicy
	// RetryBudget is how many times a detected-bad block is retried on
	// fresh hardware state before the block counts as failed. Default 2.
	RetryBudget int
	// MaxFailures is how many consecutive failed blocks are tolerated
	// before the adapter degrades permanently to the software reference.
	// Default 3.
	MaxFailures int
	// Watchdog overrides the BFM cycle budget for hung transactions
	// (0 keeps the driver's 4x-latency default).
	Watchdog int
	// Corrupt, when set, is invoked before every hardware attempt with
	// the per-block attempt ordinal and the primary simulator — the hook
	// fault campaigns and tests use to model a radiation environment
	// (schedule transient upsets, install stuck-at defects).
	Corrupt func(attempt int, sim *netlist.Simulator)
}

// ResilientStats counts what the recovery policy actually did.
type ResilientStats struct {
	// HardwareBlocks and SoftwareBlocks split the processed blocks by the
	// path that produced the returned result.
	HardwareBlocks uint64
	SoftwareBlocks uint64
	// Detections counts checker hits (lockstep divergence, failed inverse
	// check, latency assertion); Timeouts counts watchdog expiries.
	Detections uint64
	Timeouts   uint64
	// Retries counts fresh-state hardware re-runs; Failures counts blocks
	// whose whole retry budget was exhausted.
	Retries  uint64
	Failures uint64
	// ConsecutiveFailures is the current run of failed blocks; when it
	// reaches MaxFailures the adapter sets Degraded and stops using the
	// hardware path.
	ConsecutiveFailures int
	Degraded            bool
	// Cycles accumulates the simulated clock cycles spent on the hardware
	// path, including retries and inverse-check transactions.
	Cycles uint64
}

// ResilientBlock wraps the simulated core in a self-checking,
// self-recovering 16-byte block interface: transactions are bounded by a
// watchdog, optionally cross-checked (lockstep replica or inverse
// operation), retried on fresh simulator state when a fault is detected,
// and — past MaxFailures consecutive failed blocks — gracefully degraded
// to the software reference cipher so callers keep receiving correct
// ciphertext while the hardware is out of service.
//
// Unlike HardwareBlock, a detected hardware fault is not an error the
// caller sees: it is absorbed by the recovery policy. Err reports only
// unrecoverable protocol misuse (short buffers).
//
// ResilientBlock is safe for concurrent use: there is one simulated device
// behind the adapter, so concurrent Encrypt/Decrypt calls serialize on an
// internal mutex (one bus transaction at a time), and the Stats/Degraded/
// Err/Cycles accessors take the same lock — every counter, including the
// cycle account, is safe to snapshot while blocks are in flight.
type ResilientBlock struct {
	impl *Implementation
	opts ResilientOptions
	key  []byte
	soft *aes.Cipher

	drv  *bfm.Driver
	main *netlist.Simulator
	lock *faultcampaign.Lockstep

	// mu serializes bus transactions and guards stats and err.
	mu    sync.Mutex
	stats ResilientStats
	err   error

	// ring traces the adapter's detect → retry → degrade transitions.
	// Shard is always -1: there is one device behind the adapter.
	ring *obs.Ring
}

// NewResilientBlock builds the resilient adapter over a post-synthesis
// simulation of the implementation's mapped netlist (gate-level, so fault
// campaigns can strike real flip-flops), loads the key, and arms the
// checkers requested in opts.
func (im *Implementation) NewResilientBlock(key []byte, opts ResilientOptions) (*ResilientBlock, error) {
	if opts.RetryBudget <= 0 {
		opts.RetryBudget = 2
	}
	if opts.MaxFailures <= 0 {
		opts.MaxFailures = 3
	}
	if opts.Check == CheckInverse && im.Core.Config.Variant != rijndael.Both {
		return nil, fmt.Errorf("rijndaelip: inverse check needs the combined variant, core is %v", im.Core.Config.Variant)
	}
	soft, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	r := &ResilientBlock{
		impl: im,
		opts: opts,
		key:  append([]byte(nil), key...),
		soft: soft,
		ring: obs.NewRing(256),
	}
	main, err := netlist.NewSimulator(im.Netlist.nl)
	if err != nil {
		return nil, err
	}
	r.main = main
	var sim bfm.Sim = main
	if opts.Check == CheckLockstep {
		shadow, err := netlist.NewSimulator(im.Netlist.nl)
		if err != nil {
			return nil, err
		}
		r.lock = faultcampaign.NewLockstep(main, shadow)
		sim = r.lock
	}
	r.drv = bfm.NewPostSynthesis(im.Core, sim)
	r.drv.AssertLatency = true
	if opts.Watchdog > 0 {
		r.drv.Timeout = opts.Watchdog
	}
	if _, err := r.drv.LoadKey(r.key); err != nil {
		return nil, err
	}
	return r, nil
}

// BlockSize returns 16.
func (r *ResilientBlock) BlockSize() int { return 16 }

// Err returns the first protocol-misuse error, if any.
func (r *ResilientBlock) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Stats returns a snapshot of the recovery counters. It is safe to call
// while other goroutines are processing blocks.
func (r *ResilientBlock) Stats() ResilientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Degraded reports whether the adapter has given up on the hardware path
// and is serving blocks from the software reference.
func (r *ResilientBlock) Degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats.Degraded
}

// Trace returns the adapter's event-trace ring: every watchdog expiry,
// checker detection, fresh-state retry, and the degradation transition,
// timestamped and in order. The ring holds the last 256 events.
func (r *ResilientBlock) Trace() *obs.Ring { return r.ring }

// Encrypt processes one block, recovering from (or degrading around) any
// injected hardware fault.
func (r *ResilientBlock) Encrypt(dst, src []byte) { r.process(dst, src, true) }

// Decrypt is the decrypt-direction counterpart of Encrypt.
func (r *ResilientBlock) Decrypt(dst, src []byte) { r.process(dst, src, false) }

func (r *ResilientBlock) process(dst, src []byte, encrypt bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(src) < 16 || len(dst) < 16 {
		if r.err == nil {
			r.err = fmt.Errorf("rijndaelip: resilient block: need 16-byte src and dst, got src=%d dst=%d",
				len(src), len(dst))
		}
		zeroBlock(dst)
		return
	}
	if r.err != nil {
		zeroBlock(dst)
		return
	}
	if !r.stats.Degraded {
		if out, ok := r.hardware(src[:16], encrypt); ok {
			r.stats.HardwareBlocks++
			r.stats.ConsecutiveFailures = 0
			copy(dst, out)
			return
		}
		r.stats.Failures++
		r.stats.ConsecutiveFailures++
		if r.stats.ConsecutiveFailures >= r.opts.MaxFailures {
			r.stats.Degraded = true
			r.ring.Emit(obs.Event{Kind: obs.KindDegraded, Shard: -1,
				Detail: fmt.Sprintf("%d consecutive failed blocks", r.stats.ConsecutiveFailures)})
		}
	}
	// Graceful degradation: the software reference keeps the data flowing
	// with the hardware path out of service.
	r.stats.SoftwareBlocks++
	if encrypt {
		r.soft.Encrypt(dst, src)
	} else {
		r.soft.Decrypt(dst, src)
	}
}

// hardware runs one block through the simulated core under the configured
// detection policy, retrying on fresh state within the retry budget.
func (r *ResilientBlock) hardware(src []byte, encrypt bool) ([]byte, bool) {
	for attempt := 0; ; attempt++ {
		if r.opts.Corrupt != nil {
			r.opts.Corrupt(attempt, r.main)
		}
		out, cycles, err := r.drv.Process(src, encrypt)
		r.stats.Cycles += uint64(cycles)
		if err == nil && r.opts.Check == CheckInverse {
			back, invCycles, invErr := r.drv.Process(out, !encrypt)
			r.stats.Cycles += uint64(invCycles)
			if invErr != nil {
				err = invErr
			} else if !bytesEqual16(back, src) {
				err = fmt.Errorf("rijndaelip: inverse check mismatch")
			}
		}
		diverged := false
		if r.lock != nil {
			_, _, diverged = r.lock.Mismatch()
		}
		if err == nil && !diverged {
			return out, true
		}
		if errors.Is(err, bfm.ErrTimeout) {
			r.stats.Timeouts++
			r.ring.Emit(obs.Event{Kind: obs.KindTimeout, Shard: -1,
				Attempt: attempt, Detail: err.Error()})
		} else {
			r.stats.Detections++
			detail := "lockstep divergence"
			if err != nil {
				detail = err.Error()
			}
			r.ring.Emit(obs.Event{Kind: obs.KindDetection, Shard: -1,
				Attempt: attempt, Detail: detail})
		}
		// Fresh hardware state for the next try (or the next block): a
		// transient upset is flushed by the reset; a hard defect will
		// fail again and drive the degradation counter instead.
		r.rebuild()
		if attempt >= r.opts.RetryBudget {
			return nil, false
		}
		r.stats.Retries++
		r.ring.Emit(obs.Event{Kind: obs.KindRetry, Shard: -1, Attempt: attempt + 1})
	}
}

// rebuild resets the simulation (both replicas under lockstep, clearing
// the comparator) and reloads the key, giving retries a clean machine.
func (r *ResilientBlock) rebuild() {
	r.drv.Reset()
	if _, err := r.drv.LoadKey(r.key); err != nil && r.err == nil {
		r.err = err
	}
}

func zeroBlock(dst []byte) {
	n := len(dst)
	if n > 16 {
		n = 16
	}
	for i := 0; i < n; i++ {
		dst[i] = 0
	}
}

func bytesEqual16(a, b []byte) bool {
	if len(a) < 16 || len(b) < 16 {
		return false
	}
	for i := 0; i < 16; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
