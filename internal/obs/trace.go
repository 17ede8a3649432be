package obs

import (
	"fmt"
	"sync"
	"time"
)

// Kind names one supervision/triage transition recorded in the event
// trace. The vocabulary mirrors the engine's recovery state machine
// (DESIGN.md §6–§8): every run of the ladder — detection, in-place retry,
// transient/persistent classification, quarantine, respawn, scrub
// correction, software fallback — leaves a reconstructible trail.
type Kind string

const (
	// KindDetection: a per-transaction checker fired (watchdog, latency
	// assertion, lockstep divergence, failed inverse check).
	KindDetection Kind = "detection"
	// KindRetry: a detected-bad submission was re-queued to a sibling.
	KindRetry Kind = "retry"
	// KindInPlaceRecovery: the strike-free in-place retry succeeded.
	KindInPlaceRecovery Kind = "in-place-recovery"
	// KindTransient: triage classified a detection transient (recovered
	// in place, within the error budget).
	KindTransient Kind = "transient"
	// KindEscalation: the sliding-window transient budget was exhausted.
	KindEscalation Kind = "escalation"
	// KindPersistent: triage classified a fault persistent; Cause/Detail
	// carry the localization (rom word, ff region, error budget).
	KindPersistent Kind = "persistent"
	// KindQuarantine: a shard left rotation.
	KindQuarantine Kind = "quarantine"
	// KindRespawn: a hot-respawn succeeded and the shard rejoined.
	KindRespawn Kind = "respawn"
	// KindShardDead: a respawn failed and the permanent-defect circuit
	// breaker parked the shard; Detail carries the failure.
	KindShardDead Kind = "shard-dead"
	// KindScrubCorrect: a ROM scrub (before a job's delivery, or in
	// diagnosis) rewrote a correctable EDAC word in place.
	KindScrubCorrect Kind = "scrub-correct"
	// KindFallback: blocks were served by the software reference.
	KindFallback Kind = "fallback"
)

// Event is one timestamped trace record. Unused fields stay at their zero
// values (Shard -1 means "no shard", as on a software fallback).
type Event struct {
	// Seq is the ring-assigned global sequence number, 1-based and
	// monotonic across overwrites.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock emission instant.
	Time time.Time `json:"time"`
	// Kind is the transition.
	Kind Kind `json:"kind"`
	// Shard and Generation identify the hardware incarnation.
	Shard      int    `json:"shard"`
	Generation uint64 `json:"generation,omitempty"`
	// Submission is the shard-local submission ordinal, when relevant.
	Submission uint64 `json:"submission,omitempty"`
	// Attempt is the job's retry ordinal, on retry and fallback events.
	Attempt int `json:"attempt,omitempty"`
	// Cause is the machine-matchable classification: a detection cause
	// ("timeout", "latency", "divergence", "inverse") or a Diagnosis
	// cause ("rom", "ff", "error-budget").
	Cause string `json:"cause,omitempty"`
	// Detail is the human-readable note.
	Detail string `json:"detail,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("#%d %s shard=%d", e.Seq, e.Kind, e.Shard)
	if e.Generation > 0 {
		s += fmt.Sprintf(" gen=%d", e.Generation)
	}
	if e.Submission > 0 {
		s += fmt.Sprintf(" sub=%d", e.Submission)
	}
	if e.Attempt > 0 {
		s += fmt.Sprintf(" attempt=%d", e.Attempt)
	}
	if e.Cause != "" {
		s += " cause=" + e.Cause
	}
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Ring is a bounded, overwrite-on-full event trace. Its slot array grows
// by doubling as events arrive, up to exactly the ring's capacity, so a
// ring that never sees an event costs nothing; once full, Emit overwrites
// the oldest slot in place, with no per-event allocation. Snapshot
// returns a consistent oldest-first copy. A mutex (not a lock-free
// scheme) keeps concurrent Emit and Snapshot race-clean; supervision
// transitions are orders of magnitude rarer than blocks, so the lock is
// never contended on the block path.
type Ring struct {
	mu  sync.Mutex
	n   uint64  // capacity
	buf []Event // event with Seq s at index (s-1)%n
	seq uint64  // total events ever emitted
}

// NewRing returns a ring holding the last n events (n <= 0 selects 1024).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 1024
	}
	return &Ring{n: uint64(n)}
}

// Emit records one event, overwriting the oldest when full. The ring
// assigns Seq; Time is stamped unless the caller set it.
func (r *Ring) Emit(ev Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	if r.seq <= r.n {
		if len(r.buf) == cap(r.buf) {
			// Double, but never past the capacity: a full ring holds
			// exactly n slots.
			grown := make([]Event, len(r.buf), min(max(2*r.seq, 16), r.n))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, ev)
	} else {
		r.buf[(r.seq-1)%r.n] = ev
	}
	r.mu.Unlock()
}

// Seq returns the total number of events ever emitted (overwritten events
// included).
func (r *Ring) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Overwritten returns how many events have been lost to wraparound.
func (r *Ring) Overwritten() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq <= r.n {
		return 0
	}
	return r.seq - r.n
}

// Snapshot returns the retained events, oldest first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(r.seq, r.n)
	out := make([]Event, 0, n)
	for s := r.seq - n + 1; s <= r.seq; s++ {
		out = append(out, r.buf[(s-1)%r.n])
	}
	return out
}
