package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rijndaelip"
	"rijndaelip/internal/modes"
)

// span is one traced interval. The spans of one workload call share Call;
// Parent is the ID of the span that caused this one (-1 for the call's
// root). Times are offsets from the run's epoch.
type span struct {
	Call   int64         `json:"call"`
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Shard  int           `json:"shard"` // job and replica spans; -1 otherwise
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Span names, one per layer boundary the benchmark can see from outside
// the engine.
const (
	spanCall    = "call"    // the workload call, as its caller timed it
	spanModes   = "modes"   // modes.CTRStream / modes.EncryptECB
	spanBatch   = "batch"   // EngineBlock.EncryptBlocks or Engine.Process
	spanJob     = "job"     // one lane-packed submission on a shard
	spanReplica = "replica" // the same submission replayed on the replica
)

// covered is how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	var cl [][2]time.Duration
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			cl = append(cl, [2]time.Duration{a, b})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i][0] < cl[j][0] })
	var total, end time.Duration
	end = lo
	for _, iv := range cl {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// selfTime is a span's duration minus the part of that interval its
// children cover. Children that ran outside the parent's interval (the
// replica pass replays a job after its call returned) cover nothing.
func selfTime(parent span, children []span) time.Duration {
	ivs := make([][2]time.Duration, len(children))
	for i, c := range children {
		ivs[i] = [2]time.Duration{c.Start, c.End}
	}
	return parent.dur() - covered(parent.Start, parent.End, ivs)
}

// jobEvent is one Jitter call: a shard starting a submission.
type jobEvent struct {
	at           time.Duration
	shard, index int
}

// recorder is the traced run's shared state: span IDs and the Jitter hook
// the engine calls on its shard workers.
type recorder struct {
	epoch  time.Time
	ids    atomic.Int64
	on     atomic.Bool
	mu     sync.Mutex
	events []jobEvent
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

func (r *recorder) nextID() int64 { return r.ids.Add(1) }

// jitter is the EngineOptions.Jitter hook: the engine calls it on the
// shard worker right before it runs a submission.
func (r *recorder) jitter(shard, index int) {
	if !r.on.Load() {
		return
	}
	at := time.Since(r.epoch)
	r.mu.Lock()
	r.events = append(r.events, jobEvent{at: at, shard: shard, index: index})
	r.mu.Unlock()
}

// batch is one batch call into the engine, kept for job matching and the
// replica pass. src and dst are the engine's own input and output of the
// call; nothing writes to them afterwards.
type batch struct {
	call, span int64
	start, end time.Duration
	src, dst   []byte
	encrypt    bool
	jobs       []int64 // job span ID per submission index, 0 if unmatched
}

func (b *batch) nblocks() int { return len(b.src) / 16 }

// njobs is how many lane-packed submissions the engine cut the batch into.
func (b *batch) njobs() int { return (b.nblocks() + lanes - 1) / lanes }

// job returns the input and the engine's output of submission j.
func (b *batch) job(j int) (src, dst []byte) {
	lo, hi := j*lanes*16, min((j+1)*lanes*16, len(b.src))
	return b.src[lo:hi], b.dst[lo:hi]
}

// callerTrace records the spans of one caller's calls. Only its caller
// goroutine touches it while the loop runs.
type callerTrace struct {
	rec     *recorder
	call    int64
	stack   []int // indices into spans of the open spans
	spans   []span
	batches []*batch
}

func (t *callerTrace) open(name string) int {
	parent := int64(-1)
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, span{Call: t.call, ID: t.rec.nextID(), Parent: parent, Name: name,
		Shard: -1, Start: time.Since(t.rec.epoch)})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *callerTrace) close(i int) {
	t.spans[i].End = time.Since(t.rec.epoch)
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *callerTrace) keep(i int, src, dst []byte, encrypt bool) {
	s := t.spans[i]
	t.batches = append(t.batches, &batch{call: s.Call, span: s.ID, start: s.Start, end: s.End,
		src: src, dst: dst, encrypt: encrypt})
}

// tracedBlock is the EngineBlock the traced run hands to the modes layer:
// it wraps every batch call in a span.
type tracedBlock struct {
	*rijndaelip.EngineBlock
	t *callerTrace
}

func (b tracedBlock) EncryptBlocks(dst, src []byte) error {
	return b.batch(dst, src, true, b.EngineBlock.EncryptBlocks)
}

func (b tracedBlock) DecryptBlocks(dst, src []byte) error {
	return b.batch(dst, src, false, b.EngineBlock.DecryptBlocks)
}

func (b tracedBlock) batch(dst, src []byte, encrypt bool, call func(dst, src []byte) error) error {
	i := b.t.open(spanBatch)
	err := call(dst, src)
	b.t.close(i)
	b.t.keep(i, src, dst, encrypt)
	return err
}

// do is workload.do with spans: the same engine work, with the mode layer
// driven directly over a traced EngineBlock so its own time shows apart
// from the engine's.
func (t *callerTrace) do(ctx context.Context, b *bench, r *request) (bool, error) {
	t.call = t.rec.nextID()
	root := t.open(spanCall)
	defer t.close(root)
	switch b.w.kind {
	case kindCTR, kindECB:
		blk := tracedBlock{EngineBlock: b.eng.BlockContext(ctx), t: t}
		m := t.open(spanModes)
		var out []byte
		var err error
		if b.w.kind == kindCTR {
			out, err = modes.CTRStream(blk, r.iv, r.src)
		} else {
			out, err = modes.EncryptECB(blk, r.src)
		}
		t.close(m)
		if err == nil {
			err = blk.Err()
		}
		return err == nil && bytes.Equal(out, r.want), err
	case kindProcess:
		i := t.open(spanBatch)
		outs, err := b.eng.Process(ctx, r.blocks, r.encrypt)
		t.close(i)
		if err != nil {
			return false, err
		}
		t.keep(i, r.src, bytes.Join(outs, nil), r.encrypt)
		return matchBlocks(outs, r.want), nil
	}
	return false, fmt.Errorf("perfbench: unknown call kind %d", b.w.kind)
}

// matchJobs turns the Jitter events into job spans. An event is credited
// to the earliest-started batch in flight at that instant that still
// misses a job of that index: shards take submissions in queue order, so
// with two callers in flight the older call's job starts first. A
// supervised job re-run after a detection finds its index taken and is
// credited to the oldest batch in flight that has one. A job span ends
// at its shard's next job start or at its batch's end, whichever is
// first. It returns the job spans and how many events matched no batch.
func matchJobs(events []jobEvent, batches []*batch, nextID func() int64) ([]span, int) {
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	sort.Slice(batches, func(i, j int) bool { return batches[i].start < batches[j].start })
	for _, b := range batches {
		b.jobs = make([]int64, b.njobs())
	}
	var jobs []span
	owner := map[int64]*batch{}
	unmatched := 0
	lo := 0
	for _, e := range events {
		for lo < len(batches) && batches[lo].end < e.at {
			lo++
		}
		var pick *batch
		for k := lo; k < len(batches) && batches[k].start <= e.at; k++ {
			b := batches[k]
			if b.end < e.at || e.index >= len(b.jobs) {
				continue
			}
			if b.jobs[e.index] == 0 {
				pick = b
				break
			}
			if pick == nil {
				pick = b
			}
		}
		if pick == nil {
			unmatched++
			continue
		}
		s := span{Call: pick.call, ID: nextID(), Parent: pick.span, Name: spanJob, Shard: e.shard,
			Start: e.at, End: pick.end}
		if pick.jobs[e.index] == 0 {
			pick.jobs[e.index] = s.ID
		}
		owner[s.ID] = pick
		jobs = append(jobs, s)
	}
	// Cut each job at its shard's next job start.
	lastOn := map[int]int{}
	for i := range jobs {
		if p, ok := lastOn[jobs[i].Shard]; ok && jobs[i].Start < jobs[p].End {
			jobs[p].End = jobs[i].Start
		}
		lastOn[jobs[i].Shard] = i
	}
	return jobs, unmatched
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("perfbench: spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("perfbench: spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("perfbench: spans: %w", err)
	}
	return nil
}
