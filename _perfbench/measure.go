package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"rijndaelip"
	"rijndaelip/internal/report"
)

const (
	// setupRuns is how many times a run builds the implementation, starts
	// the engine and makes the warm call; setup_s is their median.
	setupRuns = 9
	// sliceLen is the length of the slices blocks_per_s is the median of:
	// a burst of interference from outside the process then moves one
	// slice, not the result.
	sliceLen = 500 * time.Millisecond
	// recordCap preallocates each caller's call log, so logging a call
	// allocates nothing in the timed window.
	recordCap = 1 << 13
)

// callRecord is one closed-loop call as its caller saw it.
type callRecord struct {
	start, end time.Duration // since the run's epoch
	blocks     int
	ok         bool // returned without error and matched the reference
}

// caller is one client goroutine: it issues its pass of requests in order,
// each after the previous one returned, over and over.
type caller struct {
	pass []request
	recs []callRecord
	tr   *callerTrace // set on traced runs
}

type setupTimes struct{ build, engine, total time.Duration }

// bench is one run: the workload, its seeded inputs and the engine under
// test.
type bench struct {
	w       workload
	in      *inputs
	im      *rijndaelip.Implementation
	eng     *rijndaelip.Engine
	epoch   time.Time
	rec     *recorder // traced runs only
	callers []*caller
	setups  []setupTimes
	// problems lists every failed correctness check; a run with any is
	// reported incorrect.
	problems []string
}

func (b *bench) since() time.Duration { return time.Since(b.epoch) }

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// newBench generates the inputs and performs the set-up setupRuns times,
// keeping the last engine.
func newBench(w workload, seed int64, traced bool) (*bench, error) {
	in, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, in: in, epoch: time.Now()}
	var jitter func(shard, index int)
	if traced {
		b.rec = newRecorder(b.epoch)
		jitter = b.rec.jitter
	}
	for i := 0; i < setupRuns; i++ {
		if b.eng != nil {
			b.eng.Close()
		}
		runtime.GC()
		st, err := b.setup(jitter)
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, st)
	}
	for _, pass := range in.passes {
		c := &caller{pass: pass, recs: make([]callRecord, 0, recordCap)}
		if traced {
			c.tr = &callerTrace{rec: b.rec}
		}
		b.callers = append(b.callers, c)
	}
	return b, nil
}

// setup is what a user pays before the first useful call: build the
// implementation, start the engine (tape compile, key load on every
// shard) and make one warm call.
func (b *bench) setup(jitter func(shard, index int)) (setupTimes, error) {
	t0 := time.Now()
	im, err := rijndaelip.Build(b.w.variant, rijndaelip.Acex1K())
	if err != nil {
		return setupTimes{}, fmt.Errorf("perfbench: build: %w", err)
	}
	t1 := time.Now()
	eng, err := im.NewEngine(b.in.key, b.w.engineOptions(im, b.in, jitter))
	if err != nil {
		return setupTimes{}, fmt.Errorf("perfbench: new engine: %w", err)
	}
	t2 := time.Now()
	ok, err := b.w.do(context.Background(), eng, &b.in.passes[0][0])
	t3 := time.Now()
	if err != nil || !ok {
		eng.Close()
		return setupTimes{}, fmt.Errorf("perfbench: warm call failed (err %v, output matched %v)", err, ok)
	}
	b.im, b.eng = im, eng
	return setupTimes{build: t1.Sub(t0), engine: t2.Sub(t1), total: t3.Sub(t0)}, nil
}

// phase is one measured window of the closed loop.
type phase struct {
	traced        bool
	start, end    time.Duration
	first, last   []int // per caller: the window's records are recs[first:last]
	mallocs       uint64
	before, after rijndaelip.EngineStats
}

// window runs every caller's closed loop until at least d has passed. A
// caller stops only at the end of a pass over its requests, so the
// window's mix of request sizes is the same for every seed.
func (b *bench) window(ctx context.Context, d time.Duration, traced bool) phase {
	ph := phase{traced: traced}
	for _, c := range b.callers {
		ph.first = append(ph.first, len(c.recs))
	}
	if b.rec != nil {
		b.rec.on.Store(traced)
	}
	start := make(chan struct{})
	var deadline time.Duration
	var wg sync.WaitGroup
	for _, c := range b.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			<-start
			b.loop(ctx, c, deadline, traced)
		}(c)
	}
	ph.before = b.eng.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.mallocs = ms.Mallocs
	ph.start = b.since()
	deadline = ph.start + d
	close(start)
	wg.Wait()
	ph.end = b.since()
	runtime.ReadMemStats(&ms)
	ph.mallocs = ms.Mallocs - ph.mallocs
	ph.after = b.eng.Stats()
	for _, c := range b.callers {
		ph.last = append(ph.last, len(c.recs))
	}
	if b.rec != nil {
		b.rec.on.Store(false)
	}
	return ph
}

// loop is one caller's closed loop.
func (b *bench) loop(ctx context.Context, c *caller, deadline time.Duration, traced bool) {
	for {
		for i := range c.pass {
			r := &c.pass[i]
			t0 := b.since()
			var ok bool
			var err error
			if traced {
				ok, err = c.tr.do(ctx, b, r)
			} else {
				ok, err = b.w.do(ctx, b.eng, r)
			}
			c.recs = append(c.recs, callRecord{start: t0, end: b.since(), blocks: r.nblocks(), ok: ok && err == nil})
		}
		if b.since() >= deadline || ctx.Err() != nil {
			return
		}
	}
}

// records returns the window's calls of every caller, ordered by end.
func (b *bench) records(ph phase) []callRecord {
	var out []callRecord
	for i, c := range b.callers {
		out = append(out, c.recs[ph.first[i]:ph.last[i]]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].end < out[j].end })
	return out
}

// sliceRates splits a window at fixed instants and returns, for each
// slice, the blocks of the calls that completed in it divided by the time
// from the previous slice's last completion to this slice's last one, so
// a call is never split between slices. recs must be ordered by end.
func sliceRates(recs []callRecord, from time.Duration) []float64 {
	var rates []float64
	prev, last := from, from
	next := from + sliceLen
	acc := 0
	for _, r := range recs {
		if r.end >= next && acc > 0 && last > prev {
			rates = append(rates, float64(acc)/(last-prev).Seconds())
			prev, acc = last, 0
			for next <= r.end {
				next += sliceLen
			}
		}
		acc += r.blocks
		last = r.end
	}
	if acc > 0 && last > prev {
		rates = append(rates, float64(acc)/(last-prev).Seconds())
	}
	return rates
}

// latencyGroup is the smallest number of calls whose p90 has minBeyond
// samples beyond it.
const latencyGroup = 100

// groupPercentiles splits the calls, in completion order, into groups of
// at least latencyGroup and returns the median over the groups of each
// group's p50 and p90 latency, and the number of groups. A few seconds in
// which the host slows one CPU then move one group's tail, not the result.
func groupPercentiles(recs []callRecord) (p50, p90 time.Duration, groups int) {
	groups = max(1, len(recs)/latencyGroup)
	var g50, g90 []float64
	for g := 0; g < groups; g++ {
		part := recs[g*len(recs)/groups : (g+1)*len(recs)/groups]
		lat := make([]time.Duration, len(part))
		for i, r := range part {
			lat[i] = r.end - r.start
		}
		g50 = append(g50, float64(percentile(lat, 50)))
		g90 = append(g90, float64(percentile(lat, 90)))
	}
	return time.Duration(median(g50)), time.Duration(median(g90)), groups
}

// callTotals counts a window's calls, failed calls and delivered blocks.
func callTotals(recs []callRecord) (attempted, failed, blocks int64) {
	for _, r := range recs {
		attempted++
		if r.ok {
			blocks += int64(r.blocks)
		} else {
			failed++
		}
	}
	return attempted, failed, blocks
}

// cycleTotals sums the simulated cycles of every shard.
func cycleTotals(st rijndaelip.EngineStats) uint64 {
	var c uint64
	for _, s := range st.Shards {
		c += s.Cycles
	}
	return c
}

// transactionCycles is what one fault-free transaction costs: the core's
// block latency plus the wr_data load edge.
func (b *bench) transactionCycles() uint64 { return uint64(b.im.Core.BlockLatency) + 1 }

// checkCycles holds the window's simulated time to the fault-free cost:
// exactly transactionCycles per submission on a plain engine, at least
// that on a supervised one (detections add retries).
func (b *bench) checkCycles(ph phase) {
	cycles := cycleTotals(ph.after) - cycleTotals(ph.before)
	subs := ph.after.Submissions - ph.before.Submissions
	want := b.transactionCycles() * subs
	switch {
	case !b.w.supervised && cycles != want:
		b.problem("plain engine spent %d cycles on %d submissions, want exactly %d", cycles, subs, want)
	case b.w.supervised && cycles < want:
		b.problem("supervised engine spent %d cycles on %d submissions, below the fault-free %d", cycles, subs, want)
	}
}

// endToEnd computes the user-visible metrics of an untraced window.
func (b *bench) endToEnd(ph phase, notes *[]string) map[string]metric {
	recs := b.records(ph)
	attempted, failed, blocks := callTotals(recs)
	p50, p90, groups := groupPercentiles(recs)
	rates := sliceRates(recs, ph.start)

	b.checkCycles(ph)
	cycles := cycleTotals(ph.after) - cycleTotals(ph.before)
	hwBlocks := ph.after.Blocks - ph.before.Blocks
	subs := ph.after.Submissions - ph.before.Submissions
	cpb := ratio(float64(cycles), float64(hwBlocks))

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var setup []float64
	for _, s := range b.setups {
		setup = append(setup, s.total.Seconds())
	}
	paper := b.paperLatency()
	perTx := ratio(float64(cycles), float64(subs)) - 1
	bps := median(rates)
	n := len(recs) / max(groups, 1)
	*notes = append(*notes,
		fmt.Sprintf("calls=%d failed=%d blocks=%d window=%.3fs; blocks/s is the median of %d slices",
			attempted, failed, blocks, (ph.end-ph.start).Seconds(), len(rates)),
		fmt.Sprintf("latency: median over %d groups of >=%d consecutive calls; per group %d beyond p50, %d beyond p90; "+
			"highest percentile with >=%d beyond: p%g", groups, n, beyond(n, 50), beyond(n, 90), minBeyond, highestPercentile(n)),
		fmt.Sprintf("sim_cycles_per_block=%.6f over %d submissions: %.4f cycles per transaction = %.4f + 1 load edge; "+
			"paper Table 2 latency %g cycles, model error %+.2f%%",
			cpb, subs, perTx+1, perTx, paper, 100*(perTx-paper)/paper),
	)
	return map[string]metric{
		"blocks_per_s":         {bps, "1/s"},
		"latency_p50_ms":       {ms64(p50), "ms"},
		"latency_p90_ms":       {ms64(p90), "ms"},
		"sim_cycles_per_block": {cpb, "cycles/block"},
		"allocs_per_block":     {ratio(float64(ph.mallocs), float64(blocks)), "allocs/block"},
		"heap_inuse_mb":        {float64(ms.HeapAlloc) / (1 << 20), "MiB"},
		"setup_s":              {median(setup), "s"},
		"verified_ratio":       {ratio(float64(attempted-failed), float64(attempted)), "ratio"},
	}
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// paperLatency is the block latency in cycles the paper's Table 2 gives
// for the workload's core on the Acex1K: latency divided by clock period.
func (b *bench) paperLatency() float64 {
	name := map[rijndaelip.Variant]string{
		rijndaelip.Encrypt: "Encrypt", rijndaelip.Decrypt: "Decrypt", rijndaelip.Both: "Both",
	}[b.w.variant]
	c, ok := report.FindPaperCell(name, "Acex1K")
	if !ok || c.ClkNS == 0 {
		return 0
	}
	return c.LatencyNS / c.ClkNS
}
