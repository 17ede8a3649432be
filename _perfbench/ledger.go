package main

import (
	"context"
	"fmt"
	"strings"
	"time"
)

const (
	// tracedPairs is how many untraced/traced window pairs the traced run
	// alternates; alternating keeps drift on the host out of the tracing
	// overhead figure.
	tracedPairs = 3
	// windowShare and replicaShare split a traced run's seconds between
	// the closed-loop windows and the replica pass.
	windowShare  = 0.7
	replicaShare = 0.2
	// gatherSubs is how many submissions the gather-counting replica runs.
	gatherSubs = 2
)

// ledger is the traced run: alternating untraced and traced windows, job
// matching, the replica pass and the per-layer metrics.
func (b *bench) ledger(ctx context.Context, seconds float64, seed int64, spansPath string, notes *[]string) (map[string]metric, []callRecord, error) {
	win := time.Duration(seconds * windowShare / (2 * tracedPairs) * float64(time.Second))
	var phases []phase
	for i := 0; i < 2*tracedPairs; i++ {
		phases = append(phases, b.window(ctx, win, i%2 == 1))
	}
	whole := phase{before: phases[0].before, after: phases[len(phases)-1].after}
	b.checkCycles(whole)

	var recs []callRecord
	var blocks, wall [2]float64 // [untraced, traced]
	var tracedWall time.Duration
	for _, ph := range phases {
		rs := b.records(ph)
		recs = append(recs, rs...)
		_, _, n := callTotals(rs)
		k := 0
		if ph.traced {
			k = 1
			tracedWall += ph.end - ph.start
		}
		blocks[k] += float64(n)
		wall[k] += (ph.end - ph.start).Seconds()
	}
	overhead := ratio(ratio(blocks[1], wall[1]), ratio(blocks[0], wall[0]))

	var spans []span
	var batches []*batch
	for _, c := range b.callers {
		spans = append(spans, c.tr.spans...)
		batches = append(batches, c.tr.batches...)
	}
	b.rec.mu.Lock()
	events := append([]jobEvent(nil), b.rec.events...)
	b.rec.mu.Unlock()
	jobs, unmatched := matchJobs(events, batches, b.rec.nextID)
	if unmatched > 0 {
		*notes = append(*notes, fmt.Sprintf("%d job starts matched no traced batch", unmatched))
	}

	latency := b.im.Core.BlockLatency
	rep, err := newReplica(b.im, b.in.key, b.w.supervised)
	if err != nil {
		return nil, nil, err
	}
	budget := time.Duration(seconds * replicaShare * float64(time.Second))
	rr, err := rep.replay(batches, seed, budget, latency, b.epoch, b.rec.nextID)
	if err != nil {
		b.problem("%v", err)
	}
	gpc, err := countGathers(b.im, b.in.key, b.w.supervised, batches, latency, gatherSubs)
	if err != nil {
		b.problem("%v", err)
	}
	uni, div := gatherTimes(rep.stores, seed)

	all := append(append(append([]span(nil), spans...), jobs...), rr.spans...)
	m := b.layerMetrics(all, rr, whole, recs, tracedWall)
	m["edac.gather_ns_uniform"] = metric{uni, "ns"}
	m["edac.gather_ns_divergent"] = metric{div, "ns"}
	m["edac.gathers_per_cycle"] = metric{gpc, "count"}
	m["trace.overhead"] = metric{overhead, "ratio"}
	var build, eng []float64
	for _, s := range b.setups {
		build = append(build, s.build.Seconds())
		eng = append(eng, s.engine.Seconds())
	}
	m["setup.build_s"] = metric{median(build), "s"}
	m["setup.engine_s"] = metric{median(eng), "s"}

	*notes = append(*notes, fmt.Sprintf("traced run: %d spans (%d calls, %d batches, %d jobs), %d replayed submissions in %d calls",
		len(all), countName(spans, spanCall), len(batches), len(jobs), rr.subs, len(rr.calls)))
	if spansPath != "" {
		if err := writeSpans(spansPath, all); err != nil {
			return nil, nil, err
		}
		*notes = append(*notes, "spans written to "+spansPath)
	}
	return m, recs, nil
}

func countName(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// callCost is one traced call's time split across the layers.
type callCost struct {
	dur, modesSelf, engineSelf time.Duration
	replica                    map[int]time.Duration // replayed time per shard
}

// layerMetrics attributes the traced calls' time to the layers and reads
// the engine's counters.
func (b *bench) layerMetrics(all []span, rr replayResult, whole phase, recs []callRecord, tracedWall time.Duration) map[string]metric {
	byID := map[int64]span{}
	children := map[int64][]span{}
	for _, s := range all {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	costs := map[int64]*callCost{}
	cost := func(call int64) *callCost {
		c := costs[call]
		if c == nil {
			c = &callCost{replica: map[int]time.Duration{}}
			costs[call] = c
		}
		return c
	}
	var waits []time.Duration
	var jobTime time.Duration
	for _, s := range all {
		c := cost(s.Call)
		switch s.Name {
		case spanCall:
			c.dur = s.dur()
		case spanModes:
			c.modesSelf += selfTime(s, children[s.ID])
		case spanBatch:
			c.engineSelf += selfTime(s, children[s.ID])
		case spanJob:
			jobTime += s.dur()
			if p, ok := byID[s.Parent]; ok {
				waits = append(waits, s.Start-p.Start)
			}
		case spanReplica:
			shard := -1
			if p, ok := byID[s.Parent]; ok && p.Name == spanJob {
				shard = p.Shard
			}
			c.replica[shard] += s.dur()
		}
	}
	var calls int
	var modesSelf, engineSelf, replayedDur, unattributed time.Duration
	for id, c := range costs {
		if c.dur == 0 {
			continue
		}
		calls++
		modesSelf += c.modesSelf
		engineSelf += c.engineSelf
		if !rr.calls[id] {
			continue
		}
		// The shards run a call's jobs in parallel, so the replayed cost on
		// the call's path is that of its busiest shard.
		var critical time.Duration
		for _, d := range c.replica {
			critical = max(critical, d)
		}
		replayedDur += c.dur
		unattributed += c.dur - c.modesSelf - c.engineSelf - critical
	}

	st0, st1 := whole.before, whole.after
	subs := float64(st1.Submissions - st0.Submissions)
	hwBlocks := float64(st1.Blocks - st0.Blocks)
	var stolen, cycles float64
	for i := range st1.Shards {
		stolen += float64(st1.Shards[i].Stolen - st0.Shards[i].Stolen)
		cycles += float64(st1.Shards[i].Cycles - st0.Shards[i].Cycles)
	}
	wasted := float64(st1.WastedLanes - st0.WastedLanes)
	jobsDone := ratio(hwBlocks+wasted, lanes)
	ideal := jobsDone * float64(b.transactionCycles())
	detections := float64(st1.Detections - st0.Detections)
	_, _, delivered := callTotals(recs)

	per := func(d time.Duration, n int) float64 { return ratio(micros(d), float64(n)) }
	sub := rr.subs
	cyc := float64(rr.cycles)
	var rtlT, netT simTimes
	var shadow time.Duration
	if b.w.supervised {
		for i, t := range rr.inner {
			netT.eval += t.eval
			netT.step += t.step
			if i == 0 {
				netT.evals = t.evals
			} else {
				shadow = t.total()
			}
		}
	} else {
		rtlT = rr.outer
	}
	var compare time.Duration
	if b.w.supervised {
		compare = rr.outer.eval + rr.outer.step - netT.eval - netT.step
	}
	modesPerCall := 0.0
	if b.w.kind != kindProcess {
		modesPerCall = per(modesSelf, calls)
	}
	return map[string]metric{
		"modes.self_us_per_call": {modesPerCall, "us"},

		"engine.queue_wait_us_p50":       {micros(percentile(waits, 50)), "us"},
		"engine.self_us_per_call":        {per(engineSelf, calls), "us"},
		"engine.lane_occupancy":          {ratio(hwBlocks, hwBlocks+wasted), "ratio"},
		"engine.submissions_per_call":    {ratio(subs, float64(len(recs))), "count"},
		"engine.steals_per_ksub":         {1000 * ratio(stolen, subs), "1/ksub"},
		"engine.shard_busy_share":        {ratio(jobTime.Seconds(), shards*tracedWall.Seconds()), "ratio"},
		"engine.registry_submit_us_mean": {b.registrySubmitMean(), "us"},
		"bfm.process_vector_us":          {per(rr.pv, sub), "us"},
		"bfm.transpose_in_us":            {per(rr.outer.setBits, sub), "us"},
		"bfm.transpose_out_us":           {per(rr.outer.outBitsLane, sub), "us"},
		"bfm.protocol_self_us":           {per(rr.pv-rr.outer.total(), sub), "us"},
		"bfm.allocs_per_submission":      {ratio(float64(rr.mallocs), float64(sub)), "count"},
		"bfm.cycles_per_transaction":     {ratio(cyc, float64(sub)), "count"},
		"rtl.eval_us":                    {per(rtlT.eval, sub), "us"},
		"rtl.step_us":                    {per(rtlT.step, sub), "us"},
		"rtl.evals_per_cycle":            {ratio(float64(rtlT.evals), cyc), "count"},
		"rtl.tape_share":                 {ratio((rtlT.eval + rtlT.step).Seconds(), rr.pv.Seconds()), "ratio"},
		"netlist.eval_us":                {per(netT.eval, sub), "us"},
		"netlist.step_us":                {per(netT.step, sub), "us"},
		"netlist.evals_per_cycle":        {ratio(float64(netT.evals), cyc), "count"},
		"lockstep.compare_us_per_cycle":  {ratio(micros(compare), cyc), "us"},
		"lockstep.shadow_share":          {ratio(shadow.Seconds(), rr.pv.Seconds()), "ratio"},
		"supervisor.detections_per_ksub": {1000 * ratio(detections, subs), "1/ksub"},
		"supervisor.in_place_share":      {ratio(float64(st1.InPlaceRecoveries-st0.InPlaceRecoveries), detections), "ratio"},
		"supervisor.respawns":            {float64(st1.Respawns - st0.Respawns), "count"},
		"supervisor.fallback_share":      {ratio(float64(st1.FallbackBlocks-st0.FallbackBlocks), float64(delivered)), "ratio"},
		"supervisor.retry_cycles_share":  {ratio(cycles-ideal, cycles), "ratio"},
		"trace.unattributed_share":       {ratio(unattributed.Seconds(), replayedDur.Seconds()), "ratio"},
	}
}

// registrySubmitMean is the engine registry's own submit-to-complete
// latency per job (every shard's histogram, whole run), the cross-check
// for the job spans.
func (b *bench) registrySubmitMean() float64 {
	var sum, n float64
	for k, v := range b.eng.Metrics().Snapshot() {
		if !strings.HasPrefix(k, "aesip_engine_submit_latency_ns") {
			continue
		}
		switch {
		case strings.HasSuffix(k, "_sum_ns"):
			sum += v
		case strings.HasSuffix(k, "_count"):
			n += v
		}
	}
	return ratio(sum, n) / 1e3
}
