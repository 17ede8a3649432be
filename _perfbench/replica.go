package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rijndaelip"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/edac"
	"rijndaelip/internal/faultcampaign"
	"rijndaelip/internal/netlist"
)

// lanes is how many blocks the engine packs into one submission (its
// default MaxLanes).
const lanes = bfm.Lanes

// simTimes accumulates the host time spent inside one simulator's
// methods, split by what the calls do for the driver.
type simTimes struct {
	eval, step   time.Duration
	setBits      time.Duration // SetInputBits + SetInputBitsLane: transpose in
	outBitsLane  time.Duration // OutputBitsLane: transpose out
	other        time.Duration // control pins, data_ok polling, register peeks
	evals, steps int64
}

func (t *simTimes) total() time.Duration {
	return t.eval + t.step + t.setBits + t.outBitsLane + t.other
}

// timedSim wraps a simulator and times every call the driver (or a
// lockstep pair) makes into it. It changes nothing the simulator does.
type timedSim struct {
	in bfm.VectorSim
	t  *simTimes
}

func (s timedSim) Reset() {
	t0 := time.Now()
	s.in.Reset()
	s.t.other += time.Since(t0)
}

func (s timedSim) SetInput(name string, v uint64) error {
	t0 := time.Now()
	err := s.in.SetInput(name, v)
	s.t.other += time.Since(t0)
	return err
}

func (s timedSim) SetInputBits(name string, bits []byte) error {
	t0 := time.Now()
	err := s.in.SetInputBits(name, bits)
	s.t.setBits += time.Since(t0)
	return err
}

func (s timedSim) SetInputLane(name string, lane int, v uint64) error {
	t0 := time.Now()
	err := s.in.SetInputLane(name, lane, v)
	s.t.other += time.Since(t0)
	return err
}

func (s timedSim) SetInputBitsLane(name string, lane int, bits []byte) error {
	t0 := time.Now()
	err := s.in.SetInputBitsLane(name, lane, bits)
	s.t.setBits += time.Since(t0)
	return err
}

func (s timedSim) Eval() {
	t0 := time.Now()
	s.in.Eval()
	s.t.eval += time.Since(t0)
	s.t.evals++
}

func (s timedSim) Step() {
	t0 := time.Now()
	s.in.Step()
	s.t.step += time.Since(t0)
	s.t.steps++
}

func (s timedSim) Output(name string) (uint64, error) {
	t0 := time.Now()
	v, err := s.in.Output(name)
	s.t.other += time.Since(t0)
	return v, err
}

func (s timedSim) OutputBits(name string) ([]byte, error) {
	t0 := time.Now()
	v, err := s.in.OutputBits(name)
	s.t.other += time.Since(t0)
	return v, err
}

func (s timedSim) OutputLane(name string, lane int) (uint64, error) {
	t0 := time.Now()
	v, err := s.in.OutputLane(name, lane)
	s.t.other += time.Since(t0)
	return v, err
}

func (s timedSim) OutputBitsLane(name string, lane int) ([]byte, error) {
	t0 := time.Now()
	v, err := s.in.OutputBitsLane(name, lane)
	s.t.outBitsLane += time.Since(t0)
	return v, err
}

func (s timedSim) OutputWords(name string) ([]uint64, error) {
	t0 := time.Now()
	v, err := s.in.OutputWords(name)
	s.t.other += time.Since(t0)
	return v, err
}

func (s timedSim) RegValue(name string) ([]byte, bool) {
	t0 := time.Now()
	v, ok := s.in.RegValue(name)
	s.t.other += time.Since(t0)
	return v, ok
}

// replica is a keyed vector driver of the same core the engine's shards
// run, built by the benchmark over timing wrappers: the RTL tape on a
// plain engine, a lockstep pair of netlist tapes on a supervised one.
type replica struct {
	drv *bfm.VectorDriver
	// outer is what the driver calls; for the plain engine it is the RTL
	// simulator, for the supervised one the lockstep pair.
	outer *simTimes
	// inner holds the simulators under the lockstep pair (primary,
	// shadow); empty on the plain replica.
	inner  []*simTimes
	lock   *faultcampaign.VectorLockstep
	stores []*edac.ROM // every EDAC store the replica reads through
}

// newReplica builds the replica the way the engine builds a shard:
// KeyedFactory.CloneVectorSim over a caller-built simulator.
func newReplica(im *rijndaelip.Implementation, key []byte, supervised bool) (*replica, error) {
	f, err := bfm.NewKeyedFactory(im.Core, key)
	if err != nil {
		return nil, err
	}
	r := &replica{outer: &simTimes{}}
	var sim bfm.VectorSim
	if !supervised {
		rs := im.Core.Design.NewCompiledSimulator()
		r.stores = rs.ROMStores()
		sim = timedSim{rs, r.outer}
	} else {
		var pair [2]bfm.VectorSim
		for i := range pair {
			ns, err := netlist.NewCompiledSimulator(im.Netlist.Raw())
			if err != nil {
				return nil, err
			}
			r.stores = append(r.stores, ns.ROMStores()...)
			r.inner = append(r.inner, &simTimes{})
			pair[i] = timedSim{ns, r.inner[i]}
		}
		r.lock = faultcampaign.NewVectorLockstep(pair[0], pair[1])
		sim = timedSim{r.lock, r.outer}
	}
	drv, _, err := f.CloneVectorSim(sim)
	if err != nil {
		return nil, err
	}
	drv.AssertLatency = supervised
	r.drv = drv
	r.reset()
	return r, nil
}

// reset zeroes the accumulators (the key load is not a submission).
func (r *replica) reset() {
	*r.outer = simTimes{}
	for _, t := range r.inner {
		*t = simTimes{}
	}
}

// submit runs one lane-packed submission and checks it against the
// engine's output for the same submission: the outputs must be bit
// identical and the transaction must take exactly the core's block
// latency, as every fault-free engine transaction does.
// It returns the host time of ProcessVector, the cycles it reported and
// the heap allocations it made.
func (r *replica) submit(src, want []byte, encrypt bool, latency int) (time.Duration, int, uint64, error) {
	blocks := make([][]byte, len(src)/16)
	for i := range blocks {
		blocks[i] = src[16*i : 16*i+16]
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	t0 := time.Now()
	outs, cycles, err := r.drv.ProcessVector(blocks, encrypt)
	d := time.Since(t0)
	runtime.ReadMemStats(&ms)
	mallocs = ms.Mallocs - mallocs
	return d, cycles, mallocs, r.check(outs, cycles, err, want, latency)
}

// check is the fidelity test of one replica submission.
func (r *replica) check(outs [][]byte, cycles int, err error, want []byte, latency int) error {
	if err != nil {
		return fmt.Errorf("perfbench: replica submission: %w", err)
	}
	if r.lock != nil && r.lock.MismatchMask() != 0 {
		return fmt.Errorf("perfbench: replica lockstep diverged on lanes %#x", r.lock.MismatchMask())
	}
	if cycles != latency {
		return fmt.Errorf("perfbench: replica transaction took %d cycles, want %d", cycles, latency)
	}
	for i, o := range outs {
		if !bytes.Equal(o, want[16*i:16*i+16]) {
			return fmt.Errorf("perfbench: replica output of lane %d differs from the engine's", i)
		}
	}
	return nil
}

// replayResult is the replica pass: per-layer host time over the
// replayed submissions and the spans of each.
type replayResult struct {
	subs    int
	cycles  int64 // simulated cycles, load edges included
	pv      time.Duration
	mallocs uint64
	outer   simTimes
	inner   []simTimes
	spans   []span
	calls   map[int64]bool // calls whose every submission was replayed
}

// replay runs whole batches on the replica, in a seeded order, until the
// time budget is spent (at least one batch). Each submission gets a span
// whose parent is the engine job it repeats.
func (r *replica) replay(batches []*batch, seed int64, budget time.Duration, latency int, epoch time.Time, nextID func() int64) (replayResult, error) {
	res := replayResult{calls: map[int64]bool{}}
	order := rand.New(rand.NewSource(seed)).Perm(len(batches))
	r.reset()
	begin := time.Now()
	for _, bi := range order {
		if res.subs > 0 && time.Since(begin) >= budget {
			break
		}
		b := batches[bi]
		for j := 0; j < b.njobs(); j++ {
			src, dst := b.job(j)
			start := time.Since(epoch)
			d, cycles, mallocs, err := r.submit(src, dst, b.encrypt, latency)
			if err != nil {
				return res, err
			}
			res.mallocs += mallocs
			parent := b.jobs[j]
			if parent == 0 {
				parent = b.span
			}
			res.spans = append(res.spans, span{Call: b.call, ID: nextID(), Parent: parent, Name: spanReplica,
				Shard: -1, Start: start, End: start + d})
			res.subs++
			res.cycles += int64(cycles) + 1
			res.pv += d
		}
		res.calls[b.call] = true
	}
	res.outer = *r.outer
	for _, t := range r.inner {
		res.inner = append(res.inner, *t)
	}
	return res, nil
}

// countGathers replays submissions on a replica whose EDAC stores all hold
// one correctable error in every word. Every Gather then takes the
// per-lane correcting path and counts one corrected read per lane, so
// the stores' counters give the exact number of gathers per simulated
// cycle. The outputs must still match: SECDED corrects every read.
func countGathers(im *rijndaelip.Implementation, key []byte, supervised bool, batches []*batch, latency, subs int) (float64, error) {
	r, err := newReplica(im, key, supervised)
	if err != nil {
		return 0, err
	}
	for _, s := range r.stores {
		for w := 0; w < edac.Words; w++ {
			s.FlipBit(w, 3)
		}
	}
	var cycles int64
	done := 0
	for _, b := range batches {
		for j := 0; j < b.njobs() && done < subs; j++ {
			src, dst := b.job(j)
			_, c, _, err := r.submit(src, dst, b.encrypt, latency)
			if err != nil {
				return 0, fmt.Errorf("perfbench: gather-counting replica: %w", err)
			}
			cycles += int64(c) + 1
			done++
		}
	}
	var reads uint64
	for _, s := range r.stores {
		reads += s.Stats().CorrectedReads
	}
	// The key load ran before the flips, so every counted read belongs to
	// the replayed submissions.
	return ratio(float64(reads)/lanes, float64(cycles)), nil
}

// gatherTimes times ROM.Gather on a clean store of the replica's kind:
// every lane reading one address, and every lane reading its own. Each
// figure is the median over reps of the mean of n gathers.
func gatherTimes(stores []*edac.ROM, seed int64) (uniform, divergent float64) {
	const n, reps = 4096, 9
	rng := rand.New(rand.NewSource(seed))
	var uni, div [8]uint64
	a := rng.Intn(edac.Words)
	for bit := range uni {
		if a>>bit&1 != 0 {
			uni[bit] = ^uint64(0)
		}
		div[bit] = rng.Uint64()
	}
	rom := stores[0]
	var sink uint64
	time1 := func(addr *[8]uint64) float64 {
		var per []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				out := rom.Gather(addr)
				sink += out[0]
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/n)
		}
		return median(per)
	}
	uniform, divergent = time1(&uni), time1(&div)
	gatherSink = sink
	return uniform, divergent
}

// gatherSink keeps the timed gathers from being optimised away.
var gatherSink uint64
