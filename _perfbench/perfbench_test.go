package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rijndaelip"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTime(t *testing.T) {
	parent := span{Start: ms(10), End: ms(110)}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, ms(100)},
		{"one child", []span{{Start: ms(20), End: ms(50)}}, ms(70)},
		{"overlapping children count once", []span{{Start: ms(20), End: ms(50)}, {Start: ms(40), End: ms(60)}}, ms(60)},
		{"nested child adds nothing", []span{{Start: ms(20), End: ms(80)}, {Start: ms(30), End: ms(40)}}, ms(40)},
		{"child clipped to parent", []span{{Start: ms(0), End: ms(30)}, {Start: ms(100), End: ms(200)}}, ms(70)},
		{"child outside parent covers nothing", []span{{Start: ms(200), End: ms(300)}}, ms(100)},
		{"children cover all", []span{{Start: ms(10), End: ms(60)}, {Start: ms(60), End: ms(110)}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPercentileSampleRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
	xs := []time.Duration{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
}

func TestMatchJobs(t *testing.T) {
	// Two single-job calls overlap; a two-job call follows.
	a := &batch{call: 1, span: 10, start: ms(0), end: ms(30), src: make([]byte, 16)}
	b := &batch{call: 2, span: 20, start: ms(5), end: ms(40), src: make([]byte, 16)}
	c := &batch{call: 3, span: 30, start: ms(50), end: ms(90), src: make([]byte, 16*(lanes+1))}
	events := []jobEvent{
		{at: ms(7), shard: 1, index: 0},  // both a and b in flight: the older call, a, gets it
		{at: ms(8), shard: 0, index: 0},  // a already has job 0: b
		{at: ms(12), shard: 1, index: 0}, // a re-run of a's job on shard 1 (supervised retry)
		{at: ms(51), shard: 0, index: 0},
		{at: ms(52), shard: 1, index: 1},
		{at: ms(95), shard: 0, index: 0}, // no batch in flight
	}
	id := int64(100)
	jobs, unmatched := matchJobs(events, []*batch{c, b, a}, func() int64 { id++; return id })
	if unmatched != 1 {
		t.Errorf("unmatched = %d, want 1", unmatched)
	}
	type got struct {
		parent     int64
		shard      int
		start, end time.Duration
	}
	var gs []got
	for _, j := range jobs {
		gs = append(gs, got{j.Parent, j.Shard, j.Start, j.End})
	}
	want := []got{
		{10, 1, ms(7), ms(12)}, // cut at shard 1's next job start
		{20, 0, ms(8), ms(40)},
		{10, 1, ms(12), ms(30)},
		{30, 0, ms(51), ms(90)},
		{30, 1, ms(52), ms(90)},
	}
	if !reflect.DeepEqual(gs, want) {
		t.Errorf("job spans\n got %v\nwant %v", gs, want)
	}
	if a.jobs[0] != jobs[0].ID || b.jobs[0] != jobs[1].ID || c.jobs[1] != jobs[4].ID {
		t.Errorf("batches point at the wrong job spans: a %v b %v c %v", a.jobs, b.jobs, c.jobs)
	}
}

func TestSliceRates(t *testing.T) {
	sliceMs := int(sliceLen / time.Millisecond)
	// Calls of 100 blocks end every 100 ms for 1.5 slices.
	var recs []callRecord
	for end := 100; end <= sliceMs*3/2; end += 100 {
		recs = append(recs, callRecord{end: ms(end), blocks: 100})
	}
	rates := sliceRates(recs, 0)
	if len(rates) != 2 {
		t.Fatalf("%d slices, want 2", len(rates))
	}
	for _, r := range rates {
		if r != 1000 {
			t.Errorf("slice rate %g, want 1000 blocks/s", r)
		}
	}
}

// The bookkeeping around each timed call must not allocate: the run's
// allocs_per_block is then the engine's alone.
func TestCallBookkeepingAllocatesNothing(t *testing.T) {
	want := bytes.Repeat([]byte{7}, 64)
	outs := [][]byte{want[0:16], want[16:32], want[32:48], want[48:64]}
	recs := make([]callRecord, 0, 1000)
	n := testing.AllocsPerRun(100, func() {
		ok := matchBlocks(outs, want) && bytes.Equal(want, want)
		recs = append(recs, callRecord{end: time.Second, blocks: 4, ok: ok})
	})
	if n != 0 {
		t.Errorf("call bookkeeping made %g allocations, want 0", n)
	}
}

// A held-out seed changes the data but not the exact counts: the request
// sizes, directions and lane packing of a pass are the same multiset.
func TestGenerateSeeded(t *testing.T) {
	for _, w := range workloads {
		a1, err := w.generate(1)
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := w.generate(1)
		b, _ := w.generate(99)
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("%s: seed 1 generated different inputs twice", w.name)
		}
		if bytes.Equal(a1.key, b.key) || bytes.Equal(a1.passes[0][0].src, b.passes[0][0].src) {
			t.Errorf("%s: seeds 1 and 99 generated the same data", w.name)
		}
		if shape(a1) != shape(b) {
			t.Errorf("%s: pass shape depends on the seed:\n%s\n%s", w.name, shape(a1), shape(b))
		}
	}
}

// shape is a pass's sorted multiset of (blocks, direction).
func shape(in *inputs) string {
	var parts []string
	for c, pass := range in.passes {
		for _, r := range pass {
			parts = append(parts, strings.Repeat("#", c)+string(rune('0'+r.nblocks()%10))+map[bool]string{true: "e", false: "d"}[r.encrypt])
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// The replica runs the engine's own submissions: outputs and cycle counts
// must be bit identical, or the per-layer numbers describe another program.
func TestReplicaFidelity(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.generate(5)
			if err != nil {
				t.Fatal(err)
			}
			im, err := rijndaelip.Build(w.variant, rijndaelip.Acex1K())
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder(time.Now())
			rec.on.Store(true)
			opts := w.engineOptions(im, in, rec.jitter)
			if opts.Supervise != nil {
				opts.Supervise.Strike = nil // fault-free: every transaction is the replica's
			}
			eng, err := im.NewEngine(in.key, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			b := &bench{w: w, in: in, im: im, eng: eng}
			tr := &callerTrace{rec: rec}
			for i := 0; i < 3; i++ {
				ok, err := tr.do(context.Background(), b, &in.passes[0][i])
				if err != nil || !ok {
					t.Fatalf("traced call %d: ok %v err %v", i, ok, err)
				}
			}
			st := eng.Stats()
			if want := b.transactionCycles() * st.Submissions; cycleTotals(st) != want {
				t.Errorf("engine spent %d cycles on %d submissions, want %d", cycleTotals(st), st.Submissions, want)
			}
			jobs, unmatched := matchJobs(rec.events, tr.batches, rec.nextID)
			if unmatched != 0 {
				t.Errorf("%d job starts unmatched", unmatched)
			}
			if len(jobs) != int(st.Submissions) {
				t.Errorf("%d job spans for %d submissions", len(jobs), st.Submissions)
			}
			r, err := newReplica(im, in.key, w.supervised)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.replay(tr.batches, 1, time.Hour, im.Core.BlockLatency, rec.epoch, rec.nextID)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(res.subs) != st.Submissions || uint64(res.cycles) != cycleTotals(st) {
				t.Errorf("replica ran %d submissions in %d cycles, engine %d in %d",
					res.subs, res.cycles, st.Submissions, cycleTotals(st))
			}
			evals := res.outer.evals
			if w.supervised {
				evals = res.inner[0].evals
			}
			if wantPerCycle := map[bool]int64{false: 1, true: 2}[w.supervised]; evals != wantPerCycle*res.cycles {
				t.Errorf("%d evals in %d cycles, want %d per cycle", evals, res.cycles, wantPerCycle)
			}
			g, err := countGathers(im, in.key, w.supervised, tr.batches, im.Core.BlockLatency, 2)
			if err != nil {
				t.Fatal(err)
			}
			if g != float64(int(g)) || g == 0 {
				t.Errorf("gathers per cycle %g, want a whole positive count", g)
			}
		})
	}
}

// Every run prints exactly the metrics BENCHMARK.json declares.
func TestRunPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, ok := findWorkload(wl.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", wl.Name)
		}
		for trace, declared := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var out, errOut bytes.Buffer
			code := run([]string{"-workload", wl.Name, "-seed", "7", "-seconds", "1", "-trace", string(rune('0' + trace))}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s%s", wl.Name, trace, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v attempted %d failed %d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics printed, %d declared", wl.Name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s printed as %+v (present %v), declared unit %s", wl.Name, trace, d.Name, m, ok, d.Unit)
				}
			}
		}
	}
}
