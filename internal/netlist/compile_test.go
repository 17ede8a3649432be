package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomNetlist builds a random but valid netlist: LUT layers over primary
// inputs and sequential state, an asynchronous and a synchronous ROM macro,
// flip-flops with and without clock enables, and output ports. Every cell
// input is drawn from the pool of already-driven nets, so the combinational
// graph is acyclic by construction.
func randomNetlist(r *rand.Rand) *Netlist {
	nl := New("fuzz")
	pool := []NetID{Const0, Const1}
	pool = append(pool, nl.AddInput("din", 8+r.Intn(17))...)
	pool = append(pool, nl.AddInput("ctl", 1+r.Intn(4))...)

	// Sequential state nets are usable as LUT inputs before their drivers
	// (FFs, sync ROM) are declared: Build validates globally.
	nFF := 8 + r.Intn(24)
	ffQ := nl.NewNets(nFF)
	pool = append(pool, ffQ...)
	syncOut := nl.NewNets(8)
	pool = append(pool, syncOut...)

	addLUTs := func(n int) {
		for i := 0; i < n; i++ {
			k := 1 + r.Intn(4)
			ins := make([]NetID, k)
			for j := range ins {
				ins[j] = pool[r.Intn(len(pool))]
			}
			out := nl.NewNet()
			nl.AddLUT(LUT{Inputs: ins, Mask: uint16(r.Intn(1 << 16)), Out: out})
			pool = append(pool, out)
		}
	}
	randContents := func() (c [256]byte) {
		for i := range c {
			c[i] = byte(r.Intn(256))
		}
		return
	}

	addLUTs(30 + r.Intn(60))
	// Asynchronous ROM: address from the current pool, outputs join it.
	var arom ROM
	arom.Name = "arom"
	arom.Contents = randContents()
	for b := 0; b < 8; b++ {
		arom.Addr[b] = pool[r.Intn(len(pool))]
	}
	copy(arom.Out[:], nl.NewNets(8))
	nl.AddROM(arom)
	pool = append(pool, arom.Out[:]...)
	addLUTs(30 + r.Intn(60))

	// Synchronous ROM driving the pre-allocated output nets.
	var srom ROM
	srom.Name = "srom"
	srom.Sync = true
	srom.Contents = randContents()
	for b := 0; b < 8; b++ {
		srom.Addr[b] = pool[r.Intn(len(pool))]
	}
	copy(srom.Out[:], syncOut)
	nl.AddROM(srom)

	for i, q := range ffQ {
		en := Invalid
		if r.Intn(2) == 0 {
			en = pool[r.Intn(len(pool))]
		}
		nl.AddFF(FF{
			D: pool[r.Intn(len(pool))], En: en, Q: q,
			Init: r.Intn(2) == 0, Name: "ff[" + string(rune('0'+i%10)) + "]",
		})
	}
	outs := make([]NetID, 8)
	for i := range outs {
		outs[i] = pool[r.Intn(len(pool))]
	}
	nl.AddOutput("dout", outs)
	return nl
}

// compareSims asserts that the reference and compiled simulators agree on
// every piece of observable and internal state.
func compareSims(t *testing.T, ref, cmp *Simulator, what string) {
	t.Helper()
	for n := 0; n < ref.nl.NumNets(); n++ {
		if ref.w.Vals[n] != cmp.w.Vals[n] {
			t.Fatalf("%s: net %d: reference %#x, compiled %#x", what, n, ref.w.Vals[n], cmp.w.Vals[n])
		}
	}
	for i := range ref.w.Q {
		if ref.w.Q[i] != cmp.w.Q[i] {
			t.Fatalf("%s: FF %d: reference %#x, compiled %#x", what, i, ref.w.Q[i], cmp.w.Q[i])
		}
	}
	for i := range ref.w.ROMQ {
		if ref.w.ROMQ[i] != cmp.w.ROMQ[i] {
			t.Fatalf("%s: sync ROM reg %d differs", what, i)
		}
	}
	if ref.Cycle() != cmp.Cycle() {
		t.Fatalf("%s: cycle %d vs %d", what, ref.Cycle(), cmp.Cycle())
	}
	if ref.injected != cmp.injected {
		t.Fatalf("%s: injections %d vs %d", what, ref.injected, cmp.injected)
	}
	if ref.romFaults != cmp.romFaults {
		t.Fatalf("%s: ROM injections %d vs %d", what, ref.romFaults, cmp.romFaults)
	}
	for i := range ref.ROMStores() {
		rs, cs := ref.ROMStore(i).Stats(), cmp.ROMStore(i).Stats()
		if rs != cs {
			t.Fatalf("%s: ROM %d EDAC stats: reference %+v, compiled %+v", what, i, rs, cs)
		}
	}
}

// TestCompiledDifferentialFuzz runs random netlists under random stimulus,
// scheduled FF flips, stuck-ats and ROM damage on the reference and a
// compiled simulator in lockstep; every Eval and Step must leave both with
// identical net values, sequential state, cycle counts, injection counters
// and EDAC read statistics.
func TestCompiledDifferentialFuzz(t *testing.T) {
	rounds, cycles := 10, 140
	if testing.Short() {
		rounds, cycles = 3, 50
	}
	for round := 0; round < rounds; round++ {
		r := rand.New(rand.NewSource(0xC0DE + int64(round)))
		nl := randomNetlist(r)
		ref, err := newReferenceSimulator(nl)
		if err != nil {
			t.Fatalf("round %d: reference: %v", round, err)
		}
		cmp, err := NewSimulator(nl)
		if err != nil {
			t.Fatalf("round %d: compiled: %v", round, err)
		}
		nFF := ref.NumFFs()
		for cyc := 0; cyc < cycles; cyc++ {
			// Identical stimulus on both: broadcast or single-lane edits.
			if cyc == 0 || r.Intn(3) == 0 {
				din, ctl := r.Uint64(), r.Uint64()
				for _, s := range []*Simulator{ref, cmp} {
					if err := s.SetInput("din", din); err != nil {
						t.Fatal(err)
					}
					if err := s.SetInput("ctl", ctl); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				lane, v := r.Intn(64), r.Uint64()
				for _, s := range []*Simulator{ref, cmp} {
					if err := s.SetInputLane("din", lane, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Identical fault activity on both.
			switch r.Intn(12) {
			case 0:
				delay, lanes, ff := r.Intn(4), r.Uint64()|1, r.Intn(nFF)
				ref.ScheduleFlipLanes(delay, lanes, ff)
				cmp.ScheduleFlipLanes(delay, lanes, ff)
			case 1:
				ff := r.Intn(nFF)
				ref.FlipFF(ff)
				cmp.FlipFF(ff)
			case 2:
				ff, val := r.Intn(nFF), r.Intn(2) == 0
				ref.StickFF(ff, val)
				cmp.StickFF(ff, val)
			case 3:
				rom, word, bit := r.Intn(2), r.Intn(256), r.Intn(13)
				ref.FlipROMBit(rom, word, bit)
				cmp.FlipROMBit(rom, word, bit)
			case 4:
				delay, rom, word, bit, val := r.Intn(4), r.Intn(2), r.Intn(256), r.Intn(13), r.Intn(2) == 0
				ref.ScheduleStickROMBit(delay, rom, word, bit, val)
				cmp.ScheduleStickROMBit(delay, rom, word, bit, val)
			case 5:
				if cyc > 0 && r.Intn(4) == 0 {
					ref.Reset()
					cmp.Reset()
				}
			case 6:
				if r.Intn(4) == 0 {
					ref.ClearFaults()
					cmp.ClearFaults()
				}
			case 7:
				// State restoration into the compiled simulator must force a
				// full re-evaluation. CopyStateFrom drops the destination's
				// scheduled transient upsets, so mirror that on the source to
				// keep the two fault schedules comparable.
				if err := cmp.CopyStateFrom(ref); err != nil {
					t.Fatal(err)
				}
				ref.flips = nil
			}
			ref.Eval()
			cmp.Eval()
			compareSims(t, ref, cmp, fmt.Sprintf("round %d cyc %d after Eval", round, cyc))
			ref.Step()
			cmp.Step()
			compareSims(t, ref, cmp, fmt.Sprintf("round %d cyc %d after Step", round, cyc))
		}
	}
}

// TestCompiledQuiescentFuzz drives the paths the edit-every-cycle fuzz above
// never reaches: cycles with no stimulus edit, the lockstep's Step, Eval,
// Eval pattern (the later Evals skip the sweep), and ROM damage, repair or
// scrubs landing between two Evals with unchanged inputs, where a quiescent
// pass must resume right after the ROM whose read data moved. Reference and
// compiled simulators are compared after every Eval and Step. The test also
// requires that ROM activity moved net values on a quiescent Eval at least
// once, so the resume path is not exercised vacuously.
func TestCompiledQuiescentFuzz(t *testing.T) {
	rounds, cycles := 10, 120
	if testing.Short() {
		rounds, cycles = 3, 40
	}
	moved := 0
	for round := 0; round < rounds; round++ {
		r := rand.New(rand.NewSource(0x5EED + int64(round)))
		nl := randomNetlist(r)
		ref, err := newReferenceSimulator(nl)
		if err != nil {
			t.Fatalf("round %d: reference: %v", round, err)
		}
		cmp, err := NewSimulator(nl)
		if err != nil {
			t.Fatalf("round %d: compiled: %v", round, err)
		}
		both := func(f func(s *Simulator)) { f(ref); f(cmp) }
		eval := func(cyc int, what string) {
			ref.Eval()
			cmp.Eval()
			compareSims(t, ref, cmp, fmt.Sprintf("round %d cyc %d after %s", round, cyc, what))
		}
		for cyc := 0; cyc < cycles; cyc++ {
			// Stimulus on a third of the cycles; the rest run with none.
			if cyc == 0 || r.Intn(3) == 0 {
				lane, v := r.Intn(64), r.Uint64()
				both(func(s *Simulator) {
					if err := s.SetInputLane("din", lane, v); err != nil {
						t.Fatal(err)
					}
				})
			}
			ref.Step()
			cmp.Step()
			compareSims(t, ref, cmp, fmt.Sprintf("round %d cyc %d after Step", round, cyc))
			eval(cyc, "first Eval")

			// ROM activity on the word some lane currently addresses.
			rom := r.Intn(len(nl.ROMs))
			lane := r.Intn(64)
			word := 0
			for b, a := range nl.ROMs[rom].Addr {
				word |= int(ref.NetWord(a)>>uint(lane)&1) << uint(b)
			}
			touched := true
			switch r.Intn(5) {
			case 0: // two flips: uncorrectable, read data may move
				b1, b2 := r.Intn(13), r.Intn(13)
				both(func(s *Simulator) {
					s.FlipROMBit(rom, word, b1)
					s.FlipROMBit(rom, word, b2)
				})
			case 1:
				bit, val := r.Intn(13), r.Intn(2) == 0
				both(func(s *Simulator) { s.StickROMBit(rom, word, bit, val) })
			case 2:
				both(func(s *Simulator) { s.ROMStore(rom).Scrub(word) })
			case 3:
				both(func(s *Simulator) { s.ClearFaults() })
			default:
				touched = false
			}
			before := append([]uint64(nil), ref.w.Vals...)
			eval(cyc, "second Eval")
			if touched && !slices.Equal(before, ref.w.Vals) {
				moved++
			}
			eval(cyc, "third Eval")
		}
	}
	if moved == 0 {
		t.Fatal("ROM activity never moved net values on a quiescent Eval")
	}
	t.Logf("%d quiescent Evals saw ROM read data move", moved)
}

// TestCompiledSetInputBitsLength locks in the exact-length contract on the
// exported constructor and the reference: both undersized and oversized
// byte buffers are rejected.
func TestCompiledSetInputBitsLength(t *testing.T) {
	nl := New("len")
	in := nl.AddInput("d", 12)
	nl.AddOutput("q", in)
	for _, mk := range []func(*Netlist) (*Simulator, error){NewSimulator, newReferenceSimulator} {
		s, err := mk(nl)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetInputBits("d", make([]byte, 2)); err != nil {
			t.Fatalf("exact-size buffer rejected: %v", err)
		}
		if err := s.SetInputBits("d", make([]byte, 1)); err == nil {
			t.Fatal("undersized buffer accepted")
		}
		if err := s.SetInputBits("d", make([]byte, 3)); err == nil {
			t.Fatal("oversized buffer accepted")
		}
		if err := s.SetInputBitsLane("d", 3, make([]byte, 3)); err == nil {
			t.Fatal("oversized buffer accepted by SetInputBitsLane")
		}
	}
}

// benchNetlist is a deterministic mid-size netlist for the Eval benchmarks.
func benchNetlist() *Netlist {
	return randomNetlist(rand.New(rand.NewSource(42)))
}

// BenchmarkNetlistEval measures steady-state Step throughput (one Eval plus
// the clock edge) under scalar (lane-uniform broadcast) and 64-lane mixed
// stimulus.
func BenchmarkNetlistEval(b *testing.B) {
	nl := benchNetlist()
	for _, lanes := range []string{"scalar", "lanes64"} {
		b.Run(lanes, func(b *testing.B) {
			s, err := NewSimulator(nl)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(7))
			if lanes == "lanes64" {
				for lane := 0; lane < 64; lane++ {
					if err := s.SetInputLane("din", lane, r.Uint64()); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%16 == 0 {
					if err := s.SetInput("ctl", uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
				s.Step()
			}
		})
	}
}
