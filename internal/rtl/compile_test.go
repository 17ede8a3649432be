package rtl

import (
	"fmt"
	"math/rand"
	"testing"

	"rijndaelip/internal/logic"
)

// randomDesign elaborates a random but valid RTL design: registers with
// random enables and init values, chained asynchronous ROMs (so the
// level-by-level resolution runs more than one pass), a synchronous ROM,
// and random AND/OR/XOR/MUX logic over everything.
func randomDesign(t testing.TB, r *rand.Rand) *Design {
	b := NewBuilder("fuzz")
	g := b.Logic()
	pool := []logic.Lit{logic.False, logic.True}
	pool = append(pool, b.Input("din", 8+r.Intn(9))...)
	pool = append(pool, b.Input("ctl", 1+r.Intn(3))...)
	pick := func() logic.Lit {
		l := pool[r.Intn(len(pool))]
		if r.Intn(2) == 0 {
			l = logic.Not(l)
		}
		return l
	}
	grow := func(n int) {
		for i := 0; i < n; i++ {
			switch r.Intn(4) {
			case 0:
				pool = append(pool, g.And(pick(), pick()))
			case 1:
				pool = append(pool, g.Or(pick(), pick()))
			case 2:
				pool = append(pool, g.Xor(pick(), pick()))
			default:
				pool = append(pool, g.Mux(pick(), pick(), pick()))
			}
		}
	}
	regs := make([]*Reg, 2+r.Intn(3))
	for i := range regs {
		regs[i] = b.Reg(fmt.Sprintf("r%d", i), 4+r.Intn(8))
		pool = append(pool, regs[i].Q...)
	}
	randContents := func() (c [256]byte) {
		for i := range c {
			c[i] = byte(r.Intn(256))
		}
		return
	}
	addr := func() Bus {
		a := make(Bus, 8)
		for i := range a {
			a[i] = pick()
		}
		return a
	}
	grow(30 + r.Intn(60))
	rom0 := b.ROM("rom0", addr(), randContents(), ROMAsync)
	pool = append(pool, rom0...)
	grow(20 + r.Intn(40))
	// rom1's address cone can include rom0's outputs: dependency level 1.
	rom1 := b.ROM("rom1", addr(), randContents(), ROMAsync)
	pool = append(pool, rom1...)
	grow(20 + r.Intn(40))
	b.ROM("rom2", addr(), randContents(), ROMSync)
	grow(10 + r.Intn(20))
	for _, reg := range regs {
		next := make(Bus, len(reg.Q))
		for i := range next {
			next[i] = pick()
		}
		en := logic.True
		if r.Intn(2) == 0 {
			en = pick()
		}
		reg.SetNext(next, en)
		init := make([]bool, len(reg.Q))
		for i := range init {
			init[i] = r.Intn(2) == 0
		}
		reg.SetInit(init)
	}
	out := make(Bus, 8)
	for i := range out {
		out[i] = pick()
	}
	b.Output("dout", out)
	d, err := b.Build()
	if err != nil {
		t.Fatalf("random design invalid: %v", err)
	}
	return d
}

// compareRTL asserts the reference and compiled simulators agree on all
// node values, sequential state, cycle counts and EDAC statistics.
func compareRTL(t *testing.T, ref, cmp *Simulator, what string) {
	t.Helper()
	for id := range ref.values {
		if ref.values[id] != cmp.values[id] {
			t.Fatalf("%s: node %d: reference %#x, compiled %#x", what, id, ref.values[id], cmp.values[id])
		}
	}
	for i := range ref.regQ {
		for bit := range ref.regQ[i] {
			if ref.regQ[i][bit] != cmp.regQ[i][bit] {
				t.Fatalf("%s: reg %d bit %d: reference %#x, compiled %#x", what, i, bit, ref.regQ[i][bit], cmp.regQ[i][bit])
			}
		}
	}
	for i := range ref.romQ {
		if ref.romQ[i] != cmp.romQ[i] {
			t.Fatalf("%s: sync ROM reg %d differs", what, i)
		}
	}
	if ref.cycles != cmp.cycles {
		t.Fatalf("%s: cycles %d vs %d", what, ref.cycles, cmp.cycles)
	}
	for i := range ref.roms {
		rs, cs := ref.roms[i].Stats(), cmp.roms[i].Stats()
		if rs != cs {
			t.Fatalf("%s: ROM %d EDAC stats: reference %+v, compiled %+v", what, i, rs, cs)
		}
	}
}

// TestRTLCompiledDifferentialFuzz drives random designs with random
// stimulus and live ROM-store damage through the reference and a compiled
// simulator in lockstep; both must stay bit-identical after every Eval and
// Step, including EDAC correction counters.
func TestRTLCompiledDifferentialFuzz(t *testing.T) {
	rounds, cycles := 8, 120
	if testing.Short() {
		rounds, cycles = 3, 40
	}
	for round := 0; round < rounds; round++ {
		r := rand.New(rand.NewSource(0xD1FF + int64(round)))
		d := randomDesign(t, r)
		ref := d.newReferenceSimulator()
		cmp := d.NewSimulator()
		for cyc := 0; cyc < cycles; cyc++ {
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
				lane, v := r.Intn(logic.Lanes), r.Uint64()
				for _, s := range []*Simulator{ref, cmp} {
					if err := s.SetInputLane("din", lane, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			switch r.Intn(10) {
			case 0:
				rom, word, bit := r.Intn(3), r.Intn(256), r.Intn(13)
				ref.ROMStores()[rom].FlipBit(word, bit)
				cmp.ROMStores()[rom].FlipBit(word, bit)
			case 1:
				rom, word, bit, val := r.Intn(3), r.Intn(256), r.Intn(13), r.Intn(2) == 0
				ref.ROMStores()[rom].StickBit(word, bit, val)
				cmp.ROMStores()[rom].StickBit(word, bit, val)
			case 2:
				rom, word := r.Intn(3), r.Intn(256)
				ref.ROMStores()[rom].Scrub(word)
				cmp.ROMStores()[rom].Scrub(word)
			case 3:
				if rom := r.Intn(3); r.Intn(4) == 0 {
					ref.ROMStores()[rom].ClearFaults()
					cmp.ROMStores()[rom].ClearFaults()
				}
			case 4:
				if cyc > 0 && r.Intn(4) == 0 {
					ref.Reset()
					cmp.Reset()
				}
			}
			ref.Eval()
			cmp.Eval()
			compareRTL(t, ref, cmp, fmt.Sprintf("round %d cyc %d after Eval", round, cyc))
			ref.Step()
			cmp.Step()
			compareRTL(t, ref, cmp, fmt.Sprintf("round %d cyc %d after Step", round, cyc))
		}
	}
}

// BenchmarkRTLEval measures steady-state Step throughput under scalar and
// 64-lane stimulus.
func BenchmarkRTLEval(b *testing.B) {
	d := randomDesign(b, rand.New(rand.NewSource(42)))
	for _, lanes := range []string{"scalar", "lanes64"} {
		b.Run(lanes, func(b *testing.B) {
			s := d.NewSimulator()
			r := rand.New(rand.NewSource(7))
			if lanes == "lanes64" {
				for lane := 0; lane < logic.Lanes; lane++ {
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

// TestCompiledSetInputBitsLength locks in the exact-length contract the
// netlist simulator also keeps (see the netlist package's test of the same
// name), on the compiled simulator and the reference: undersized and
// oversized byte buffers are both rejected, so the same driver call
// behaves the same before and after synthesis.
func TestCompiledSetInputBitsLength(t *testing.T) {
	b := NewBuilder("len")
	b.Output("q", b.Input("d", 12))
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Simulator{d.NewSimulator(), d.newReferenceSimulator()} {
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
