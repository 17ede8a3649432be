package netlist_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"rijndaelip"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/netlist"
)

// shippedNetlist maps the one netlist cmd/tapegen generates a kernel for:
// the Encrypt core as rijndaelip.Build maps it for the Acex1K.
func shippedNetlist(t testing.TB) (*rijndaelip.Implementation, *netlist.Netlist) {
	t.Helper()
	impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	return impl, impl.Netlist.Raw()
}

// cloneNetlist copies a netlist through the public constructors, so the
// copy starts unbuilt and uncompiled.
func cloneNetlist(nl *netlist.Netlist) *netlist.Netlist {
	c := netlist.New(nl.Name)
	c.NewNets(nl.NumNets() - 2)
	c.Inputs = slices.Clone(nl.Inputs)
	c.Outputs = slices.Clone(nl.Outputs)
	for _, l := range nl.LUTs {
		l.Inputs = slices.Clone(l.Inputs)
		c.AddLUT(l)
	}
	for _, f := range nl.FFs {
		c.AddFF(f)
	}
	for _, r := range nl.ROMs {
		c.AddROM(r)
	}
	return c
}

// TestKernelsUpToDate regenerates the committed kernel in memory and
// byte-compares: the file is what the generator makes of the shipped
// netlist today.
func TestKernelsUpToDate(t *testing.T) {
	_, nl := shippedNetlist(t)
	src, err := netlist.KernelSource("encrypt", nl)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("kernel_encrypt.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, committed) {
		t.Fatal("kernel_encrypt.go is not the generator's output for the shipped netlist: run `make kernels`")
	}
}

// compareSims asserts that two simulators agree on every net word, output,
// state word, cycle and injection count and EDAC read statistic.
func compareSims(t *testing.T, nl *netlist.Netlist, a, b *netlist.Simulator, what string) {
	t.Helper()
	for n := netlist.NetID(0); int(n) < nl.NumNets(); n++ {
		if wa, wb := a.NetWord(n), b.NetWord(n); wa != wb {
			t.Fatalf("%s: net %d: %#x vs %#x", what, n, wa, wb)
		}
	}
	for _, p := range nl.Outputs {
		wa, err := a.OutputWords(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := b.OutputWords(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(wa, wb) {
			t.Fatalf("%s: output %s differs", what, p.Name)
		}
	}
	if qa, qb := a.StateWords(), b.StateWords(); !slices.Equal(qa, qb) {
		t.Fatalf("%s: flip-flop state differs", what)
	}
	if a.Cycle() != b.Cycle() || a.Injections() != b.Injections() || a.ROMInjections() != b.ROMInjections() {
		t.Fatalf("%s: cycle %d/%d, injections %d/%d, ROM injections %d/%d", what,
			a.Cycle(), b.Cycle(), a.Injections(), b.Injections(), a.ROMInjections(), b.ROMInjections())
	}
	for i := range a.ROMStores() {
		if sa, sb := a.ROMStore(i).Stats(), b.ROMStore(i).Stats(); sa != sb {
			t.Fatalf("%s: ROM %d EDAC stats %+v vs %+v", what, i, sa, sb)
		}
	}
}

// fuzzLockstep drives a and b, two simulators of nl, with identical
// lane-divergent stimulus and fault activity — FF flips on lane masks,
// scheduled multi-bit upsets, stuck FFs, ROM flips and stuck bits,
// ClearFaults, CopyStateFrom a third simulator and Reset — and compares
// them after every Eval and Step. Half the cycles also damage a ROM word
// some lane addresses between two Evals, so the quiescent pass resumes
// the sweep after that ROM.
func fuzzLockstep(t *testing.T, nl *netlist.Netlist, a, b *netlist.Simulator, seed int64, cycles int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	donor, err := netlist.NewTapeSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	both := func(f func(s *netlist.Simulator)) { f(a); f(b) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	eval := func(cyc int, what string) {
		t.Helper()
		a.Eval()
		b.Eval()
		compareSims(t, nl, a, b, fmt.Sprintf("seed %#x cyc %d after %s", seed, cyc, what))
	}
	nFF, nROM := a.NumFFs(), a.NumROMs()
	for cyc := 0; cyc < cycles; cyc++ {
		for _, p := range nl.Inputs {
			bits := make([]byte, (len(p.Nets)+7)/8)
			for lane := 0; lane < 64; lane++ {
				if r.Intn(4) != 0 {
					continue
				}
				r.Read(bits)
				both(func(s *netlist.Simulator) { must(s.SetInputBitsLane(p.Name, lane, bits)) })
				must(donor.SetInputBitsLane(p.Name, lane, bits))
			}
		}
		switch r.Intn(12) {
		case 0:
			ff, lanes := r.Intn(nFF), r.Uint64()
			both(func(s *netlist.Simulator) { s.FlipFFLanes(ff, lanes) })
		case 1:
			delay, ff1, ff2 := r.Intn(3), r.Intn(nFF), r.Intn(nFF)
			both(func(s *netlist.Simulator) { s.ScheduleFlip(delay, ff1, ff2) })
		case 2:
			ff, val := r.Intn(nFF), r.Intn(2) == 0
			both(func(s *netlist.Simulator) { s.StickFF(ff, val) })
		case 3:
			rom, word, bit := r.Intn(nROM), r.Intn(256), r.Intn(13)
			both(func(s *netlist.Simulator) { s.FlipROMBit(rom, word, bit) })
		case 4:
			rom, word, bit, val := r.Intn(nROM), r.Intn(256), r.Intn(13), r.Intn(2) == 0
			both(func(s *netlist.Simulator) { s.StickROMBit(rom, word, bit, val) })
		case 5:
			both(func(s *netlist.Simulator) { s.ClearFaults() })
		case 6:
			both(func(s *netlist.Simulator) { must(s.CopyStateFrom(donor)) })
		case 7:
			if r.Intn(3) == 0 {
				both(func(s *netlist.Simulator) { s.Reset() })
			}
		}
		eval(cyc, "Eval")
		if r.Intn(2) == 0 {
			rom, lane := r.Intn(nROM), r.Intn(64)
			word := 0
			for bit, n := range nl.ROMs[rom].Addr {
				word |= int(a.NetWord(n)>>uint(lane)&1) << uint(bit)
			}
			b1, b2 := r.Intn(13), r.Intn(13)
			both(func(s *netlist.Simulator) {
				s.FlipROMBit(rom, word, b1)
				s.FlipROMBit(rom, word, b2)
			})
			eval(cyc, "quiescent Eval after ROM damage")
		}
		a.Step()
		b.Step()
		compareSims(t, nl, a, b, fmt.Sprintf("seed %#x cyc %d after Step", seed, cyc))
		donor.Step()
	}
}

// TestKernelDifferentialFuzz checks the generator's translation: the
// shipped netlist's simulator is bound to the generated kernel, and it
// matches a simulator of the same netlist that sweeps the tape on every
// net, output, state word and EDAC counter under lane-divergent stimulus
// and every fault the simulator can inject.
func TestKernelDifferentialFuzz(t *testing.T) {
	_, nl := shippedNetlist(t)
	if msgs, bound, err := netlist.AuditKernel(nl); err != nil || !bound || len(msgs) != 0 {
		t.Fatalf("shipped netlist: kernel bound %v, audit %v, %v", bound, msgs, err)
	}
	rounds, cycles := 4, 150
	if testing.Short() {
		rounds, cycles = 2, 60
	}
	for round := 0; round < rounds; round++ {
		kern, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		tape, err := netlist.NewTapeSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		if !kern.KernelBound() || tape.KernelBound() {
			t.Fatalf("kernel bound: NewSimulator %v, NewTapeSimulator %v", kern.KernelBound(), tape.KernelBound())
		}
		if msgs, ok := kern.AuditTape(); !ok || len(msgs) != 0 {
			t.Fatalf("AuditTape: ok=%v findings=%v", ok, msgs)
		}
		fuzzLockstep(t, nl, kern, tape, 0xCAFE+int64(round), cycles)
	}
}

// TestKernelFingerprintMiss: a copy of the shipped netlist still binds the
// kernel, but one flipped LUT mask bit in another copy changes the tape,
// so its fingerprint misses: the audit reports no kernel and no finding,
// and the simulator sweeps the tape and matches the reference simulator.
func TestKernelFingerprintMiss(t *testing.T) {
	_, nl := shippedNetlist(t)
	if _, bound, err := netlist.AuditKernel(cloneNetlist(nl)); err != nil || !bound {
		t.Fatalf("unmodified copy: kernel bound %v, %v", bound, err)
	}
	mut := cloneNetlist(nl)
	lut := slices.IndexFunc(mut.LUTs, func(l netlist.LUT) bool {
		ins := slices.Clone(l.Inputs)
		slices.Sort(ins)
		return len(slices.Compact(ins)) == 4 && ins[0] > netlist.Const1
	})
	if lut < 0 {
		t.Fatal("no LUT with four distinct inputs")
	}
	mut.LUTs[lut].Mask ^= 1 << 5
	msgs, bound, err := netlist.AuditKernel(mut)
	if err != nil || bound || len(msgs) != 0 {
		t.Fatalf("mutated copy: kernel bound %v, audit %v, %v", bound, msgs, err)
	}
	sim, err := netlist.NewSimulator(mut)
	if err != nil {
		t.Fatal(err)
	}
	if sim.KernelBound() {
		t.Fatal("NewSimulator bound the kernel to a mutated tape")
	}
	ref, err := netlist.NewReferenceSimulator(mut)
	if err != nil {
		t.Fatal(err)
	}
	cycles := 100
	if testing.Short() {
		cycles = 40
	}
	fuzzLockstep(t, mut, sim, ref, 0xF1A9, cycles)
}

// BenchmarkNetlistEval measures steady-state Step throughput (one Eval plus
// the clock edge): on a random mid-size netlist under scalar (lane-uniform
// broadcast) and 64-lane mixed stimulus, and on the shipped Encrypt core
// encrypting 64 divergent blocks back to back (every Step a dirty sweep),
// through its generated kernel and through the tape.
func BenchmarkNetlistEval(b *testing.B) {
	nl := netlist.RandomNetlist(rand.New(rand.NewSource(42)))
	for _, lanes := range []string{"scalar", "lanes64"} {
		b.Run(lanes, func(b *testing.B) {
			s, err := netlist.NewSimulator(nl)
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
	impl, enc := shippedNetlist(b)
	for _, sweep := range []struct {
		name string
		new  func(*netlist.Netlist) (*netlist.Simulator, error)
	}{{"encrypt/kernel", netlist.NewSimulator}, {"encrypt/tape", netlist.NewTapeSimulator}} {
		b.Run(sweep.name, func(b *testing.B) {
			s, err := sweep.new(enc)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(7))
			key := make([]byte, 16)
			r.Read(key)
			if _, err := bfm.NewPostSynthesis(impl.Core, s).LoadKey(key); err != nil {
				b.Fatal(err)
			}
			blk := make([]byte, 16)
			for lane := 0; lane < 64; lane++ {
				r.Read(blk)
				if err := s.SetInputBitsLane("din", lane, blk); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.SetInput("wr_data", 1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
