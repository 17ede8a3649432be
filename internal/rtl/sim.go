package rtl

import (
	"rijndaelip/internal/lanesim"
	"rijndaelip/internal/logic"
)

// Simulator is a cycle-accurate, 64-lane bit-parallel simulator of an
// elaborated design: the design's compiled AIG tape inside the shared lane
// machine (internal/lanesim), which supplies the ports (SetInput*,
// Output*, RegValue*), Eval, Step, Reset, Cycle and the per-simulator EDAC
// ROM stores.
//
// Lane/word data layout (see internal/logic/lanes.go): every simulated
// value is a uint64 lane word whose bit L is the value seen by independent
// lane L. Registers hold one lane word per register bit and latch under
// the per-lane enable mask; ROM reads gather contents[addr] per lane
// through an EDAC store (internal/edac) that corrects single-bit storage
// errors on read. The scalar API broadcasts stimulus across all lanes and
// reads lane 0, which reproduces single-device semantics exactly; the
// *Lane variants drive and observe a single lane.
type Simulator struct {
	*lanesim.Machine
	d *Design
	w *lanesim.Words
}

// NewSimulator returns a simulator with registers at their initial values
// (broadcast across all lanes), backed by the design's compiled instruction
// tape: combinational logic runs as one segmented, branch-free linear sweep
// over a packed tape (asynchronous ROMs resolved in place rather than by
// whole-AIG re-passes), and the sweep is skipped altogether when no
// stimulus or sequential state moved at all.
func (d *Design) NewSimulator() *Simulator {
	sc := d.compiledSched()
	s := &Simulator{d: d}
	s.Machine, s.w = lanesim.New(sc.layout, sc.tape)
	return s
}

// NewCompiledSimulator is NewSimulator.
//
// Deprecated: every simulator runs the compiled tape; use NewSimulator.
func (d *Design) NewCompiledSimulator() *Simulator { return d.NewSimulator() }

// newReferenceSimulator returns a simulator that evaluates through
// maxROMLevel+2 whole-AIG passes instead of the tape. It is the
// differential reference the tape is fuzzed against, observationally
// identical to NewSimulator: same outputs, register/ROM state, cycle counts
// and EDAC read statistics.
func (d *Design) newReferenceSimulator() *Simulator {
	s := &Simulator{d: d}
	s.Machine, s.w = lanesim.NewReference(d.compiledSched().layout, s.evalReference)
	return s
}

// evalReference is the reference simulator's Eval. It presents register
// and synchronous ROM state, then resolves asynchronous ROM reads level by
// level: after each evaluation pass, every ROM whose address cone is
// already valid (level == pass) latches its per-lane read data onto its
// output pseudo-inputs, and the AIG is re-evaluated. A final pass
// propagates the last level's outputs.
func (s *Simulator) evalReference() {
	b := s.d.b
	k := 0 // state words are the registers' bits in declaration order
	for i := range b.regs {
		for _, l := range b.regs[i].q {
			s.setInputWord(l, s.w.Q[k])
			k++
		}
	}
	for i := range b.roms {
		if b.roms[i].style == ROMSync {
			for bit, l := range b.roms[i].out {
				s.setInputWord(l, s.w.ROMQ[i][bit])
			}
		}
	}
	for lvl := 0; lvl <= s.d.maxROMLevel; lvl++ {
		b.aig.EvalInto(s.w.Src, s.w.Vals)
		for ri := range b.roms {
			if s.d.romLevels[ri] != lvl {
				continue
			}
			rom := &b.roms[ri]
			var addr [8]uint64
			for bit, l := range rom.addr {
				addr[bit] = logic.LitValue(s.w.Vals, l)
			}
			data := s.ROMStores()[ri].Gather(&addr)
			for bit, l := range rom.out {
				s.setInputWord(l, data[bit])
			}
		}
	}
	b.aig.EvalInto(s.w.Src, s.w.Vals)
}

// setInputWord presents a full lane word on an AIG pseudo-input.
func (s *Simulator) setInputWord(l logic.Lit, w uint64) {
	s.w.Src[s.d.b.aig.InputOrdinal(l)] = w
}

// Lit returns the lane-0 value of an arbitrary literal after the last
// Eval/Step.
func (s *Simulator) Lit(l logic.Lit) bool {
	return logic.LitValue(s.w.Vals, l)&1 != 0
}

// LitWord returns the full lane word of an arbitrary literal after the
// last Eval/Step.
func (s *Simulator) LitWord(l logic.Lit) uint64 {
	return logic.LitValue(s.w.Vals, l)
}
