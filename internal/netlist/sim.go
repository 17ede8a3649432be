package netlist

import (
	"fmt"
	"strconv"
	"strings"

	"rijndaelip/internal/edac"
	"rijndaelip/internal/lanesim"
	"rijndaelip/internal/logic"
)

// Simulator evaluates a netlist cycle by cycle on 64 parallel lanes: the
// netlist's compiled instruction tape inside the shared lane machine
// (internal/lanesim), which supplies the ports (SetInput*, Output*,
// RegValue*), Eval, Step's latching, Reset, Cycle and the per-simulator
// EDAC ROM stores. The simulator adds net access, fault injection and
// state restoration.
//
// Lane/word data layout (see internal/logic/lanes.go): every net and
// flip-flop value is a uint64 lane word whose bit L belongs to independent
// lane L. LUTs are evaluated bit-parallel over the input lane words,
// flip-flops latch under a per-lane enable mask, and ROM macros gather
// contents[addr] per lane through a per-simulator EDAC store
// (internal/edac): each read decodes the SECDED codeword, correcting
// single-bit errors and counting the event, so an injected ROM upset is
// invisible to the datapath until it grows beyond what the code covers.
// The scalar API (SetInput, Output, Net, RegValue, FlipFF) broadcasts
// across all lanes and observes lane 0 — single-device semantics — while
// the *Lane/*Lanes variants address individual lanes, so one gate-level
// sweep carries up to 64 independent blocks or fault scenarios.
// RegValue reads the flip-flops named "name[i]" (the naming convention the
// RTL elaborator uses), which gives post-synthesis simulations the same
// register visibility as RTL simulations.
type Simulator struct {
	*lanesim.Machine
	nl     *Netlist
	w      *lanesim.Words
	comp   *compiled   // nil on the test-only reference simulator
	kernel *kernelTape // the generated kernel this simulator sweeps through, nil: the tape

	// Fault-injection state (see ScheduleFlip / StickFF / StickROMBit).
	flips     map[int][]laneFlip // pending transient upsets, keyed by target cycle
	stuck     map[int]bool       // permanent stuck-at faults: FF index -> forced value
	romSticks map[int][]romStick // pending ROM stuck-ats, keyed by target cycle
	injected  int                // FF bit-flips applied so far
	romFaults int                // ROM bit faults applied so far
}

// romStick is one armed stuck-at ROM fault awaiting its strike cycle.
type romStick struct {
	rom, word, bit int
	val            bool
}

// laneFlip is one armed transient upset: the flip-flop inverts on the
// masked lanes only.
type laneFlip struct {
	ff    int
	lanes uint64
}

// NewSimulator builds the netlist and returns a simulator with all state at
// the flip-flops' init values (broadcast across all lanes), backed by the
// compiled instruction tape: combinational logic runs as an ungated linear
// sweep over fused word ops and fixed-arity LUT kernels, skipped whole when
// no presented state, stimulus or ROM read data moved since the previous
// evaluation. When a generated straight-line kernel's fingerprint matches
// the tape (kernel.go), the sweep runs through the kernel instead. The
// tape, layout and kernel lookup are compiled once per built netlist and
// shared by all its simulators.
func NewSimulator(nl *Netlist) (*Simulator, error) { return newSimulator(nl, true) }

// NewCompiledSimulator is NewSimulator.
//
// Deprecated: every simulator runs the compiled tape; use NewSimulator.
func NewCompiledSimulator(nl *Netlist) (*Simulator, error) { return NewSimulator(nl) }

// newReferenceSimulator returns a simulator that evaluates by walking the
// levelized order cell by cell instead of the tape. It is the differential
// reference the tape is fuzzed against, observationally identical to
// NewSimulator: same net values, sequential state, cycle counts, fault
// semantics and EDAC read statistics.
// Only its ports, ROM declarations and latch come from the shared layout.
func newReferenceSimulator(nl *Netlist) (*Simulator, error) {
	c, err := nl.compiledSched()
	if err != nil {
		return nil, err
	}
	s := &Simulator{nl: nl}
	s.Machine, s.w = lanesim.NewReference(c.lay, s.evalReference)
	s.w.Vals[Const1] = ^uint64(0)
	return s, nil
}

// newSimulator returns a simulator sweeping the netlist's shared tape,
// through its generated kernel when one is bound and useKernel is set.
func newSimulator(nl *Netlist, useKernel bool) (*Simulator, error) {
	c, err := nl.compiledSched()
	if err != nil {
		return nil, err
	}
	s := &Simulator{nl: nl, comp: c}
	var sweep lanesim.Tape = c.tape
	if useKernel && c.kernel != nil {
		s.kernel = c.kernel
		sweep = c.kernel
	}
	s.Machine, s.w = lanesim.New(c.lay, sweep)
	s.w.Vals[Const1] = ^uint64(0)
	return s, nil
}

// layout describes the netlist to the lane machine. Stimulus and state are
// presented on their own nets in the value array, consecutive flip-flops
// with the same enable form one latch group (a missing enable latches
// under constant 1), and the tape's opROM positions are the gather plan:
// sweep up to the ROM instruction, gather, resume after it. Registers are
// named by parsing the flip-flop names "name[i]".
func layout(nl *Netlist, t *tape) *lanesim.Layout {
	nFF := len(nl.FFs)
	lay := &lanesim.Layout{
		Pkg:     "netlist",
		NumVals: nl.NumNets(),
		Inputs:  map[string][]int32{},
		Outputs: map[string][]lanesim.Lit{},
		Regs:    map[string][]int32{},
		ROMs:    make([]lanesim.ROM, len(nl.ROMs)),
		Present: make([]int32, nFF),
		Next:    make([]lanesim.Lit, nFF),
		Init:    make([]bool, nFF),
	}
	for _, p := range nl.Inputs {
		at := make([]int32, len(p.Nets))
		for bit, n := range p.Nets {
			at[bit] = int32(n)
		}
		lay.Inputs[p.Name] = at
	}
	for _, p := range nl.Outputs {
		if _, dup := lay.Outputs[p.Name]; !dup {
			lay.Outputs[p.Name] = netLits(p.Nets)
		}
	}
	for i := range nl.FFs {
		f := &nl.FFs[i]
		en := f.En
		if en == Invalid {
			en = Const1
		}
		lay.Present[i] = int32(f.Q)
		lay.Next[i] = netLit(f.D)
		lay.Init[i] = f.Init
		if g := len(lay.Groups) - 1; g >= 0 && lay.Groups[g].En == netLit(en) {
			lay.Groups[g].Hi++
		} else {
			lay.Groups = append(lay.Groups, lanesim.Group{En: netLit(en), Lo: int32(i), Hi: int32(i + 1)})
		}
		open := strings.IndexByte(f.Name, '[')
		if open < 0 || !strings.HasSuffix(f.Name, "]") {
			continue
		}
		bit, err := strconv.Atoi(f.Name[open+1 : len(f.Name)-1])
		if err != nil || bit < 0 {
			continue
		}
		idx := lay.Regs[f.Name[:open]]
		for len(idx) <= bit {
			idx = append(idx, -1)
		}
		idx[bit] = int32(i)
		lay.Regs[f.Name[:open]] = idx
	}
	for i := range nl.ROMs {
		r := &nl.ROMs[i]
		lr := &lay.ROMs[i]
		*lr = lanesim.ROM{Name: r.Name, Contents: &r.Contents, Sync: r.Sync}
		for bit := range lr.Addr {
			lr.Addr[bit] = netLit(r.Addr[bit])
			lr.Out[bit] = int32(r.Out[bit])
		}
	}
	lay.End = len(t.instrs)
	for at := range t.instrs {
		if ins := &t.instrs[at]; ins.op == opROM {
			lay.Segs = append(lay.Segs, lanesim.Seg{ROM: int(ins.tbl), Stop: at, Resume: at + 1})
		}
	}
	return lay
}

// netLit names a net's lane word to the lane machine.
func netLit(n NetID) lanesim.Lit { return lanesim.Lit(n) << 1 }

func netLits(nets []NetID) []lanesim.Lit {
	out := make([]lanesim.Lit, len(nets))
	for i, n := range nets {
		out[i] = netLit(n)
	}
	return out
}

// Reset returns all sequential state to initial values on every lane.
// Scheduled transient upsets (FF flips and armed ROM stuck-ats alike) are
// dropped (they were relative to the aborted run), but faults already
// applied persist: a stuck flip-flop and a damaged or stuck ROM word are
// physical defects a reset cannot clear, which is exactly what
// retry-with-reset recovery policies need to observe.
func (s *Simulator) Reset() {
	s.Machine.Reset()
	s.w.Vals[Const1] = ^uint64(0)
	s.flips = nil
	s.romSticks = nil
	s.applyStuck()
}

// evalReference is the reference simulator's Eval: present sequential
// state on the driven nets, then walk the levelized order cell by cell.
func (s *Simulator) evalReference() {
	nl := s.nl
	values := s.w.Vals
	for i := range nl.FFs {
		values[nl.FFs[i].Q] = s.w.Q[i]
	}
	for i := range nl.ROMs {
		if nl.ROMs[i].Sync {
			for b, o := range nl.ROMs[i].Out {
				values[o] = s.w.ROMQ[i][b]
			}
		}
	}
	for _, cn := range nl.order {
		switch cn.Kind {
		case CombLUT:
			l := &nl.LUTs[cn.Index]
			values[l.Out] = evalLUT(values, l)
		case CombROM:
			r := &nl.ROMs[cn.Index]
			var addr [8]uint64
			for i, a := range r.Addr {
				addr[i] = values[a]
			}
			data := s.ROMStores()[cn.Index].Gather(&addr)
			for b, o := range r.Out {
				values[o] = data[b]
			}
		}
	}
}

// evalLUT computes a LUT's output lane word. The fast path handles
// lane-uniform inputs (the scalar broadcast case) with a single mask
// index; mixed lanes fall back to the bit-parallel mux fold.
func evalLUT(values []uint64, l *LUT) uint64 {
	idx := 0
	for i, in := range l.Inputs {
		switch v := values[in]; v {
		case 0:
		case ^uint64(0):
			idx |= 1 << uint(i)
		default:
			return evalLUTMixed(values, l)
		}
	}
	return logic.Word(l.Mask>>uint(idx)&1 != 0)
}

// evalLUTMixed evaluates a LUT bit-parallel across lanes: the truth-table
// mask, expanded into 2^k lane words, is folded down one selector input at
// a time (Shannon expansion, LSB selector first) — 2^k-1 lane-wide muxes
// replace 64 per-lane table lookups.
func evalLUTMixed(values []uint64, l *LUT) uint64 {
	var t [16]uint64
	w := 1 << uint(len(l.Inputs))
	for j := 0; j < w; j++ {
		t[j] = logic.Word(l.Mask>>uint(j)&1 != 0)
	}
	for _, in := range l.Inputs {
		v := values[in]
		w >>= 1
		for j := 0; j < w; j++ {
			t[j] = t[2*j]&^v | t[2*j+1]&v
		}
	}
	return t[0]
}

// Step performs one full clock cycle: evaluate combinational logic with the
// current inputs, then latch flip-flops and synchronous ROM outputs on the
// rising edge. Faults scheduled for this cycle strike first (so the flipped
// state is what the cycle's logic sees, matching FlipFF-then-Step), and
// stuck-at faults are re-asserted around the clock edge. Flip-flops latch
// per lane: lane L loads only when the enable is high on lane L.
func (s *Simulator) Step() {
	if lfs, ok := s.flips[s.w.Cycle]; ok {
		for _, lf := range lfs {
			s.FlipFFLanes(lf.ff, lf.lanes)
		}
		delete(s.flips, s.w.Cycle)
	}
	if rss, ok := s.romSticks[s.w.Cycle]; ok {
		for _, rs := range rss {
			s.StickROMBit(rs.rom, rs.word, rs.bit, rs.val)
		}
		delete(s.romSticks, s.w.Cycle)
	}
	s.applyStuck()
	s.Machine.Step()
	s.applyStuck()
}

// Net returns the lane-0 value of a net (after the last Eval/Step).
func (s *Simulator) Net(n NetID) bool { return s.w.Vals[n]&1 != 0 }

// NetWord returns the full lane word of a net (after the last Eval/Step).
func (s *Simulator) NetWord(n NetID) uint64 { return s.w.Vals[n] }

// NumFFs returns the number of flip-flops in the simulated netlist.
func (s *Simulator) NumFFs() int { return len(s.nl.FFs) }

// FlipFF injects a single-event upset on every lane: the state of
// flip-flop i is inverted, as a particle strike would do to a
// configuration- or user-register bit. The effect is visible at the next
// Eval. In broadcast (scalar) use all lanes stay identical, preserving
// single-device semantics.
func (s *Simulator) FlipFF(i int) { s.FlipFFLanes(i, ^uint64(0)) }

// FlipFFLanes injects a single-event upset on the masked lanes only: bit L
// of lanes set inverts flip-flop i's lane-L state. This is what lets a
// vectorized fault campaign carry 64 independent fault scenarios — one
// struck lane each — through a single simulation.
func (s *Simulator) FlipFFLanes(i int, lanes uint64) {
	if lanes == 0 {
		return
	}
	s.WriteState(func(q []uint64, _ [][8]uint64) { q[i] ^= lanes })
	s.injected++
}

// FFName returns the name of flip-flop i (for targeted fault campaigns).
func (s *Simulator) FFName(i int) string { return s.nl.FFs[i].Name }

// FindFF returns the index of the flip-flop with the given name, or -1.
func (s *Simulator) FindFF(name string) int {
	for i := range s.nl.FFs {
		if s.nl.FFs[i].Name == name {
			return i
		}
	}
	return -1
}

// ScheduleFlip arms a transient upset on every lane that strikes at the
// start of the Step that is delay Steps in the future (delay 0 = the very
// next Step). Passing several flip-flop indices models a multi-bit upset:
// all of them invert in the same cycle. Scheduling is relative to "now",
// so a caller can arm a fault and then hand the simulator to a
// bus-functional driver; the strike lands mid-transaction without the
// driver's cooperation.
func (s *Simulator) ScheduleFlip(delay int, ffs ...int) {
	s.ScheduleFlipLanes(delay, ^uint64(0), ffs...)
}

// ScheduleFlipLanes is ScheduleFlip restricted to the masked lanes: the
// upset inverts only lane L for each set bit L. Arming a different lane
// mask per fault lets one transaction sweep up to 64 independent fault
// scenarios.
func (s *Simulator) ScheduleFlipLanes(delay int, lanes uint64, ffs ...int) {
	if delay < 0 || len(ffs) == 0 || lanes == 0 {
		return
	}
	if s.flips == nil {
		s.flips = make(map[int][]laneFlip)
	}
	at := s.w.Cycle + delay
	for _, ff := range ffs {
		s.flips[at] = append(s.flips[at], laneFlip{ff: ff, lanes: lanes})
	}
}

// StickFF installs a permanent stuck-at fault: flip-flop i is forced to val
// on every clock edge (on all lanes) until ClearFaults. Unlike transient
// upsets, stuck-at faults survive Reset — they model a hard defect
// (latched configuration upset, shorted cell), the failure mode that
// defeats retry-from-reset recovery and forces graceful degradation.
func (s *Simulator) StickFF(i int, val bool) {
	if s.stuck == nil {
		s.stuck = make(map[int]bool)
	}
	s.stuck[i] = val
	s.force(i, val)
}

// NumROMs returns the number of ROM macros in the simulated netlist.
func (s *Simulator) NumROMs() int { return len(s.nl.ROMs) }

// ROMName returns the name of ROM macro i.
func (s *Simulator) ROMName(i int) string { return s.nl.ROMs[i].Name }

// ROMStore returns the EDAC store ROM macro i reads through. The store is
// safe for concurrent use, so a background scrubber may sweep it while
// the simulator runs on its own goroutine.
func (s *Simulator) ROMStore(i int) *edac.ROM { return s.ROMStores()[i] }

// FlipROMBit injects a transient upset into ROM storage: codeword bit
// `bit` of word `word` of ROM macro `rom` inverts. The error is corrected
// on every read by the EDAC code and repaired by the next scrub of the
// word — the memory-array analogue of FlipFF.
func (s *Simulator) FlipROMBit(rom, word, bit int) {
	s.ROMStore(rom).FlipBit(word, bit)
	s.romFaults++
}

// StickROMBit installs a hard stuck-at fault in ROM storage: the codeword
// bit is forced to val and re-asserts itself after every scrub rewrite,
// so the word stays faulty until ClearFaults. Like StickFF, the fault
// survives Reset.
func (s *Simulator) StickROMBit(rom, word, bit int, val bool) {
	s.ROMStore(rom).StickBit(word, bit, val)
	s.romFaults++
}

// ScheduleStickROMBit arms a stuck-at ROM fault that lands at the start of
// the Step delay cycles in the future (delay 0 = the very next Step), the
// ROM-storage counterpart of ScheduleFlipLanes. ROM contents are shared
// by all lanes, so the fault has no lane mask: every lane addressing the
// word sees the same damage.
func (s *Simulator) ScheduleStickROMBit(delay, rom, word, bit int, val bool) {
	if delay < 0 {
		return
	}
	if s.romSticks == nil {
		s.romSticks = make(map[int][]romStick)
	}
	at := s.w.Cycle + delay
	s.romSticks[at] = append(s.romSticks[at], romStick{rom: rom, word: word, bit: bit, val: val})
}

// ROMFaultyWords returns the number of ROM words, across all macros, that
// currently hold any storage error — the cheap health probe triage and
// diagnosis use to tell memory damage from flip-flop corruption.
func (s *Simulator) ROMFaultyWords() int {
	n := 0
	for _, r := range s.ROMStores() {
		n += r.FaultyWords()
	}
	return n
}

// ROMInjections returns the number of ROM bit faults applied so far
// (transient flips and stuck-ats both count once when installed).
func (s *Simulator) ROMInjections() int { return s.romFaults }

// CopyStateFrom adopts the sequential state (flip-flop values, sync-ROM
// output registers, net values and cycle count) of another simulator of
// the same netlist. This is the state-restoration primitive a lockstep
// supervisor uses to repair a corrupted primary from its fault-free
// shadow before retrying a transaction in place. Installed faults (stuck
// FFs, ROM damage) are deliberately NOT copied or cleared: a hard defect
// survives restoration and will re-assert, which is what lets the retry
// distinguish transient from persistent.
func (s *Simulator) CopyStateFrom(o *Simulator) error {
	if len(s.w.Q) != len(o.w.Q) || len(s.w.ROMQ) != len(o.w.ROMQ) || len(s.w.Vals) != len(o.w.Vals) {
		return fmt.Errorf("netlist: CopyStateFrom across different netlists (%d/%d FFs, %d/%d ROMs)",
			len(s.w.Q), len(o.w.Q), len(s.w.ROMQ), len(o.w.ROMQ))
	}
	s.WriteState(func(q []uint64, romq [][8]uint64) {
		copy(q, o.w.Q)
		copy(romq, o.w.ROMQ)
	})
	copy(s.w.Vals, o.w.Vals)
	s.w.Cycle = o.w.Cycle
	s.flips = nil
	s.applyStuck()
	return nil
}

// ClearFaults removes every fault: scheduled transient upsets, stuck-at
// flip-flops, and all ROM storage damage (stores are re-encoded from the
// golden contents).
func (s *Simulator) ClearFaults() {
	s.flips = nil
	s.stuck = nil
	s.romSticks = nil
	for _, r := range s.ROMStores() {
		r.ClearFaults()
	}
}

// Injections returns the number of state bit-flips applied so far (each
// flip-flop of a multi-bit upset counts once, whatever its lane mask;
// stuck-at faults count each time they actually override a latched value).
func (s *Simulator) Injections() int { return s.injected }

func (s *Simulator) applyStuck() {
	for i, v := range s.stuck {
		s.force(i, v)
	}
}

// force drives flip-flop i to v on every lane, counting an injection when
// that overrides the latched value.
func (s *Simulator) force(i int, v bool) {
	if want := logic.Word(v); s.w.Q[i] != want {
		s.WriteState(func(q []uint64, _ [][8]uint64) { q[i] = want })
		s.injected++
	}
}
