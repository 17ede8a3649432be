package netlist

import (
	"fmt"
	"strconv"
	"strings"

	"rijndaelip/internal/edac"
	"rijndaelip/internal/logic"
)

// Simulator evaluates a netlist cycle by cycle on 64 parallel lanes. It
// holds the current value of every net plus the sequential state
// (flip-flops and synchronous ROM output registers).
//
// Lane/word data layout (see internal/logic/lanes.go): every net and
// flip-flop value is a uint64 lane word whose bit L belongs to independent
// lane L. LUTs are evaluated bit-parallel by folding the truth-table mask
// over the input lane words, flip-flops latch under a per-lane enable
// mask, and ROM macros gather contents[addr] per lane through a
// per-simulator EDAC store (internal/edac): each read decodes the SECDED
// codeword, correcting single-bit errors and counting the event, so an
// injected ROM upset is invisible to the datapath until it grows beyond
// what the code covers. The scalar API
// (SetInput, Output, Net, RegValue, FlipFF) broadcasts across all lanes
// and observes lane 0 — single-device semantics — while the *Lane/*Lanes
// variants address individual lanes, so one gate-level sweep carries up to
// 64 independent blocks or fault scenarios.
type Simulator struct {
	nl     *Netlist
	values []uint64 // per-net lane word (after last Eval)
	ffQ    []uint64 // per-flip-flop lane word
	romQ   [][8]uint64
	inputs map[string][]NetID

	regIndex map[string][]int // lazy FF-name index for RegValue

	// roms holds the per-simulator EDAC stores both ROM read paths go
	// through. The stores are simulator state, not netlist data: ROM
	// fault injection mutates a store, and two simulators of the same
	// netlist (a shard and its lockstep shadow) must fault independently.
	roms []*edac.ROM

	// Fault-injection state (see ScheduleFlip / StickFF / StickROMBit).
	cycle     int                // Step count since construction or last Reset
	flips     map[int][]laneFlip // pending transient upsets, keyed by target cycle
	stuck     map[int]bool       // permanent stuck-at faults: FF index -> forced value
	romSticks map[int][]romStick // pending ROM stuck-ats, keyed by target cycle
	injected  int                // FF bit-flips applied so far
	romFaults int                // ROM bit faults applied so far

	// Compiled tape (nil on the test-only reference simulator): tape is the
	// fused word-op instruction stream, changed the per-net activity flags,
	// srcPrev the input-net snapshot change detection compares against,
	// forceFull a request to bypass activity gating on the next Eval (set
	// whenever cached values or flags are not trustworthy: construction,
	// Reset, CopyStateFrom).
	tape      *tape
	changed   []bool
	srcPrev   []uint64
	forceFull bool
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
// compiled instruction tape with activity-gated evaluation: combinational
// logic runs as a linear sweep over fused word ops, skipping instructions
// whose input lane words did not change since the previous evaluation.
func NewSimulator(nl *Netlist) (*Simulator, error) {
	s, err := newReferenceSimulator(nl)
	if err != nil {
		return nil, err
	}
	s.tape = compileTape(nl)
	s.changed = make([]bool, nl.NumNets())
	s.srcPrev = make([]uint64, len(s.tape.srcNets))
	s.forceFull = true
	return s, nil
}

// NewCompiledSimulator is NewSimulator.
//
// Deprecated: every simulator runs the compiled tape; use NewSimulator.
func NewCompiledSimulator(nl *Netlist) (*Simulator, error) { return NewSimulator(nl) }

// newReferenceSimulator returns a simulator that evaluates by walking the
// levelized order cell by cell instead of the tape. It is the differential
// reference the tape is fuzzed against, observationally identical to
// NewSimulator: same net values, sequential state, cycle counts, fault
// semantics and EDAC read statistics.
func newReferenceSimulator(nl *Netlist) (*Simulator, error) {
	if err := nl.Build(); err != nil {
		return nil, err
	}
	s := &Simulator{
		nl:     nl,
		values: make([]uint64, nl.NumNets()),
		ffQ:    make([]uint64, len(nl.FFs)),
		romQ:   make([][8]uint64, len(nl.ROMs)),
		inputs: make(map[string][]NetID, len(nl.Inputs)),
	}
	for _, p := range nl.Inputs {
		s.inputs[p.Name] = p.Nets
	}
	for i := range nl.FFs {
		s.ffQ[i] = logic.Word(nl.FFs[i].Init)
	}
	s.roms = make([]*edac.ROM, len(nl.ROMs))
	for i := range nl.ROMs {
		s.roms[i] = edac.New(nl.ROMs[i].Name, nl.ROMs[i].Contents)
	}
	s.values[Const1] = ^uint64(0)
	return s, nil
}

// Reset returns all sequential state to initial values on every lane.
// Scheduled transient upsets (FF flips and armed ROM stuck-ats alike) are
// dropped (they were relative to the aborted run), but faults already
// applied persist: a stuck flip-flop and a damaged or stuck ROM word are
// physical defects a reset cannot clear, which is exactly what
// retry-with-reset recovery policies need to observe.
func (s *Simulator) Reset() {
	for i := range s.values {
		s.values[i] = 0
	}
	s.values[Const1] = ^uint64(0)
	for i := range s.nl.FFs {
		s.ffQ[i] = logic.Word(s.nl.FFs[i].Init)
	}
	for i := range s.romQ {
		s.romQ[i] = [8]uint64{}
	}
	s.cycle = 0
	s.flips = nil
	s.romSticks = nil
	s.forceFull = true
	s.applyStuck()
}

// SetInput drives the named input port with the little-endian bits of
// value, broadcast identically across all 64 lanes. Ports wider than 64
// bits must use SetInputBits.
func (s *Simulator) SetInput(name string, value uint64) error {
	nets, ok := s.inputs[name]
	if !ok {
		return fmt.Errorf("netlist: no input port %q", name)
	}
	if len(nets) > 64 {
		return fmt.Errorf("netlist: input %q wider than 64 bits, use SetInputBits", name)
	}
	for i, n := range nets {
		s.values[n] = logic.Word(value>>uint(i)&1 != 0)
	}
	return nil
}

// SetInputBits drives the named input port from a byte slice, bit i of the
// port taken from bits[i/8]>>(i%8), broadcast identically across all 64
// lanes.
func (s *Simulator) SetInputBits(name string, bits []byte) error {
	nets, ok := s.inputs[name]
	if !ok {
		return fmt.Errorf("netlist: no input port %q", name)
	}
	if want := (len(nets) + 7) / 8; len(bits) != want {
		return fmt.Errorf("netlist: input %q needs %d bytes for %d bits, got %d bytes", name, want, len(nets), len(bits))
	}
	for i, n := range nets {
		s.values[n] = logic.Word(bits[i/8]>>(uint(i)%8)&1 != 0)
	}
	return nil
}

// SetInputLane drives the named input port on a single lane, leaving the
// other lanes' stimulus untouched.
func (s *Simulator) SetInputLane(name string, lane int, value uint64) error {
	if lane < 0 || lane >= logic.Lanes {
		return fmt.Errorf("netlist: lane %d out of range [0,%d)", lane, logic.Lanes)
	}
	nets, ok := s.inputs[name]
	if !ok {
		return fmt.Errorf("netlist: no input port %q", name)
	}
	if len(nets) > 64 {
		return fmt.Errorf("netlist: input %q wider than 64 bits, use SetInputBitsLane", name)
	}
	mask := uint64(1) << uint(lane)
	for i, n := range nets {
		if value>>uint(i)&1 != 0 {
			s.values[n] |= mask
		} else {
			s.values[n] &^= mask
		}
	}
	return nil
}

// SetInputBitsLane drives the named input port on a single lane from a
// byte slice, leaving the other lanes' stimulus untouched.
func (s *Simulator) SetInputBitsLane(name string, lane int, bits []byte) error {
	if lane < 0 || lane >= logic.Lanes {
		return fmt.Errorf("netlist: lane %d out of range [0,%d)", lane, logic.Lanes)
	}
	nets, ok := s.inputs[name]
	if !ok {
		return fmt.Errorf("netlist: no input port %q", name)
	}
	if want := (len(nets) + 7) / 8; len(bits) != want {
		return fmt.Errorf("netlist: input %q needs %d bytes for %d bits, got %d bytes", name, want, len(nets), len(bits))
	}
	mask := uint64(1) << uint(lane)
	for i, n := range nets {
		if bits[i/8]>>(uint(i)%8)&1 != 0 {
			s.values[n] |= mask
		} else {
			s.values[n] &^= mask
		}
	}
	return nil
}

// Eval propagates the current input and state values through the
// combinational logic on all lanes without advancing the clock.
func (s *Simulator) Eval() {
	if s.tape != nil {
		s.evalCompiled()
		return
	}
	nl := s.nl
	// Present sequential state on the driven nets first.
	for i := range nl.FFs {
		s.values[nl.FFs[i].Q] = s.ffQ[i]
	}
	for i := range nl.ROMs {
		if nl.ROMs[i].Sync {
			for b, o := range nl.ROMs[i].Out {
				s.values[o] = s.romQ[i][b]
			}
		}
	}
	for _, cn := range nl.order {
		switch cn.Kind {
		case CombLUT:
			l := &nl.LUTs[cn.Index]
			s.values[l.Out] = s.evalLUT(l)
		case CombROM:
			r := &nl.ROMs[cn.Index]
			var addr [8]uint64
			for i, a := range r.Addr {
				addr[i] = s.values[a]
			}
			data := s.roms[cn.Index].Gather(&addr)
			for b, o := range r.Out {
				s.values[o] = data[b]
			}
		}
	}
}

// evalLUT computes a LUT's output lane word. The fast path handles
// lane-uniform inputs (the scalar broadcast case) with a single mask
// index; mixed lanes fall back to the bit-parallel mux fold.
func (s *Simulator) evalLUT(l *LUT) uint64 {
	idx := 0
	for i, in := range l.Inputs {
		switch v := s.values[in]; v {
		case 0:
		case ^uint64(0):
			idx |= 1 << uint(i)
		default:
			return s.evalLUTMixed(l)
		}
	}
	return logic.Word(l.Mask>>uint(idx)&1 != 0)
}

// evalLUTMixed evaluates a LUT bit-parallel across lanes: the truth-table
// mask, expanded into 2^k lane words, is folded down one selector input at
// a time (Shannon expansion, LSB selector first) — 2^k-1 lane-wide muxes
// replace 64 per-lane table lookups.
func (s *Simulator) evalLUTMixed(l *LUT) uint64 {
	var t [16]uint64
	w := 1 << uint(len(l.Inputs))
	for j := 0; j < w; j++ {
		t[j] = logic.Word(l.Mask>>uint(j)&1 != 0)
	}
	for _, in := range l.Inputs {
		v := s.values[in]
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
	if lfs, ok := s.flips[s.cycle]; ok {
		for _, lf := range lfs {
			s.flipLanes(lf.ff, lf.lanes)
		}
		delete(s.flips, s.cycle)
	}
	if rss, ok := s.romSticks[s.cycle]; ok {
		for _, rs := range rss {
			s.StickROMBit(rs.rom, rs.word, rs.bit, rs.val)
		}
		delete(s.romSticks, s.cycle)
	}
	s.applyStuck()
	s.cycle++
	s.Eval()
	nl := s.nl
	for i := range nl.FFs {
		f := &nl.FFs[i]
		en := ^uint64(0)
		if f.En != Invalid {
			en = s.values[f.En]
		}
		s.ffQ[i] = s.ffQ[i]&^en | s.values[f.D]&en
	}
	for i := range nl.ROMs {
		r := &nl.ROMs[i]
		if !r.Sync {
			continue
		}
		var addr [8]uint64
		for b, a := range r.Addr {
			addr[b] = s.values[a]
		}
		s.romQ[i] = s.roms[i].Gather(&addr)
	}
	s.applyStuck()
}

// Net returns the lane-0 value of a net (after the last Eval/Step).
func (s *Simulator) Net(n NetID) bool { return s.values[n]&1 != 0 }

// NetWord returns the full lane word of a net (after the last Eval/Step).
func (s *Simulator) NetWord(n NetID) uint64 { return s.values[n] }

// Output reads the named output port as a little-endian value on lane 0.
// Ports wider than 64 bits must use OutputBits. The combinational logic
// must have been evaluated (Eval or Step) since inputs last changed.
func (s *Simulator) Output(name string) (uint64, error) {
	return s.OutputLane(name, 0)
}

// OutputLane reads the named output port as a little-endian value on one
// lane.
func (s *Simulator) OutputLane(name string, lane int) (uint64, error) {
	if lane < 0 || lane >= logic.Lanes {
		return 0, fmt.Errorf("netlist: lane %d out of range [0,%d)", lane, logic.Lanes)
	}
	nets, ok := s.nl.FindOutput(name)
	if !ok {
		return 0, fmt.Errorf("netlist: no output port %q", name)
	}
	if len(nets) > 64 {
		return 0, fmt.Errorf("netlist: output %q wider than 64 bits, use OutputBits", name)
	}
	var v uint64
	for i, n := range nets {
		if s.values[n]>>uint(lane)&1 != 0 {
			v |= 1 << uint(i)
		}
	}
	return v, nil
}

// OutputBits reads the named output port into a byte slice on lane 0, bit
// i of the port stored at bits[i/8] bit i%8.
func (s *Simulator) OutputBits(name string) ([]byte, error) {
	return s.OutputBitsLane(name, 0)
}

// OutputBitsLane reads the named output port into a byte slice on one
// lane.
func (s *Simulator) OutputBitsLane(name string, lane int) ([]byte, error) {
	if lane < 0 || lane >= logic.Lanes {
		return nil, fmt.Errorf("netlist: lane %d out of range [0,%d)", lane, logic.Lanes)
	}
	nets, ok := s.nl.FindOutput(name)
	if !ok {
		return nil, fmt.Errorf("netlist: no output port %q", name)
	}
	bits := make([]byte, (len(nets)+7)/8)
	for i, n := range nets {
		if s.values[n]>>uint(lane)&1 != 0 {
			bits[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return bits, nil
}

// OutputWords reads the named output port as raw lane words: element i is
// the lane word of port bit i (bit L = lane L's value). This is the
// transposed view vectorized monitors use to compare all lanes in one
// pass.
func (s *Simulator) OutputWords(name string) ([]uint64, error) {
	nets, ok := s.nl.FindOutput(name)
	if !ok {
		return nil, fmt.Errorf("netlist: no output port %q", name)
	}
	out := make([]uint64, len(nets))
	for i, n := range nets {
		out[i] = s.values[n]
	}
	return out, nil
}

// RegValue returns the packed lane-0 state of the flip-flops named
// "name[i]" (the naming convention the RTL elaborator uses), bit i of the
// register at bits[i/8]. The second result reports whether any such
// flip-flop exists. This gives post-synthesis simulations the same
// register visibility as RTL simulations.
func (s *Simulator) RegValue(name string) ([]byte, bool) {
	return s.RegValueLane(name, 0)
}

// RegValueLane returns the packed state of the named register on one lane.
func (s *Simulator) RegValueLane(name string, lane int) ([]byte, bool) {
	if lane < 0 || lane >= logic.Lanes {
		return nil, false
	}
	if s.regIndex == nil {
		s.regIndex = make(map[string][]int)
		for i := range s.nl.FFs {
			n := s.nl.FFs[i].Name
			open := strings.IndexByte(n, '[')
			if open < 0 || !strings.HasSuffix(n, "]") {
				continue
			}
			base := n[:open]
			bit, err := strconv.Atoi(n[open+1 : len(n)-1])
			if err != nil || bit < 0 {
				continue
			}
			idx := s.regIndex[base]
			for len(idx) <= bit {
				idx = append(idx, -1)
			}
			idx[bit] = i
			s.regIndex[base] = idx
		}
	}
	idx, ok := s.regIndex[name]
	if !ok {
		return nil, false
	}
	bits := make([]byte, (len(idx)+7)/8)
	for bit, ff := range idx {
		if ff >= 0 && s.ffQ[ff]>>uint(lane)&1 != 0 {
			bits[bit/8] |= 1 << (uint(bit) % 8)
		}
	}
	return bits, true
}

// NumFFs returns the number of flip-flops in the simulated netlist.
func (s *Simulator) NumFFs() int { return len(s.ffQ) }

// FlipFF injects a single-event upset on every lane: the state of
// flip-flop i is inverted, as a particle strike would do to a
// configuration- or user-register bit. The effect is visible at the next
// Eval. In broadcast (scalar) use all lanes stay identical, preserving
// single-device semantics.
func (s *Simulator) FlipFF(i int) { s.flipLanes(i, ^uint64(0)) }

// FlipFFLanes injects a single-event upset on the masked lanes only: bit L
// of lanes set inverts flip-flop i's lane-L state. This is what lets a
// vectorized fault campaign carry 64 independent fault scenarios — one
// struck lane each — through a single simulation.
func (s *Simulator) FlipFFLanes(i int, lanes uint64) { s.flipLanes(i, lanes) }

func (s *Simulator) flipLanes(i int, lanes uint64) {
	if lanes == 0 {
		return
	}
	s.ffQ[i] ^= lanes
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
	at := s.cycle + delay
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
	want := logic.Word(val)
	if s.ffQ[i] != want {
		s.ffQ[i] = want
		s.injected++
	}
}

// NumROMs returns the number of ROM macros in the simulated netlist.
func (s *Simulator) NumROMs() int { return len(s.roms) }

// ROMName returns the name of ROM macro i.
func (s *Simulator) ROMName(i int) string { return s.roms[i].Name() }

// ROMStore returns the EDAC store ROM macro i reads through. The store is
// safe for concurrent use, so a background scrubber may sweep it while
// the simulator runs on its own goroutine.
func (s *Simulator) ROMStore(i int) *edac.ROM { return s.roms[i] }

// ROMStores returns all EDAC stores, ordered like the netlist's ROMs.
func (s *Simulator) ROMStores() []*edac.ROM { return s.roms }

// FlipROMBit injects a transient upset into ROM storage: codeword bit
// `bit` of word `word` of ROM macro `rom` inverts. The error is corrected
// on every read by the EDAC code and repaired by the next scrub of the
// word — the memory-array analogue of FlipFF.
func (s *Simulator) FlipROMBit(rom, word, bit int) {
	s.roms[rom].FlipBit(word, bit)
	s.romFaults++
}

// StickROMBit installs a hard stuck-at fault in ROM storage: the codeword
// bit is forced to val and re-asserts itself after every scrub rewrite,
// so the word stays faulty until ClearFaults. Like StickFF, the fault
// survives Reset.
func (s *Simulator) StickROMBit(rom, word, bit int, val bool) {
	s.roms[rom].StickBit(word, bit, val)
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
	at := s.cycle + delay
	s.romSticks[at] = append(s.romSticks[at], romStick{rom: rom, word: word, bit: bit, val: val})
}

// ROMFaultyWords returns the number of ROM words, across all macros, that
// currently hold any storage error — the cheap health probe triage and
// diagnosis use to tell memory damage from flip-flop corruption.
func (s *Simulator) ROMFaultyWords() int {
	n := 0
	for _, r := range s.roms {
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
	if len(s.ffQ) != len(o.ffQ) || len(s.romQ) != len(o.romQ) || len(s.values) != len(o.values) {
		return fmt.Errorf("netlist: CopyStateFrom across different netlists (%d/%d FFs, %d/%d ROMs)",
			len(s.ffQ), len(o.ffQ), len(s.romQ), len(o.romQ))
	}
	copy(s.ffQ, o.ffQ)
	copy(s.romQ, o.romQ)
	copy(s.values, o.values)
	s.cycle = o.cycle
	s.flips = nil
	s.forceFull = true
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
	for _, r := range s.roms {
		r.ClearFaults()
	}
}

// Injections returns the number of state bit-flips applied so far (each
// flip-flop of a multi-bit upset counts once, whatever its lane mask;
// stuck-at faults count each time they actually override a latched value).
func (s *Simulator) Injections() int { return s.injected }

// Cycle returns the number of Steps since construction or the last Reset
// (the timebase ScheduleFlip delays are resolved against).
func (s *Simulator) Cycle() int { return s.cycle }

func (s *Simulator) applyStuck() {
	for i, v := range s.stuck {
		want := logic.Word(v)
		if s.ffQ[i] != want {
			s.ffQ[i] = want
			s.injected++
		}
	}
}
