package rtl

import (
	"fmt"

	"rijndaelip/internal/edac"
	"rijndaelip/internal/logic"
)

// Simulator is a cycle-accurate, 64-lane bit-parallel simulator of an
// elaborated design. It evaluates the AIG's compiled tape, resolving
// asynchronous ROM reads in address-dependency order, and latches register
// and synchronous-ROM state on Step.
//
// Lane/word data layout (see internal/logic/lanes.go): every simulated
// value is a uint64 lane word whose bit L is the value seen by independent
// lane L. Registers hold one lane word per register bit, register latching
// applies the per-lane enable mask, and ROM reads gather contents[addr]
// per lane through a per-simulator EDAC store (internal/edac) that
// corrects single-bit storage errors on read — so one AIG sweep advances
// logic.Lanes (64) independent copies
// of the device in lockstep. The scalar API (SetInput, Output, Lit,
// RegValue) broadcasts stimulus across all lanes and reads lane 0, which
// reproduces single-device semantics exactly; the *Lane variants drive and
// observe a single lane for vectorized workloads.
type Simulator struct {
	d      *Design
	inputs []uint64   // per-AIG-input lane word (bit L = lane L's value)
	values []uint64   // per-AIG-node lane words from the last Eval
	regQ   [][]uint64 // per register, per bit: one lane word
	romQ   [][8]uint64
	roms   []*edac.ROM // per-ROM EDAC stores both read paths go through
	cycles uint64

	piIndex map[string]int
	portOrd [][]int32 // per input port, per bit: AIG input ordinal

	// comp is the design's shared compiled evaluation schedule (nil on the
	// test-only reference simulator). stimDirty records that values may be
	// stale: a stimulus write actually moved an input lane word since the
	// last Eval, or the simulator was just built or Reset. With it clear and
	// no state movement, Eval skips the tape entirely and only performs the
	// per-ROM EDAC gathers.
	comp      *compSched
	stimDirty bool
}

// NewSimulator returns a simulator with registers at their initial values
// (broadcast across all lanes), backed by the design's compiled instruction
// tape: combinational logic runs as one segmented, branch-free linear sweep
// over a packed tape (asynchronous ROMs resolved in place rather than by
// whole-AIG re-passes), and the sweep is skipped altogether when no
// stimulus or sequential state moved at all.
func (d *Design) NewSimulator() *Simulator {
	s := d.newReferenceSimulator()
	s.comp = d.compiledSched()
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
	s := &Simulator{
		d:       d,
		inputs:  make([]uint64, d.b.aig.NumInputs()),
		values:  make([]uint64, d.b.aig.NumNodes()),
		regQ:    make([][]uint64, len(d.b.regs)),
		romQ:    make([][8]uint64, len(d.b.roms)),
		piIndex: map[string]int{},
		portOrd: d.compiledSched().portOrd,
		// Nothing has been evaluated yet.
		stimDirty: true,
	}
	for i, p := range d.b.inputs {
		s.piIndex[p.name] = i
	}
	for i := range d.b.regs {
		s.regQ[i] = initWords(d.b.regs[i].init)
	}
	s.roms = make([]*edac.ROM, len(d.b.roms))
	for i := range d.b.roms {
		s.roms[i] = edac.New(d.b.roms[i].name, d.b.roms[i].contents)
	}
	return s
}

func initWords(init []bool) []uint64 {
	q := make([]uint64, len(init))
	for bit, v := range init {
		q[bit] = logic.Word(v)
	}
	return q
}

// Reset restores initial register and ROM-register state on every lane and
// clears inputs.
func (s *Simulator) Reset() {
	for i := range s.inputs {
		s.inputs[i] = 0
	}
	for i := range s.d.b.regs {
		for bit, v := range s.d.b.regs[i].init {
			s.regQ[i][bit] = logic.Word(v)
		}
	}
	for i := range s.romQ {
		s.romQ[i] = [8]uint64{}
	}
	s.cycles = 0
	s.stimDirty = true
}

// Cycles returns the number of Step calls since construction or Reset.
func (s *Simulator) Cycles() uint64 { return s.cycles }

// ROMStores returns the per-ROM EDAC stores this simulator reads through,
// ordered like the builder's ROM declarations. Injecting a bit fault into
// a store faults this simulator only — the elaborated design's golden
// contents are never modified.
func (s *Simulator) ROMStores() []*edac.ROM { return s.roms }

// SetInput drives an input port with the little-endian bits of value,
// broadcast identically across all 64 lanes.
func (s *Simulator) SetInput(name string, value uint64) error {
	i, ok := s.piIndex[name]
	if !ok {
		return fmt.Errorf("rtl: no input port %q", name)
	}
	ords := s.portOrd[i]
	if len(ords) > 64 {
		return fmt.Errorf("rtl: input %q wider than 64 bits, use SetInputBits", name)
	}
	for bit, ord := range ords {
		s.setInputOrd(ord, value>>uint(bit)&1 != 0)
	}
	return nil
}

// SetInputBits drives an input port from packed bytes (bit i of the port at
// bits[i/8] bit i%8), broadcast identically across all 64 lanes.
func (s *Simulator) SetInputBits(name string, bits []byte) error {
	i, ok := s.piIndex[name]
	if !ok {
		return fmt.Errorf("rtl: no input port %q", name)
	}
	ords := s.portOrd[i]
	if want := (len(ords) + 7) / 8; len(bits) != want {
		return fmt.Errorf("rtl: input %q needs %d bytes for %d bits, got %d bytes", name, want, len(ords), len(bits))
	}
	for bit, ord := range ords {
		s.setInputOrd(ord, bits[bit/8]>>(uint(bit)%8)&1 != 0)
	}
	return nil
}

// SetInputLane drives an input port on a single lane, leaving the other
// lanes' stimulus untouched.
func (s *Simulator) SetInputLane(name string, lane int, value uint64) error {
	if lane < 0 || lane >= logic.Lanes {
		return fmt.Errorf("rtl: lane %d out of range [0,%d)", lane, logic.Lanes)
	}
	i, ok := s.piIndex[name]
	if !ok {
		return fmt.Errorf("rtl: no input port %q", name)
	}
	ords := s.portOrd[i]
	if len(ords) > 64 {
		return fmt.Errorf("rtl: input %q wider than 64 bits, use SetInputBitsLane", name)
	}
	for bit, ord := range ords {
		s.setInputOrdLane(ord, lane, value>>uint(bit)&1 != 0)
	}
	return nil
}

// SetInputBitsLane drives an input port on a single lane from packed
// bytes, leaving the other lanes' stimulus untouched.
func (s *Simulator) SetInputBitsLane(name string, lane int, bits []byte) error {
	if lane < 0 || lane >= logic.Lanes {
		return fmt.Errorf("rtl: lane %d out of range [0,%d)", lane, logic.Lanes)
	}
	i, ok := s.piIndex[name]
	if !ok {
		return fmt.Errorf("rtl: no input port %q", name)
	}
	ords := s.portOrd[i]
	if want := (len(ords) + 7) / 8; len(bits) != want {
		return fmt.Errorf("rtl: input %q needs %d bytes for %d bits, got %d bytes", name, want, len(ords), len(bits))
	}
	for bit, ord := range ords {
		s.setInputOrdLane(ord, lane, bits[bit/8]>>(uint(bit)%8)&1 != 0)
	}
	return nil
}

func (s *Simulator) setInputOrd(ord int32, v bool) {
	if w := logic.Word(v); s.inputs[ord] != w {
		s.inputs[ord] = w
		s.stimDirty = true
	}
}

func (s *Simulator) setInputOrdLane(ord int32, lane int, v bool) {
	mask := uint64(1) << uint(lane)
	w := s.inputs[ord] &^ mask
	if v {
		w |= mask
	}
	if s.inputs[ord] != w {
		s.inputs[ord] = w
		s.stimDirty = true
	}
}

// setInputWord presents a full lane word on an AIG pseudo-input (register
// and ROM state presentation).
func (s *Simulator) setInputWord(l logic.Lit, w uint64) {
	s.inputs[s.d.b.aig.InputOrdinal(l)] = w
}

// Eval propagates inputs and current state through the combinational logic
// on all lanes, resolving asynchronous ROM reads per lane. It does not
// advance the clock.
func (s *Simulator) Eval() {
	if s.comp != nil {
		s.evalCompiled()
		return
	}
	b := s.d.b
	// Present register state.
	for i := range b.regs {
		for bit, l := range b.regs[i].q {
			s.setInputWord(l, s.regQ[i][bit])
		}
	}
	// Present synchronous ROM state; async ROM outputs resolved below.
	for i := range b.roms {
		if b.roms[i].style == ROMSync {
			for bit, l := range b.roms[i].out {
				s.setInputWord(l, s.romQ[i][bit])
			}
		}
	}
	// Resolve asynchronous ROM reads level by level: after each evaluation
	// pass, every ROM whose address cone is already valid (level == pass)
	// latches its per-lane read data onto its output pseudo-inputs, and the
	// AIG is re-evaluated. A final pass propagates the last level's outputs.
	for lvl := 0; lvl <= s.d.maxROMLevel; lvl++ {
		b.aig.EvalInto(s.inputs, s.values)
		for ri := range b.roms {
			if s.d.romLevels[ri] != lvl {
				continue
			}
			rom := &b.roms[ri]
			var addr [8]uint64
			for bit, l := range rom.addr {
				addr[bit] = logic.LitValue(s.values, l)
			}
			data := s.roms[ri].Gather(&addr)
			for bit, l := range rom.out {
				s.setInputWord(l, data[bit])
			}
		}
	}
	b.aig.EvalInto(s.inputs, s.values)
}

// evalCompiled is Eval on the instruction tape: one segmented sweep in
// node-id order, gathering each asynchronous ROM exactly when the sweep
// reaches its first output pseudo-input (its address cone is then already
// resolved, because a ROM's outputs are created after its address
// literals). That keeps one EDAC Gather per async ROM per call — the
// interpreter's correction-counter contract — while evaluating every node
// at most once instead of the interpreter's maxROMLevel+2 whole-AIG
// passes. The sweep itself is ungated: every node in a swept range is
// recomputed, because on the cores' 64-lane workloads so many nodes move
// per cycle that a per-node skip test costs more than it saves. The one
// skip is whole-tape: when nothing moved at all since the previous Eval
// (the driver's Eval-then-Step pattern re-evaluates an unchanged circuit
// every cycle) the tape is skipped entirely and only the gathers run.
// Presentation compares values, so fault injections need no special
// casing: a struck register or ROM word changes a presented lane word,
// which makes the pass dirty.
func (s *Simulator) evalCompiled() {
	b := s.d.b
	sc := s.comp
	dirty := s.stimDirty
	s.stimDirty = false
	// Present register state.
	for i := range b.regs {
		q := s.regQ[i]
		for bit, ord := range sc.regOrd[i] {
			if w := q[bit]; s.inputs[ord] != w {
				s.inputs[ord] = w
				dirty = true
			}
		}
	}
	// Present synchronous ROM state; async ROMs are resolved in the sweep.
	for i := range b.roms {
		if b.roms[i].style == ROMSync {
			for bit, ord := range sc.romOrd[i] {
				if w := s.romQ[i][bit]; s.inputs[ord] != w {
					s.inputs[ord] = w
					dirty = true
				}
			}
		}
	}
	pos := 0
	for _, seg := range sc.segs {
		if dirty {
			sc.tape.EvalRange(pos, seg.boundary, s.inputs, s.values)
			pos = seg.boundary
		}
		rom := &b.roms[seg.rom]
		var addr [8]uint64
		for bit, l := range rom.addr {
			addr[bit] = logic.LitValue(s.values, l)
		}
		data := s.roms[seg.rom].Gather(&addr)
		for bit, ord := range sc.romOrd[seg.rom] {
			if s.inputs[ord] != data[bit] {
				// Quiescent inputs but moved read data: the store was damaged
				// (or scrubbed) since the last Eval. Evaluation resumes at
				// this ROM's outputs; the skipped prefix provably held still.
				if !dirty {
					dirty = true
					pos = seg.boundary
				}
				s.inputs[ord] = data[bit]
			}
		}
	}
	if dirty {
		sc.tape.EvalRange(pos, sc.tape.NumNodes(), s.inputs, s.values)
	}
}

// Step runs one clock cycle: Eval, then latch registers and synchronous
// ROM output registers. Both latch per lane — a register bit's lane L only
// loads when the enable is high on lane L.
func (s *Simulator) Step() {
	s.Eval()
	b := s.d.b
	for i := range b.regs {
		r := &b.regs[i]
		en := logic.LitValue(s.values, r.en)
		if en == 0 {
			continue
		}
		q := s.regQ[i]
		for bit, l := range r.next {
			q[bit] = q[bit]&^en | logic.LitValue(s.values, l)&en
		}
	}
	for i := range b.roms {
		rom := &b.roms[i]
		if rom.style != ROMSync {
			continue
		}
		var addr [8]uint64
		for bit, l := range rom.addr {
			addr[bit] = logic.LitValue(s.values, l)
		}
		s.romQ[i] = s.roms[i].Gather(&addr)
	}
	s.cycles++
}

// Lit returns the lane-0 value of an arbitrary literal after the last
// Eval/Step.
func (s *Simulator) Lit(l logic.Lit) bool {
	return logic.LitValue(s.values, l)&1 != 0
}

// LitWord returns the full lane word of an arbitrary literal after the
// last Eval/Step.
func (s *Simulator) LitWord(l logic.Lit) uint64 {
	return logic.LitValue(s.values, l)
}

// Output reads an output port as a little-endian value on lane 0 (ports up
// to 64 bits).
func (s *Simulator) Output(name string) (uint64, error) {
	return s.OutputLane(name, 0)
}

// OutputLane reads an output port as a little-endian value on one lane.
func (s *Simulator) OutputLane(name string, lane int) (uint64, error) {
	if lane < 0 || lane >= logic.Lanes {
		return 0, fmt.Errorf("rtl: lane %d out of range [0,%d)", lane, logic.Lanes)
	}
	for _, p := range s.d.b.outputs {
		if p.name != name {
			continue
		}
		if len(p.bus) > 64 {
			return 0, fmt.Errorf("rtl: output %q wider than 64 bits, use OutputBits", name)
		}
		var v uint64
		for bit, l := range p.bus {
			if logic.LitValue(s.values, l)>>uint(lane)&1 != 0 {
				v |= 1 << uint(bit)
			}
		}
		return v, nil
	}
	return 0, fmt.Errorf("rtl: no output port %q", name)
}

// OutputBits reads an output port into packed bytes on lane 0.
func (s *Simulator) OutputBits(name string) ([]byte, error) {
	return s.OutputBitsLane(name, 0)
}

// OutputBitsLane reads an output port into packed bytes on one lane.
func (s *Simulator) OutputBitsLane(name string, lane int) ([]byte, error) {
	if lane < 0 || lane >= logic.Lanes {
		return nil, fmt.Errorf("rtl: lane %d out of range [0,%d)", lane, logic.Lanes)
	}
	for _, p := range s.d.b.outputs {
		if p.name != name {
			continue
		}
		bits := make([]byte, (len(p.bus)+7)/8)
		for bit, l := range p.bus {
			if logic.LitValue(s.values, l)>>uint(lane)&1 != 0 {
				bits[bit/8] |= 1 << (uint(bit) % 8)
			}
		}
		return bits, nil
	}
	return nil, fmt.Errorf("rtl: no output port %q", name)
}

// OutputWords reads an output port as raw lane words: element i is the
// lane word of port bit i (bit L = lane L's value). This is the transposed
// view vectorized monitors use to compare all lanes in one pass.
func (s *Simulator) OutputWords(name string) ([]uint64, error) {
	for _, p := range s.d.b.outputs {
		if p.name != name {
			continue
		}
		out := make([]uint64, len(p.bus))
		for bit, l := range p.bus {
			out[bit] = logic.LitValue(s.values, l)
		}
		return out, nil
	}
	return nil, fmt.Errorf("rtl: no output port %q", name)
}

// RegValue returns the lane-0 state of a named register as packed bytes,
// for debugging and waveform dumps.
func (s *Simulator) RegValue(name string) ([]byte, bool) {
	return s.RegValueLane(name, 0)
}

// RegValueLane returns one lane's state of a named register as packed
// bytes.
func (s *Simulator) RegValueLane(name string, lane int) ([]byte, bool) {
	if lane < 0 || lane >= logic.Lanes {
		return nil, false
	}
	for i := range s.d.b.regs {
		if s.d.b.regs[i].name != name {
			continue
		}
		q := s.regQ[i]
		bits := make([]byte, (len(q)+7)/8)
		for bit, w := range q {
			if w>>uint(lane)&1 != 0 {
				bits[bit/8] |= 1 << (uint(bit) % 8)
			}
		}
		return bits, true
	}
	return nil, false
}
