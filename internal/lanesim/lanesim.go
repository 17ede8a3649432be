// Package lanesim is the 64-lane machine the RTL and netlist simulators
// share. A simulator describes itself once as a Layout — named ports and
// registers, where stimulus and sequential state are presented, its latch
// groups, its ROM macros and the gather plan of its compiled tape — and
// embeds the Machine built from it. The Machine owns everything around the
// tape: the lane words, write-tracked stimulus and state, the
// per-simulator EDAC ROM stores and the token check that skips their
// clean, unchanged gathers, the segmented Eval, the latching Step, Reset,
// the cycle counter and the per-port buffers OutputWords hands out. What
// differs between the two simulators stays with them: a Tape that sweeps
// a range, an independent reference evaluator, and their literal or net
// accessors.
//
// Lane/word data layout (see internal/logic/lanes.go): every simulated
// value is a uint64 lane word whose bit L is the value seen by independent
// lane L, so one sweep advances logic.Lanes (64) copies of the device in
// lockstep. The scalar port methods broadcast stimulus across all lanes
// and read lane 0, which reproduces single-device semantics exactly; the
// *Lane variants drive and observe a single lane.
package lanesim

import (
	"encoding/binary"
	"fmt"

	"rijndaelip/internal/edac"
	"rijndaelip/internal/logic"
)

// Lit names a lane word of the value array, possibly inverted: the word's
// index shifted left by one, with the low bit set when it reads
// complemented (the encoding of logic.Lit).
type Lit uint32

func (l Lit) word(vals []uint64) uint64 { return vals[l>>1] ^ -uint64(l&1) }

// Tape is a simulator's compiled combinational schedule. EvalRange
// evaluates tape positions [from, to), reading presented stimulus and
// state from src and writing every result in the range into vals; values
// below from are already current. When Layout.NumSrc is 0, src and vals
// are the same array. The machine never asks for an empty range: from is
// always below to.
type Tape interface {
	EvalRange(from, to int, src, vals []uint64)
}

// Layout describes one simulator's machine. It is immutable once built, so
// every simulator of a design may share one.
type Layout struct {
	// Pkg prefixes error messages ("rtl", "netlist").
	Pkg string
	// NumVals sizes the value array the tape writes and outputs read;
	// NumSrc sizes the separate array stimulus and state are presented on,
	// 0 presenting them in the value array itself.
	NumVals, NumSrc int

	Inputs  map[string][]int32 // input port -> per bit, its src index
	Outputs map[string][]Lit   // output port -> per bit, its value literal
	Regs    map[string][]int32 // named register -> per bit, its state word (-1: none)

	// Sequential state, one lane word per bit.
	Present []int32 // per state word: the src index it is presented on
	Next    []Lit   // per state word: its next-state literal
	Init    []bool  // per state word: its power-up value, on every lane
	Groups  []Group // latch groups, tiling the state words in order

	ROMs []ROM // ROM macros, indexed like the simulator's declarations
	Segs []Seg // gather plan: one segment per asynchronous ROM, in sweep order
	End  int   // the tape position one past its last
}

// Group is a run of state words [Lo, Hi) that latch under one enable.
type Group struct {
	En     Lit
	Lo, Hi int32
}

// ROM is one 256×8 ROM macro.
type ROM struct {
	Name     string
	Contents *[256]byte // read once, when a machine's EDAC store is built
	Sync     bool       // registered read: latched on Step, presented from ROMQ
	Addr     [8]Lit     // address literals
	Out      [8]int32   // per data bit, the src index it is presented on
}

// Seg schedules one asynchronous ROM: the sweep runs up to Stop, the ROM
// is gathered with its address resolved, and the sweep continues at
// Resume.
type Seg struct {
	ROM          int
	Stop, Resume int
}

// Words is a machine's mutable lane-word state. New hands it to the
// simulator embedding the machine, for its reference evaluator, literal
// accessors and reads of the state. Q and ROMQ are write-tracked: outside
// this package they are written only through Machine.WriteState, so that
// every write sets Dirty.
type Words struct {
	Src  []uint64    // presented stimulus and state (Vals itself when Layout.NumSrc is 0)
	Vals []uint64    // evaluated values from the last Eval
	Q    []uint64    // state words
	ROMQ [][8]uint64 // per ROM: its output register (synchronous ROMs)
	// Cycle counts Steps since construction or Reset.
	Cycle int
	// Dirty records that Vals may not be the tape's result: a stimulus
	// write, a latch or a WriteState moved a word since the last Eval, or
	// the machine was just built or Reset. With it set, Eval presents
	// every state word and sweeps; with it clear, Eval skips the sweep
	// unless a ROM's read data moved.
	Dirty bool
}

// Machine is the lane machine a simulator embeds. Its methods are the
// simulator's port, evaluation and clock interface.
type Machine struct {
	lay  *Layout
	tape Tape   // nil on a reference machine
	ref  func() // reference evaluator, nil on a tape machine
	roms []*edac.ROM
	// toks holds, per ROM, the store token read just before the Gather
	// whose data is presented on the source array (noToken: none).
	toks []uint64
	// recs holds, per ROM, this machine's last Gather, kept only once a
	// twin reads it (ShareGathers); primary is the machine whose records
	// this one reads, nil if none.
	recs    []gatherRec
	primary *Machine
	outs    map[string]outPort
	w       Words
}

// gatherRec is one ROM Gather: the store token read just before it, the
// addresses and the data returned.
type gatherRec struct {
	tok        uint64
	addr, data [8]uint64
}

// outPort is one output port: its per-bit value literals and the buffer
// OutputWords fills and hands out.
type outPort struct {
	bus   []Lit
	words []uint64
}

// noToken is an odd gather record: a store token is even while the store
// is clean, so it never matches one and the next Eval gathers.
const noToken = 1

// New returns a machine that evaluates through tape, with state at its
// power-up values.
func New(lay *Layout, tape Tape) (*Machine, *Words) { return newMachine(lay, tape, nil) }

// NewReference returns a machine whose Eval calls eval instead of sweeping
// a tape: the differential reference a simulator's tape is fuzzed against.
// eval does its own state presentation, evaluation and ROM gathers; the
// ports, latching and Reset are the machine's.
func NewReference(lay *Layout, eval func()) (*Machine, *Words) { return newMachine(lay, nil, eval) }

func newMachine(lay *Layout, tape Tape, ref func()) (*Machine, *Words) {
	m := &Machine{lay: lay, tape: tape, ref: ref, roms: make([]*edac.ROM, len(lay.ROMs)), toks: make([]uint64, len(lay.ROMs))}
	m.w.Vals = make([]uint64, lay.NumVals)
	m.w.Src = m.w.Vals
	if lay.NumSrc > 0 {
		m.w.Src = make([]uint64, lay.NumSrc)
	}
	m.w.Q = make([]uint64, len(lay.Init))
	m.w.ROMQ = make([][8]uint64, len(lay.ROMs))
	m.outs = make(map[string]outPort, len(lay.Outputs))
	for name, bus := range lay.Outputs {
		m.outs[name] = outPort{bus: bus, words: make([]uint64, len(bus))}
	}
	for i := range lay.ROMs {
		m.roms[i] = edac.New(lay.ROMs[i].Name, *lay.ROMs[i].Contents)
	}
	m.Reset()
	return m, &m.w
}

// Reset restores every state word and ROM output register to its power-up
// value on every lane, clears the stimulus and the cycle count, and makes
// the next Eval sweep.
func (m *Machine) Reset() {
	clear(m.w.Src)
	for i, v := range m.lay.Init {
		m.w.Q[i] = logic.Word(v)
	}
	clear(m.w.ROMQ)
	m.w.Cycle = 0
	m.stateWritten()
}

// Cycle returns the number of Steps since construction or the last Reset.
func (m *Machine) Cycle() int { return m.w.Cycle }

// ROMStores returns the per-ROM EDAC stores both read paths go through,
// ordered like the simulator's ROM declarations. The stores are simulator
// state: injecting a bit fault into one faults this simulator only, and
// the golden contents are never modified. They are safe for concurrent
// use, so their counters may be read while the simulator runs.
func (m *Machine) ROMStores() []*edac.ROM { return m.roms }

// Eval propagates stimulus and the current state through the combinational
// logic on all lanes, resolving asynchronous ROM reads per lane. It does
// not advance the clock.
//
// On the tape, a pass is dirty when Dirty is set: a stimulus word or a
// state word moved, or the machine was just built or Reset. A dirty pass
// presents every state word and synchronous ROM register on the source
// array, then sweeps in segments: up to each asynchronous ROM's Stop, one
// EDAC Gather of that ROM (its address cone is resolved by then), its
// read data presented, and on from Resume; the empty range between two
// consecutive ROMs is not swept at all. A quiescent pass skips the sweep:
// Vals already hold its result, which is what the driver's Eval-then-Step
// pattern hits every cycle. It also skips an asynchronous ROM whose store
// token (edac.ROM.Token) is clean and equal to the one read before the
// Gather whose data is presented: the address and the decoded view are
// both unchanged, so the Gather would return the presented data and
// count nothing. A faulty store is gathered on every pass, quiescent or
// not, so its EDAC correction counters match the reference's one Gather
// per async ROM per Eval. If a gather returns moved data on a quiescent
// pass (the store was damaged or scrubbed since the last Eval), the sweep
// resumes right after that ROM: the skipped prefix provably held still.
// Fault injection therefore needs no special casing: a struck state word
// is written through WriteState, which sets Dirty, and a struck ROM word
// moves its store's token.
func (m *Machine) Eval() {
	if m.ref != nil {
		m.ref()
		return
	}
	lay, w := m.lay, &m.w
	src := w.Src
	dirty := w.Dirty
	w.Dirty = false
	if dirty {
		for i, at := range lay.Present {
			src[at] = w.Q[i]
		}
		for i := range lay.ROMs {
			if r := &lay.ROMs[i]; r.Sync {
				for bit, at := range r.Out {
					src[at] = w.ROMQ[i][bit]
				}
			}
		}
	}
	pos := 0
	for _, seg := range lay.Segs {
		if dirty && pos < seg.Stop {
			m.tape.EvalRange(pos, seg.Stop, src, w.Vals)
		}
		pos = seg.Resume
		tok := m.roms[seg.ROM].Token()
		if !dirty && tok&1 == 0 && tok == m.toks[seg.ROM] {
			continue
		}
		m.toks[seg.ROM] = tok
		data := m.gather(seg.ROM, tok)
		for bit, at := range lay.ROMs[seg.ROM].Out {
			if src[at] != data[bit] {
				src[at] = data[bit]
				dirty = true
			}
		}
	}
	if dirty && pos < lay.End {
		m.tape.EvalRange(pos, lay.End, src, w.Vals)
	}
}

// gather reads ROM i at the per-lane address its literals hold in Vals;
// tok is the store's token, read just before. A twin returns its primary's
// last Gather of the ROM instead when the addresses are its own, its own
// token is golden (edac.Golden), and the primary's store still shows the
// golden token read before that Gather. That Gather then read the golden
// contents, and this store would return the same data and count nothing.
// A faulty or aliased store on either side always gathers.
func (m *Machine) gather(i int, tok uint64) [8]uint64 {
	var addr [8]uint64
	for bit, l := range m.lay.ROMs[i].Addr {
		addr[bit] = l.word(m.w.Vals)
	}
	if p := m.primary; p != nil && edac.Golden(tok) {
		if r := &p.recs[i]; r.addr == addr && edac.Golden(r.tok) && p.roms[i].Token() == r.tok {
			return r.data
		}
	}
	data := m.roms[i].Gather(&addr)
	if m.recs != nil {
		m.recs[i] = gatherRec{tok: tok, addr: addr, data: data}
	}
	return data
}

// ShareGathers makes m a twin of primary, a machine of the same layout
// with its own EDAC stores: from now on m reuses primary's ROM Gathers
// where they are exactly what its own would return (see gather). Only the
// ROM reads are shared; m still presents its own state and sweeps its own
// tape, so its address cones and every other net stay independent of
// primary. Both machines must run on one goroutine, as a lockstep pair
// does.
func (m *Machine) ShareGathers(primary *Machine) {
	if primary.lay != m.lay || primary == m {
		panic(m.lay.Pkg + ": ShareGathers needs another machine of the same layout")
	}
	if primary.recs == nil {
		primary.recs = make([]gatherRec, len(m.lay.ROMs))
		for i := range primary.recs {
			primary.recs[i].tok = noToken
		}
	}
	m.primary = primary
}

// Step runs one clock cycle: Eval, then latch the state words and the
// synchronous ROM output registers. Both latch per lane: a state word's
// lane L loads only when its group's enable is high on lane L, and a
// group whose enable is low on every lane is skipped. A latch that moves
// any word sets Dirty; one that loads what was already held leaves the
// next Eval quiescent.
func (m *Machine) Step() {
	m.Eval()
	lay, w := m.lay, &m.w
	var moved uint64
	for _, g := range lay.Groups {
		en := g.En.word(w.Vals)
		if en == 0 {
			continue
		}
		for i := g.Lo; i < g.Hi; i++ {
			q := w.Q[i]&^en | lay.Next[i].word(w.Vals)&en
			moved |= q ^ w.Q[i]
			w.Q[i] = q
		}
	}
	if moved != 0 {
		w.Dirty = true
	}
	for i := range lay.ROMs {
		if lay.ROMs[i].Sync {
			if data := m.gather(i, m.roms[i].Token()); data != w.ROMQ[i] {
				w.ROMQ[i] = data
				w.Dirty = true
			}
		}
	}
	w.Cycle++
}

// WriteState hands the state words and the synchronous ROM output
// registers to write, for a change made outside the clock: a fault
// strike, a stuck-at being forced, a state restore. It then sets Dirty
// and drops the per-ROM gather records, so the next Eval presents all
// state and gathers every ROM. It is the only way to write either array
// from outside this package (the lanesim-state-write lint rule).
func (m *Machine) WriteState(write func(q []uint64, romq [][8]uint64)) {
	write(m.w.Q, m.w.ROMQ)
	m.stateWritten()
}

// stateWritten marks Vals stale and forgets which store views the
// presented ROM data came from.
func (m *Machine) stateWritten() {
	m.w.Dirty = true
	for i := range m.toks {
		m.toks[i] = noToken
	}
}

// SetInput drives an input port with the little-endian bits of value,
// broadcast identically across all 64 lanes. Ports wider than 64 bits
// must use SetInputBits.
func (m *Machine) SetInput(name string, value uint64) error {
	return m.setValue(name, ^uint64(0), value, "SetInputBits")
}

// SetInputBits drives an input port from packed bytes (bit i of the port
// at bits[i/8] bit i%8), broadcast identically across all 64 lanes. The
// buffer must hold exactly the port's width in bytes.
func (m *Machine) SetInputBits(name string, bits []byte) error {
	return m.setBits(name, ^uint64(0), bits)
}

// SetInputLane drives an input port on a single lane, leaving the other
// lanes' stimulus untouched.
func (m *Machine) SetInputLane(name string, lane int, value uint64) error {
	mask, err := m.laneMask(lane)
	if err != nil {
		return err
	}
	return m.setValue(name, mask, value, "SetInputBitsLane")
}

// SetInputBitsLane drives an input port on a single lane from packed
// bytes, leaving the other lanes' stimulus untouched.
func (m *Machine) SetInputBitsLane(name string, lane int, bits []byte) error {
	mask, err := m.laneMask(lane)
	if err != nil {
		return err
	}
	return m.setBits(name, mask, bits)
}

func (m *Machine) laneMask(lane int) (uint64, error) {
	if lane < 0 || lane >= logic.Lanes {
		return 0, fmt.Errorf("%s: lane %d out of range [0,%d)", m.lay.Pkg, lane, logic.Lanes)
	}
	return 1 << uint(lane), nil
}

func (m *Machine) input(name string) ([]int32, error) {
	at, ok := m.lay.Inputs[name]
	if !ok {
		return nil, fmt.Errorf("%s: no input port %q", m.lay.Pkg, name)
	}
	return at, nil
}

func (m *Machine) setValue(name string, lanes, value uint64, wide string) error {
	at, err := m.input(name)
	if err != nil {
		return err
	}
	if len(at) > 64 {
		return fmt.Errorf("%s: input %q wider than 64 bits, use %s", m.lay.Pkg, name, wide)
	}
	var bits [8]byte
	binary.LittleEndian.PutUint64(bits[:], value)
	m.drive(at, lanes, bits[:])
	return nil
}

func (m *Machine) setBits(name string, lanes uint64, bits []byte) error {
	at, err := m.input(name)
	if err != nil {
		return err
	}
	if want := (len(at) + 7) / 8; len(bits) != want {
		return fmt.Errorf("%s: input %q needs %d bytes for %d bits, got %d bytes", m.lay.Pkg, name, want, len(at), len(bits))
	}
	m.drive(at, lanes, bits)
	return nil
}

// drive sets stimulus word at[i] to bit i of bits on the masked lanes,
// without a branch per bit. It sets Dirty if and only if a word moved, so
// rewriting what the port already holds leaves the next Eval quiescent.
func (m *Machine) drive(at []int32, lanes uint64, bits []byte) {
	src := m.w.Src
	var moved uint64
	for bit, i := range at {
		old := src[i]
		w := old&^lanes | -uint64(bits[bit/8]>>(uint(bit)%8)&1)&lanes
		moved |= w ^ old
		src[i] = w
	}
	if moved != 0 {
		m.w.Dirty = true
	}
}

// Output reads an output port as a little-endian value on lane 0. Ports
// wider than 64 bits must use OutputBits. The logic must have been
// evaluated (Eval or Step) since the inputs last changed.
func (m *Machine) Output(name string) (uint64, error) { return m.OutputLane(name, 0) }

// OutputLane reads an output port as a little-endian value on one lane.
func (m *Machine) OutputLane(name string, lane int) (uint64, error) {
	if _, err := m.laneMask(lane); err != nil {
		return 0, err
	}
	p, err := m.output(name)
	if err != nil {
		return 0, err
	}
	bus := p.bus
	if len(bus) > 64 {
		return 0, fmt.Errorf("%s: output %q wider than 64 bits, use OutputBits", m.lay.Pkg, name)
	}
	var v uint64
	for bit, l := range bus {
		v |= l.word(m.w.Vals) >> uint(lane) & 1 << uint(bit)
	}
	return v, nil
}

// OutputBits reads an output port into packed bytes on lane 0, bit i of
// the port at bits[i/8] bit i%8.
func (m *Machine) OutputBits(name string) ([]byte, error) { return m.OutputBitsLane(name, 0) }

// OutputBitsLane reads an output port into packed bytes on one lane.
func (m *Machine) OutputBitsLane(name string, lane int) ([]byte, error) {
	if _, err := m.laneMask(lane); err != nil {
		return nil, err
	}
	p, err := m.output(name)
	if err != nil {
		return nil, err
	}
	bits := make([]byte, (len(p.bus)+7)/8)
	for bit, l := range p.bus {
		bits[bit/8] |= byte(l.word(m.w.Vals)>>uint(lane)&1) << (uint(bit) % 8)
	}
	return bits, nil
}

// OutputWords reads an output port as raw lane words: element i is the
// lane word of port bit i (bit L = lane L's value). This is the transposed
// view vectorized monitors use to compare all lanes in one pass, and the
// driver's bulk dout capture. It does not allocate: the slice is a buffer
// the machine owns, one per port, refilled by every call for that port.
// It is valid until the machine's next Eval, Step or OutputWords call;
// a caller that keeps the words longer copies them.
func (m *Machine) OutputWords(name string) ([]uint64, error) {
	p, err := m.output(name)
	if err != nil {
		return nil, err
	}
	for bit, l := range p.bus {
		p.words[bit] = l.word(m.w.Vals)
	}
	return p.words, nil
}

func (m *Machine) output(name string) (outPort, error) {
	p, ok := m.outs[name]
	if !ok {
		return outPort{}, fmt.Errorf("%s: no output port %q", m.lay.Pkg, name)
	}
	return p, nil
}

// RegValue returns the lane-0 state of a named register as packed bytes,
// bit i at bits[i/8] bit i%8, for debugging, waveform dumps and the
// driver's pending-load probe. The second result reports whether the
// register exists.
func (m *Machine) RegValue(name string) ([]byte, bool) { return m.RegValueLane(name, 0) }

// RegValueLane returns one lane's state of a named register as packed
// bytes.
func (m *Machine) RegValueLane(name string, lane int) ([]byte, bool) {
	if _, err := m.laneMask(lane); err != nil {
		return nil, false
	}
	idx, ok := m.lay.Regs[name]
	if !ok {
		return nil, false
	}
	bits := make([]byte, (len(idx)+7)/8)
	for bit, i := range idx {
		if i >= 0 {
			bits[bit/8] |= byte(m.w.Q[i]>>uint(lane)&1) << (uint(bit) % 8)
		}
	}
	return bits, true
}
