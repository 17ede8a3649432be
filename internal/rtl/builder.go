// Package rtl provides a structural register-transfer-level builder: a thin
// hardware-description layer over the logic package's And-Inverter Graph.
//
// A design is described once — buses, registers with enables, ROM macros
// and combinational expressions — and elaborated into a Design that can be
// (a) simulated cycle-accurately at the bit level, and (b) synthesized
// through the technology mapper into a netlist for fitting and static
// timing analysis. Because simulation and synthesis consume the same
// elaborated structure, the functional model and the area/timing model can
// never drift apart.
package rtl

import (
	"fmt"

	"rijndaelip/internal/logic"
)

// Bus is an ordered list of AIG literals, least-significant bit first.
type Bus = []logic.Lit

// ROMStyle selects how a 256x8 ROM is realized.
type ROMStyle int

// ROM realization styles.
const (
	// ROMAsync is a combinational-read embedded memory block (Acex1K EAB).
	ROMAsync ROMStyle = iota
	// ROMSync is a registered-read embedded memory block (Cyclone M4K):
	// the output corresponds to the address sampled at the previous clock
	// edge.
	ROMSync
	// ROMLogic expands the ROM into LUT logic (a constant-leaf mux tree),
	// which is what Quartus does when a device cannot implement the
	// requested memory mode.
	ROMLogic
)

func (s ROMStyle) String() string {
	switch s {
	case ROMAsync:
		return "async"
	case ROMSync:
		return "sync"
	case ROMLogic:
		return "logic"
	}
	return fmt.Sprintf("ROMStyle(%d)", int(s))
}

type port struct {
	name string
	bus  Bus
}

// Reg is a register declared on a builder. Q is valid immediately so
// feedback paths can be described; Next must be connected via SetNext
// before Build.
type Reg struct {
	Name string
	Q    Bus
	b    *Builder
	idx  int
}

type regDef struct {
	name      string
	q         Bus // AIG input literals
	next      Bus
	en        logic.Lit
	init      []bool
	connected bool
}

type romDef struct {
	name     string
	style    ROMStyle
	addr     Bus
	out      Bus // AIG input literals (pseudo-inputs)
	contents [256]byte
}

// Builder accumulates the structural description of a design.
type Builder struct {
	name    string
	aig     *logic.Net
	inputs  []port
	outputs []port
	regs    []regDef
	roms    []romDef
	inKind  []inputSource // by AIG input ordinal
}

// inputSource records what drives an AIG pseudo-input.
type inputSource struct {
	kind uint8 // srcPI, srcReg, srcROM
	idx  int32 // port/reg/rom index
	bit  int32
}

const (
	srcPI = iota
	srcReg
	srcROM
)

// NewBuilder returns an empty design builder.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, aig: logic.New()}
}

// input creates a named AIG pseudo-input driven by src.
func (b *Builder) input(name string, src inputSource) logic.Lit {
	l := b.aig.NamedInput(name)
	ord := b.aig.InputOrdinal(l)
	b.inKind = append(b.inKind, make([]inputSource, ord+1-len(b.inKind))...)
	b.inKind[ord] = src
	return l
}

// Logic exposes the underlying AIG for building combinational expressions.
func (b *Builder) Logic() *logic.Net { return b.aig }

// Input declares a primary input bus.
func (b *Builder) Input(name string, width int) Bus {
	bus := make(Bus, width)
	for i := range bus {
		bus[i] = b.input(fmt.Sprintf("%s[%d]", name, i), inputSource{kind: srcPI, idx: int32(len(b.inputs)), bit: int32(i)})
	}
	b.inputs = append(b.inputs, port{name: name, bus: bus})
	return bus
}

// Output declares a primary output bus driven by the given literals.
func (b *Builder) Output(name string, bus Bus) {
	b.outputs = append(b.outputs, port{name: name, bus: append(Bus(nil), bus...)})
}

// Reg declares a register of the given width with all-zero initial value.
// Its Q bus is usable immediately; connect the data input with SetNext.
func (b *Builder) Reg(name string, width int) *Reg {
	q := make(Bus, width)
	idx := len(b.regs)
	for i := range q {
		q[i] = b.input(fmt.Sprintf("%s.q[%d]", name, i), inputSource{kind: srcReg, idx: int32(idx), bit: int32(i)})
	}
	b.regs = append(b.regs, regDef{name: name, q: q, en: logic.True, init: make([]bool, width)})
	return &Reg{Name: name, Q: q, b: b, idx: idx}
}

// SetNext connects the register's data input. en gates loading: when en is
// logic.True the register loads every cycle.
func (r *Reg) SetNext(next Bus, en logic.Lit) {
	d := &r.b.regs[r.idx]
	if d.connected {
		panic(fmt.Sprintf("rtl: register %s connected twice", r.Name))
	}
	if len(next) != len(d.q) {
		panic(fmt.Sprintf("rtl: register %s width %d connected to %d bits", r.Name, len(d.q), len(next)))
	}
	d.next = append(Bus(nil), next...)
	d.en = en
	d.connected = true
}

// SetInit sets the power-up value of the register.
func (r *Reg) SetInit(init []bool) {
	d := &r.b.regs[r.idx]
	if len(init) != len(d.q) {
		panic(fmt.Sprintf("rtl: register %s init width mismatch", r.Name))
	}
	copy(d.init, init)
}

// ROM instantiates a 256x8 read-only memory. addr must be 8 bits. The
// returned bus is the 8-bit read data. For ROMLogic the contents are
// expanded into the AIG immediately; for ROMAsync/ROMSync a memory macro is
// recorded and survives into the synthesized netlist.
func (b *Builder) ROM(name string, addr Bus, contents [256]byte, style ROMStyle) Bus {
	if len(addr) != 8 {
		panic(fmt.Sprintf("rtl: ROM %s address must be 8 bits, got %d", name, len(addr)))
	}
	if style == ROMLogic {
		return b.romLogic(addr, contents)
	}
	out := make(Bus, 8)
	idx := len(b.roms)
	for i := range out {
		out[i] = b.input(fmt.Sprintf("%s.dout[%d]", name, i), inputSource{kind: srcROM, idx: int32(idx), bit: int32(i)})
	}
	b.roms = append(b.roms, romDef{
		name: name, style: style, addr: append(Bus(nil), addr...),
		out: out, contents: contents,
	})
	return out
}

// romLogic expands ROM contents into a constant-leaf mux tree per output
// bit. Structural hashing shares identical subtrees, mirroring how LUT
// synthesis of a ROM benefits from don't-care structure.
func (b *Builder) romLogic(addr Bus, contents [256]byte) Bus {
	out := make(Bus, 8)
	for bit := 0; bit < 8; bit++ {
		leaves := make([]logic.Lit, 256)
		for a := 0; a < 256; a++ {
			if contents[a]>>uint(bit)&1 != 0 {
				leaves[a] = logic.True
			} else {
				leaves[a] = logic.False
			}
		}
		// Fold the mux tree from the LSB selector upward.
		for level := 0; level < 8; level++ {
			next := make([]logic.Lit, len(leaves)/2)
			for i := range next {
				next[i] = b.aig.Mux(addr[level], leaves[2*i+1], leaves[2*i])
			}
			leaves = next
		}
		out[bit] = leaves[0]
	}
	return out
}

// Const returns a constant bus of the given width and value.
func Const(width int, value uint64) Bus { return logic.ConstVector(width, value) }

// Slice returns bits [lo, lo+n) of a bus.
func Slice(b Bus, lo, n int) Bus { return b[lo : lo+n] }

// Cat concatenates buses, first argument becoming the least-significant
// bits.
func Cat(buses ...Bus) Bus {
	var out Bus
	for _, b := range buses {
		out = append(out, b...)
	}
	return out
}

// RotateByteLeft rotates a 32-bit bus left by one byte (bits [8:32) move
// down, bits [0:8) wrap to the top): the RotWord wiring of the key
// schedule.
func RotateByteLeft(w Bus) Bus {
	if len(w) != 32 {
		panic("rtl: RotateByteLeft needs 32 bits")
	}
	return Cat(w[8:32], w[0:8])
}

// Connected reports whether the register's next-value input has been
// wired with SetNext.
func (r *Reg) Connected() bool { return r.b.regs[r.idx].connected }
