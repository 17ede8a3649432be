// Package netlist models a technology-mapped FPGA netlist: 4-input LUTs,
// D flip-flops with clock enables, 256x8 ROM macros (asynchronous or
// synchronous) and primary I/O. It is the common artifact produced by the
// technology mapper, consumed by the fitter and the static timing analyzer,
// and simulated cycle-accurately for functional sign-off.
package netlist

import (
	"fmt"
	"sync"
)

// NetID identifies a single-bit net. Net 0 is constant zero and net 1 is
// constant one; both are always present.
type NetID int32

// Reserved constant nets.
const (
	Const0 NetID = 0
	Const1 NetID = 1
)

// Invalid marks an unused optional net reference (e.g. a flip-flop without
// a clock enable).
const Invalid NetID = -1

// LUT is a K-input lookup table cell (K <= 4). Mask bit i holds the output
// for the input assignment encoded by i, with Inputs[0] as the least
// significant selector. Unused mask bits above 2^len(Inputs) are ignored.
type LUT struct {
	Inputs []NetID
	Mask   uint16
	Out    NetID
	Name   string
}

// FF is a D flip-flop with optional clock enable. When En is Invalid the
// flip-flop loads on every clock edge. Init is the power-up value.
type FF struct {
	D    NetID
	En   NetID
	Q    NetID
	Init bool
	Name string
}

// ROMBits is the capacity of one ROM macro (256 words x 8 bits).
const ROMBits = 2048

// ROM is a 256x8 read-only memory macro. When Sync is true the read is
// registered: outputs update on the clock edge from the address sampled at
// that edge (Cyclone M4K behaviour). When false the read is combinational
// (Acex1K EAB behaviour).
type ROM struct {
	Addr     [8]NetID
	Out      [8]NetID
	Contents [256]byte
	Sync     bool
	Name     string
}

// Port is a named primary input or output bus.
type Port struct {
	Name string
	Nets []NetID
}

// Netlist is a complete mapped design. Construct with New and the Add*
// methods; call Build before simulating or analyzing.
type Netlist struct {
	Name    string
	numNets int
	LUTs    []LUT
	FFs     []FF
	ROMs    []ROM
	Inputs  []Port
	Outputs []Port

	// Derived by Build:
	order   []CombRef // combinational evaluation order
	driver  []int8    // per-net driver kind, for validation
	fanout  []int     // per-net fanout count (cell input uses)
	built   bool
	buildOK error

	// The evaluation schedule every simulator of this build shares,
	// compiled on the first NewSimulator or audit and dropped by Build
	// whenever a mutator has cleared built. In-place edits of the
	// exported cell slices clear nothing, so a schedule compiled before
	// them does not see them.
	compMu sync.Mutex
	comp   *compiled
}

// CombKind distinguishes combinational element types in evaluation order.
type CombKind int8

// Combinational element kinds.
const (
	CombLUT CombKind = iota
	CombROM          // asynchronous ROM read
)

// CombRef identifies one combinational element (index into LUTs or ROMs).
type CombRef struct {
	Kind  CombKind
	Index int
}

// Driver kinds for validation.
const (
	drvNone int8 = iota
	drvConst
	drvInput
	drvLUT
	drvFF
	drvROM     // async ROM output
	drvROMSync // sync ROM output (sequential)
)

// New returns an empty netlist with the two constant nets allocated.
func New(name string) *Netlist {
	return &Netlist{Name: name, numNets: 2}
}

// NewNet allocates a fresh undriven net.
func (nl *Netlist) NewNet() NetID {
	id := NetID(nl.numNets)
	nl.numNets++
	nl.built = false
	return id
}

// NewNets allocates a bus of n fresh nets.
func (nl *Netlist) NewNets(n int) []NetID {
	out := make([]NetID, n)
	for i := range out {
		out[i] = nl.NewNet()
	}
	return out
}

// NumNets returns the number of allocated nets including the constants.
func (nl *Netlist) NumNets() int { return nl.numNets }

// AddInput declares a primary input bus of fresh nets and returns them.
func (nl *Netlist) AddInput(name string, width int) []NetID {
	nets := nl.NewNets(width)
	nl.Inputs = append(nl.Inputs, Port{Name: name, Nets: nets})
	nl.built = false
	return nets
}

// AddOutput declares a primary output bus driven by the given nets.
func (nl *Netlist) AddOutput(name string, nets []NetID) {
	nl.Outputs = append(nl.Outputs, Port{Name: name, Nets: append([]NetID(nil), nets...)})
	nl.built = false
}

// AddLUT appends a LUT cell.
func (nl *Netlist) AddLUT(l LUT) {
	nl.LUTs = append(nl.LUTs, l)
	nl.built = false
}

// AddFF appends a flip-flop.
func (nl *Netlist) AddFF(f FF) {
	nl.FFs = append(nl.FFs, f)
	nl.built = false
}

// AddROM appends a ROM macro.
func (nl *Netlist) AddROM(r ROM) {
	nl.ROMs = append(nl.ROMs, r)
	nl.built = false
}

// NumLUTs returns the LUT cell count.
func (nl *Netlist) NumLUTs() int { return len(nl.LUTs) }

// NumFFs returns the flip-flop count.
func (nl *Netlist) NumFFs() int { return len(nl.FFs) }

// MemoryBits returns the total embedded-memory bits used by ROM macros.
func (nl *Netlist) MemoryBits() int { return len(nl.ROMs) * ROMBits }

// PinCount returns the total primary I/O bit count (package pins used,
// excluding the implicit clock which FPGA devices route on dedicated
// networks -- the paper's Table 1 counts clk, so callers add it explicitly
// via an input port if they want it counted).
func (nl *Netlist) PinCount() int {
	n := 0
	for _, p := range nl.Inputs {
		n += len(p.Nets)
	}
	for _, p := range nl.Outputs {
		n += len(p.Nets)
	}
	return n
}

// Fanout returns the number of cell/ROM/FF/output loads on a net. Valid
// after Build.
func (nl *Netlist) Fanout(n NetID) int {
	if !nl.built || int(n) >= len(nl.fanout) {
		return 0
	}
	return nl.fanout[n]
}

// Build validates the netlist (single driver per net, no undriven nets in
// use, no combinational cycles) and computes the evaluation order. It is
// idempotent and called automatically by the simulator and analyzers.
func (nl *Netlist) Build() error {
	if nl.built {
		return nl.buildOK
	}
	nl.built = true
	nl.buildOK = nl.build()
	nl.compMu.Lock()
	nl.comp = nil
	nl.compMu.Unlock()
	return nl.buildOK
}

func (nl *Netlist) build() error {
	drv := make([]int8, nl.numNets)
	drv[Const0] = drvConst
	drv[Const1] = drvConst
	setDrv := func(n NetID, kind int8, what string) error {
		if n < 0 || int(n) >= nl.numNets {
			return fmt.Errorf("netlist %s: %s drives invalid net %d", nl.Name, what, n)
		}
		if drv[n] != drvNone {
			return fmt.Errorf("netlist %s: net %d multiply driven (%s)", nl.Name, n, what)
		}
		drv[n] = kind
		return nil
	}
	for _, p := range nl.Inputs {
		for _, n := range p.Nets {
			if err := setDrv(n, drvInput, "input "+p.Name); err != nil {
				return err
			}
		}
	}
	for i := range nl.LUTs {
		if len(nl.LUTs[i].Inputs) > 4 {
			return fmt.Errorf("netlist %s: LUT %d has %d inputs", nl.Name, i, len(nl.LUTs[i].Inputs))
		}
		if err := setDrv(nl.LUTs[i].Out, drvLUT, "LUT"); err != nil {
			return err
		}
	}
	for i := range nl.FFs {
		if err := setDrv(nl.FFs[i].Q, drvFF, "FF"); err != nil {
			return err
		}
	}
	for i := range nl.ROMs {
		kind := drvROM
		if nl.ROMs[i].Sync {
			kind = drvROMSync
		}
		for _, o := range nl.ROMs[i].Out {
			if err := setDrv(o, kind, "ROM"); err != nil {
				return err
			}
		}
	}
	nl.driver = drv

	// Fanout counting over all cell input pins and outputs.
	fan := make([]int, nl.numNets)
	use := func(n NetID) error {
		if n == Invalid {
			return nil
		}
		if n < 0 || int(n) >= nl.numNets {
			return fmt.Errorf("netlist %s: use of invalid net %d", nl.Name, n)
		}
		if drv[n] == drvNone {
			return fmt.Errorf("netlist %s: net %d used but undriven", nl.Name, n)
		}
		fan[n]++
		return nil
	}
	for i := range nl.LUTs {
		for _, in := range nl.LUTs[i].Inputs {
			if err := use(in); err != nil {
				return err
			}
		}
	}
	for i := range nl.FFs {
		if err := use(nl.FFs[i].D); err != nil {
			return err
		}
		if nl.FFs[i].En != Invalid {
			if err := use(nl.FFs[i].En); err != nil {
				return err
			}
		}
	}
	for i := range nl.ROMs {
		for _, a := range nl.ROMs[i].Addr {
			if err := use(a); err != nil {
				return err
			}
		}
	}
	for _, p := range nl.Outputs {
		for _, n := range p.Nets {
			if err := use(n); err != nil {
				return err
			}
		}
	}
	nl.fanout = fan

	// Topological order of the combinational elements (LUTs and async
	// ROMs). Sequential outputs (FF Q, sync ROM out), inputs and constants
	// are sources.
	type pending struct {
		node CombRef
		deps int
	}
	// Map each combinationally driven net to its producing element.
	producer := make(map[NetID]CombRef)
	nodes := make([]pending, 0, len(nl.LUTs)+len(nl.ROMs))
	addNode := func(kind CombKind, idx int, outs []NetID) {
		nodes = append(nodes, pending{node: CombRef{Kind: kind, Index: idx}})
		for _, o := range outs {
			producer[o] = CombRef{Kind: kind, Index: idx}
		}
	}
	for i := range nl.LUTs {
		addNode(CombLUT, i, []NetID{nl.LUTs[i].Out})
	}
	for i := range nl.ROMs {
		if !nl.ROMs[i].Sync {
			addNode(CombROM, i, nl.ROMs[i].Out[:])
		}
	}
	// Dependency edges: consumer node -> producer node via input nets.
	nodeIndex := make(map[CombRef]int, len(nodes))
	for i, p := range nodes {
		nodeIndex[p.node] = i
	}
	succs := make([][]int, len(nodes))
	inputsOf := func(n CombRef) []NetID {
		if n.Kind == CombLUT {
			return nl.LUTs[n.Index].Inputs
		}
		return nl.ROMs[n.Index].Addr[:]
	}
	for i, p := range nodes {
		for _, in := range inputsOf(p.node) {
			if prod, ok := producer[in]; ok {
				succs[nodeIndex[prod]] = append(succs[nodeIndex[prod]], i)
				nodes[i].deps++
			}
		}
	}
	// Kahn's algorithm.
	queue := make([]int, 0, len(nodes))
	for i := range nodes {
		if nodes[i].deps == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]CombRef, 0, len(nodes))
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, nodes[i].node)
		for _, s := range succs[i] {
			nodes[s].deps--
			if nodes[s].deps == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(nodes) {
		return fmt.Errorf("netlist %s: combinational cycle detected", nl.Name)
	}
	nl.order = order
	return nil
}

// CombOrder returns the levelized evaluation order of the combinational
// elements. Valid after Build.
func (nl *Netlist) CombOrder() []CombRef { return nl.order }

// FindInput returns the nets of the named input port.
func (nl *Netlist) FindInput(name string) ([]NetID, bool) {
	for _, p := range nl.Inputs {
		if p.Name == name {
			return p.Nets, true
		}
	}
	return nil, false
}

// FindOutput returns the nets of the named output port.
func (nl *Netlist) FindOutput(name string) ([]NetID, bool) {
	for _, p := range nl.Outputs {
		if p.Name == name {
			return p.Nets, true
		}
	}
	return nil, false
}
