// Package techmap implements K-input LUT technology mapping of an
// And-Inverter Graph using priority cuts, the algorithm family used by
// modern FPGA synthesis tools (Mishchenko et al., "Combinational and
// sequential mapping with priority cuts").
//
// The mapper enumerates bounded cut sets per AIG node, selects a
// depth-optimal cover with an area-flow tie-break, and emits LUT cells into
// a netlist. Edge inversions are absorbed into LUT masks; an explicit
// second LUT is emitted only when both polarities of the same mapped node
// are demanded by non-LUT consumers (registers, ROM addresses, output
// ports), mirroring how real mappers absorb inverters.
package techmap

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"rijndaelip/internal/logic"
	"rijndaelip/internal/netlist"
)

// Options configures the mapper.
type Options struct {
	K       int // LUT input count; default 4
	MaxCuts int // priority cuts kept per node; default 8
	// NoAreaRecovery disables the post-pass that re-selects minimum
	// area-flow cuts for nodes with timing slack. The default (recovery
	// on) matches production mappers: depth-optimal where it matters,
	// area-optimal elsewhere.
	NoAreaRecovery bool
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 4
	}
	if o.K > 4 {
		panic("techmap: K > 4 not supported by the netlist LUT cell")
	}
	if o.MaxCuts == 0 {
		o.MaxCuts = 8
	}
	return o
}

// cut is a set of at most 4 leaf node ids, sorted ascending.
type cut struct {
	leaves [4]uint32
	n      int8
	depth  int32   // 1 + max leaf arrival
	flow   float64 // area flow estimate
	// sig has bit id%64 set for every leaf id: two cuts whose signatures
	// together have more than K bits cannot merge into a K-feasible cut.
	sig uint64
}

func (c *cut) leafSlice() []uint32 { return c.leaves[:c.n] }

// trivialCut is the one-leaf cut {id}.
func trivialCut(id uint32, depth int32, flow float64) cut {
	return cut{leaves: [4]uint32{id}, n: 1, depth: depth, flow: flow, sig: 1 << (id % 64)}
}

// mergeCuts unions two cuts; reports failure if the union exceeds k leaves.
func mergeCuts(a, b *cut, k int) (cut, bool) {
	m := cut{sig: a.sig | b.sig}
	i, j := 0, 0
	for i < int(a.n) || j < int(b.n) {
		var next uint32
		switch {
		case i >= int(a.n):
			next = b.leaves[j]
			j++
		case j >= int(b.n):
			next = a.leaves[i]
			i++
		case a.leaves[i] < b.leaves[j]:
			next = a.leaves[i]
			i++
		case a.leaves[i] > b.leaves[j]:
			next = b.leaves[j]
			j++
		default:
			next = a.leaves[i]
			i++
			j++
		}
		if int(m.n) == k {
			return cut{}, false
		}
		m.leaves[m.n] = next
		m.n++
	}
	return m, true
}

// cutPriority orders a node's candidate cuts: fastest first, then least
// area flow, then fewest leaves.
func cutPriority(a, b cut) int {
	if a.depth != b.depth {
		return cmp.Compare(a.depth, b.depth)
	}
	if a.flow != b.flow {
		return cmp.Compare(a.flow, b.flow)
	}
	return cmp.Compare(a.n, b.n)
}

// MappedLUT is one LUT of the chosen cover, expressed over AIG node ids.
type MappedLUT struct {
	Node   uint32   // AIG node implemented (positive function)
	Leaves []uint32 // leaf node ids (AIG inputs or other mapped nodes)
	TT     uint16   // truth table of the positive function over positive leaves
}

// Cover is the result of mapping: the chosen LUTs in topological order and
// the root literals they must realize.
type Cover struct {
	aig   *logic.Net
	roots []logic.Lit
	LUTs  []MappedLUT
	Depth int // mapped LUT depth of the deepest root
}

// Map runs priority-cut mapping of the cone feeding roots.
//
// All per-node state lives in slices indexed by AIG node id, and every
// node's cuts live in one arena: node id owns arena[lo[id]:hi[id]], its
// priority cuts best first, followed by its trivial cut {id}.
func Map(aig *logic.Net, roots []logic.Lit, opt Options) (*Cover, error) {
	opt = opt.withDefaults()
	cone := aig.Cone(roots)
	isInput := func(id uint32) bool { return aig.IsInput(logic.Lit(id << 1)) }

	// AIG fanout estimate for area flow.
	refs := make([]float64, aig.NumNodes())
	for _, id := range cone {
		if isInput(id) {
			continue
		}
		f0, f1 := aig.Fanins(id)
		refs[f0.Node()]++
		refs[f1.Node()]++
	}
	for _, r := range roots {
		refs[r.Node()]++
	}

	lo := make([]int32, aig.NumNodes())
	hi := make([]int32, aig.NumNodes())
	arrival := make([]int32, aig.NumNodes())
	flowOf := make([]float64, aig.NumNodes())
	arena := make([]cut, 0, len(cone)*(opt.MaxCuts+1))
	var cand []cut

	for _, id := range cone {
		start := int32(len(arena))
		if isInput(id) {
			arena = append(arena, trivialCut(id, 0, 0))
			lo[id], hi[id] = start, start+1
			continue
		}
		f0, f1 := aig.Fanins(id)
		cuts0 := arena[lo[f0.Node()]:hi[f0.Node()]]
		cuts1 := arena[lo[f1.Node()]:hi[f1.Node()]]
		cand = cand[:0]
		for i := range cuts0 {
			for j := range cuts1 {
				if bits.OnesCount64(cuts0[i].sig|cuts1[j].sig) > opt.K {
					continue // more than K distinct leaves: mergeCuts would fail
				}
				m, ok := mergeCuts(&cuts0[i], &cuts1[j], opt.K)
				if !ok {
					continue
				}
				var d int32
				var fl float64
				for _, lf := range m.leafSlice() {
					if arrival[lf] > d {
						d = arrival[lf]
					}
					r := refs[lf]
					if r < 1 {
						r = 1
					}
					fl += flowOf[lf] / r
				}
				m.depth = d + 1
				m.flow = fl + 1
				cand = append(cand, m)
			}
		}
		if len(cand) == 0 {
			return nil, fmt.Errorf("techmap: node %d has no feasible cut", id)
		}
		// The sort is not stable: tied cuts end up in the order this
		// pdqsort gives them, which TestMappedNetlistGolden pins. Another
		// sort algorithm may pick other cuts among ties.
		slices.SortFunc(cand, cutPriority)
		// Keep the first MaxCuts distinct cuts in priority order.
	next:
		for _, c := range cand {
			for _, kept := range arena[start:] {
				if kept.n == c.n && kept.leaves == c.leaves {
					continue next
				}
			}
			arena = append(arena, c)
			if len(arena)-int(start) == opt.MaxCuts {
				break
			}
		}
		best := arena[start]
		arrival[id] = best.depth
		flowOf[id] = best.flow
		// Parents may also use this node as a leaf (trivial cut).
		arena = append(arena, trivialCut(id, best.depth, best.flow))
		lo[id], hi[id] = start, int32(len(arena))
	}

	// Cover extraction from the roots downward.
	cov := &Cover{aig: aig, roots: append([]logic.Lit(nil), roots...)}
	// needed marks the AND nodes the cover implements.
	needed := make([]bool, aig.NumNodes())
	var depth int32
	for _, r := range roots {
		id := r.Node()
		if id == 0 || aig.IsInput(r) {
			continue
		}
		needed[id] = true
		depth = max(depth, arrival[id])
	}
	cov.Depth = int(depth)
	// Area recovery: every root may relax to the global mapped depth (the
	// clock is set by the worst endpoint), and internal nodes inherit
	// required times from their parents. A node with slack takes its
	// minimum-area-flow cut instead of its fastest one. A parent requires
	// its leaves one level earlier than itself, so a leaf's required time
	// is the earliest over its parents, and always below depth.
	required := make([]int32, aig.NumNodes())
	for i := range required {
		required[i] = depth
	}
	// Walk the cone in reverse topological order so parents mark leaves
	// (and propagate required times) before the leaves are visited. A
	// cut's leaves precede its node in the cone, so the walk reaches every
	// needed AND node exactly once, after all its parents: it chooses each
	// node's cut as it goes and emits the cover in reverse topological
	// order.
	for i := len(cone) - 1; i >= 0; i-- {
		id := cone[i]
		if !needed[id] || isInput(id) {
			continue
		}
		// The priority cuts, without the trivial self-cut, which cannot
		// implement the node.
		cuts := arena[lo[id] : hi[id]-1]
		c := cuts[0]
		if !opt.NoAreaRecovery {
			req := required[id]
			bestFlow := c.flow
			for _, cand := range cuts {
				var d int32
				for _, lf := range cand.leafSlice() {
					if arrival[lf] >= d {
						d = arrival[lf]
					}
				}
				d++
				if d <= req && (cand.flow < bestFlow ||
					(cand.flow == bestFlow && cand.n < c.n)) {
					c = cand
					bestFlow = cand.flow
				}
			}
		}
		var leafLits [4]logic.Lit
		for k, lf := range c.leafSlice() {
			leafLits[k] = logic.Lit(lf << 1)
			if isInput(lf) {
				continue
			}
			needed[lf] = true
			required[lf] = min(required[lf], required[id]-1)
		}
		tt := uint16(aig.TruthTable(logic.Lit(id<<1), leafLits[:c.n]))
		cov.LUTs = append(cov.LUTs, MappedLUT{Node: id, Leaves: slices.Clone(c.leafSlice()), TT: tt})
	}
	slices.Reverse(cov.LUTs)
	return cov, nil
}

// NumLUTs returns the LUT count of the cover.
func (c *Cover) NumLUTs() int { return len(c.LUTs) }

// flipVar inverts input variable v of a k-variable truth table.
func flipVar(tt uint16, v int, k int) uint16 {
	var out uint16
	for idx := 0; idx < 1<<uint(k); idx++ {
		if tt>>uint(idx)&1 != 0 {
			out |= 1 << uint(idx^(1<<uint(v)))
		}
	}
	return out
}

// invertTT complements a k-variable truth table within its defined bits.
func invertTT(tt uint16, k int) uint16 {
	mask := uint16(1)<<(1<<uint(k)) - 1
	if k == 4 {
		mask = 0xFFFF
	}
	return ^tt & mask
}

// EmitEnv supplies the netlist context for cover emission.
type EmitEnv struct {
	NL *netlist.Netlist
	// InputNet maps an AIG primary-input ordinal to the netlist net that
	// carries its (positive) value.
	InputNet func(ordinal int) netlist.NetID
	// Name, if non-nil, labels the LUT emitted for a root literal.
	Name func(root logic.Lit) string
}

// Emit writes the cover's LUTs into the netlist and returns one net per
// root literal (aligned with the roots passed to Map), with polarities
// honoured. LUT-to-LUT inversions are absorbed into masks; a node demanded
// in both polarities by roots is duplicated.
func (c *Cover) Emit(env EmitEnv) ([]netlist.NetID, error) {
	aig := c.aig
	// Per AIG node, indexed by node id: the root polarities demanded, and
	// the nets emitted so far. No LUT drives net 0 (the constant Const0),
	// so 0 marks a net not yet emitted.
	needPos := make([]bool, aig.NumNodes())
	needNeg := make([]bool, aig.NumNodes())
	for _, r := range c.roots {
		id := r.Node()
		if id == 0 || aig.IsInput(r) {
			continue
		}
		if r.Inverted() {
			needNeg[id] = true
		} else {
			needPos[id] = true
		}
	}
	// A mapped node carries its positive polarity unless roots demand only
	// the negative one. Internal leaf uses demand the carrying polarity only;
	// LUT masks fold in the inversion.
	carryNeg := func(id uint32) bool { return needNeg[id] && !needPos[id] }

	posNet := make([]netlist.NetID, aig.NumNodes())      // net carrying the carried polarity
	dupNet := make([]netlist.NetID, aig.NumNodes())      // net carrying the opposite polarity (duplicated)
	inputNegNet := make([]netlist.NetID, aig.NumNodes()) // inverters for negated input roots

	leafNet := func(id uint32) (netlist.NetID, bool) {
		if aig.IsInput(logic.Lit(id << 1)) {
			return env.InputNet(aig.InputOrdinal(logic.Lit(id << 1))), false
		}
		n := posNet[id]
		if n == 0 {
			panic("techmap: leaf emitted out of order")
		}
		return n, carryNeg(id)
	}

	for i := range c.LUTs {
		ml := &c.LUTs[i]
		k := len(ml.Leaves)
		tt := ml.TT
		ins := make([]netlist.NetID, k)
		for v, lf := range ml.Leaves {
			n, neg := leafNet(lf)
			ins[v] = n
			if neg {
				tt = flipVar(tt, v, k)
			}
		}
		if carryNeg(ml.Node) {
			tt = invertTT(tt, k)
		}
		out := env.NL.NewNet()
		name := ""
		if env.Name != nil {
			name = env.Name(logic.Lit(ml.Node << 1))
		}
		env.NL.AddLUT(netlist.LUT{Inputs: ins, Mask: tt, Out: out, Name: name})
		posNet[ml.Node] = out
		if needPos[ml.Node] && needNeg[ml.Node] {
			// Duplicate with the opposite polarity for the minority use.
			dup := env.NL.NewNet()
			env.NL.AddLUT(netlist.LUT{Inputs: ins, Mask: invertTT(tt, k), Out: dup,
				Name: name + "~dup"})
			dupNet[ml.Node] = dup
		}
	}

	out := make([]netlist.NetID, len(c.roots))
	for i, r := range c.roots {
		id := r.Node()
		switch {
		case r == logic.False:
			out[i] = netlist.Const0
		case r == logic.True:
			out[i] = netlist.Const1
		case aig.IsInput(r):
			base := env.InputNet(aig.InputOrdinal(r))
			if !r.Inverted() {
				out[i] = base
				continue
			}
			if inputNegNet[id] == 0 {
				inputNegNet[id] = env.NL.NewNet()
				env.NL.AddLUT(netlist.LUT{Inputs: []netlist.NetID{base}, Mask: 0b01, Out: inputNegNet[id]})
			}
			out[i] = inputNegNet[id]
		default:
			if r.Inverted() == carryNeg(id) {
				out[i] = posNet[id]
			} else {
				if dupNet[id] == 0 {
					return nil, fmt.Errorf("techmap: missing polarity for root %v", r)
				}
				out[i] = dupNet[id]
			}
		}
	}
	return out, nil
}
