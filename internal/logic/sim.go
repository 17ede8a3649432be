package logic

// Eval simulates the whole net with 64 parallel input patterns. inputs[i]
// is the lane word of primary input ordinal i: bit L carries lane L's
// value (see the layout notes in lanes.go). The returned slice is indexed
// by node id and holds the lane word of every node's positive output, so
// the 64 lanes sweep the combinational logic at the cost of one pass.
func (n *Net) Eval(inputs []uint64) []uint64 {
	if len(inputs) != len(n.inputs) {
		panic("logic: Eval input count mismatch")
	}
	values := make([]uint64, len(n.nodes))
	n.EvalInto(inputs, values)
	return values
}

// EvalInto is Eval writing into a caller-provided slice of length NumNodes,
// allowing cycle-by-cycle simulation without reallocating.
func (n *Net) EvalInto(inputs, values []uint64) {
	if len(values) != len(n.nodes) {
		panic("logic: EvalInto values length mismatch")
	}
	values[0] = 0
	for id := 1; id < len(n.nodes); id++ {
		nd := &n.nodes[id]
		if nd.isInput() {
			values[id] = inputs[nd.ordinal()]
		} else {
			values[id] = litVal(values, nd.f0) & litVal(values, nd.f1)
		}
	}
}

func litVal(values []uint64, l Lit) uint64 {
	v := values[l.Node()]
	if l.Inverted() {
		return ^v
	}
	return v
}

// LitValue extracts the 64 pattern bits of a literal from a value slice
// produced by Eval/EvalInto.
func LitValue(values []uint64, l Lit) uint64 { return litVal(values, l) }

// EvalLits simulates the net and returns the 64-pattern values of the given
// literals only.
func (n *Net) EvalLits(lits []Lit, inputs []uint64) []uint64 {
	values := n.Eval(inputs)
	out := make([]uint64, len(lits))
	for i, l := range lits {
		out[i] = litVal(values, l)
	}
	return out
}

// Cone returns the node ids in the transitive fanin of the given roots
// (excluding the constant node), in topological order (fanins first).
func (n *Net) Cone(roots []Lit) []uint32 {
	seen := make([]bool, len(n.nodes))
	var order []uint32
	var stack []uint32
	for _, r := range roots {
		if r.Node() != 0 && !seen[r.Node()] {
			stack = append(stack, r.Node())
		}
	}
	// Iterative post-order DFS so deep cones cannot overflow the Go stack.
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		if seen[id] {
			stack = stack[:len(stack)-1]
			continue
		}
		nd := &n.nodes[id]
		ready := true
		if !nd.isInput() {
			for _, f := range [2]Lit{nd.f0, nd.f1} {
				fid := f.Node()
				if fid != 0 && !seen[fid] {
					stack = append(stack, fid)
					ready = false
				}
			}
		}
		if ready {
			stack = stack[:len(stack)-1]
			seen[id] = true
			order = append(order, id)
		}
	}
	return order
}

// Levels returns the logic depth of every node: inputs and the constant are
// level 0, an AND node is 1 + max(fanin levels). This is the unit-delay
// depth used for quick architecture comparisons before mapping.
func (n *Net) Levels() []int {
	lv := make([]int, len(n.nodes))
	for id := 1; id < len(n.nodes); id++ {
		nd := &n.nodes[id]
		if nd.isInput() {
			continue
		}
		l0 := lv[nd.f0.Node()]
		l1 := lv[nd.f1.Node()]
		lv[id] = 1 + max(l0, l1)
	}
	return lv
}

// Depth returns the maximum level over the given literals.
func (n *Net) Depth(lits []Lit) int {
	lv := n.Levels()
	d := 0
	for _, l := range lits {
		d = max(d, lv[l.Node()])
	}
	return d
}

// TruthTable computes the truth table of literal root as a function of the
// given leaf literals (up to 6), as a 64-bit mask where bit i is the output
// under the input assignment encoded by i (leaf 0 is the least significant
// selector). Leaves must be distinct nodes; the cone of root must not reach
// any primary input that is not listed as a leaf.
func (n *Net) TruthTable(root Lit, leaves []Lit) uint64 {
	if len(leaves) > 6 {
		panic("logic: TruthTable supports at most 6 leaves")
	}
	// Assign the standard simulation patterns to the leaves and evaluate the
	// cone between the leaves and the root.
	patterns := [6]uint64{
		0xAAAAAAAAAAAAAAAA,
		0xCCCCCCCCCCCCCCCC,
		0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00,
		0xFFFF0000FFFF0000,
		0xFFFFFFFF00000000,
	}
	// The memo holds the constant node, the leaves and every node evaluated
	// so far. A cut's interior is a handful of nodes, so a linear scan (from
	// the newest entry) beats hashing, and the fixed buffers keep a typical
	// call allocation-free.
	var idBuf [32]uint32
	var valBuf [32]uint64
	ids, vals := idBuf[:0], valBuf[:0]
	for i, l := range leaves {
		v := patterns[i]
		if l.Inverted() {
			v = ^v
		}
		ids, vals = append(ids, l.Node()), append(vals, v)
	}
	ids, vals = append(ids, 0), append(vals, 0)
	lookup := func(id uint32) (uint64, bool) {
		for k := len(ids) - 1; k >= 0; k-- {
			if ids[k] == id {
				return vals[k], true
			}
		}
		return 0, false
	}
	// Iterative post-order evaluation from the root down to the leaves.
	var stackBuf [32]uint32
	stack := append(stackBuf[:0], root.Node())
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		if _, ok := lookup(id); ok {
			stack = stack[:len(stack)-1]
			continue
		}
		nd := &n.nodes[id]
		if nd.isInput() {
			panic("logic: TruthTable cone reaches an unlisted input")
		}
		v0, ok0 := lookup(nd.f0.Node())
		v1, ok1 := lookup(nd.f1.Node())
		if !ok0 {
			stack = append(stack, nd.f0.Node())
		}
		if !ok1 {
			stack = append(stack, nd.f1.Node())
		}
		if !ok0 || !ok1 {
			continue
		}
		if nd.f0.Inverted() {
			v0 = ^v0
		}
		if nd.f1.Inverted() {
			v1 = ^v1
		}
		ids, vals = append(ids, id), append(vals, v0&v1)
		stack = stack[:len(stack)-1]
	}
	v, _ := lookup(root.Node())
	if root.Inverted() {
		v = ^v
	}
	if len(leaves) < 6 {
		v &= (1 << (1 << uint(len(leaves)))) - 1
	}
	return v
}
