// Package logic implements an And-Inverter Graph (AIG), the combinational
// logic representation used by this repository's synthesis flow.
//
// An AIG represents arbitrary combinational logic with two-input AND nodes
// and edge inversions. Construction performs constant folding, trivial-case
// simplification and structural hashing, so equivalent subexpressions are
// built only once. The package also provides 64-way parallel bit-level
// simulation, topological utilities, level (depth) computation and truth
// tables of small cones — everything the technology mapper and the
// equivalence checks need.
package logic

import "fmt"

// Lit is a literal: a node index shifted left by one, with the low bit set
// when the edge is complemented. Node 0 is the constant-false node, so the
// literal 0 is constant false and literal 1 is constant true.
type Lit uint32

// Constant literals.
const (
	False Lit = 0
	True  Lit = 1
)

// invalidLit marks input nodes in the fanin slots.
const invalidLit Lit = ^Lit(0)

// Not returns the complement of a literal.
func Not(a Lit) Lit { return a ^ 1 }

// Node returns the node index of a literal.
func (a Lit) Node() uint32 { return uint32(a >> 1) }

// Inverted reports whether the literal is complemented.
func (a Lit) Inverted() bool { return a&1 != 0 }

// IsConst reports whether the literal is one of the two constants.
func (a Lit) IsConst() bool { return a.Node() == 0 }

// String formats a literal for debugging.
func (a Lit) String() string {
	if a == False {
		return "0"
	}
	if a == True {
		return "1"
	}
	if a.Inverted() {
		return fmt.Sprintf("!n%d", a.Node())
	}
	return fmt.Sprintf("n%d", a.Node())
}

type node struct {
	// AND fanins. f0 == invalidLit marks a primary input, whose f1 then
	// holds the input ordinal.
	f0, f1 Lit
}

func (n *node) isInput() bool { return n.f0 == invalidLit }

// ordinal returns the creation index of an input node.
func (n *node) ordinal() int { return int(n.f1) }

// Net is an and-inverter graph. The zero value is not usable; create nets
// with New.
type Net struct {
	nodes  []node
	inputs []uint32          // node ids of primary inputs, in creation order
	strash map[[2]Lit]uint32 // structural hashing of AND nodes; nil after DropHashIndex
	names  []string          // optional debug names of inputs, by input ordinal
}

// New returns an empty net containing only the constant node.
func New() *Net {
	return &Net{
		nodes:  []node{{}}, // node 0: constant false
		strash: map[[2]Lit]uint32{},
	}
}

// NumNodes returns the total node count including the constant node.
func (n *Net) NumNodes() int { return len(n.nodes) }

// NumInputs returns the number of primary inputs.
func (n *Net) NumInputs() int { return len(n.inputs) }

// NumAnds returns the number of AND nodes.
func (n *Net) NumAnds() int { return len(n.nodes) - 1 - len(n.inputs) }

// Input creates a new primary input and returns its positive literal.
func (n *Net) Input() Lit {
	id := uint32(len(n.nodes))
	n.nodes = append(n.nodes, node{f0: invalidLit, f1: Lit(len(n.inputs))})
	n.inputs = append(n.inputs, id)
	return Lit(id << 1)
}

// NamedInput creates a primary input carrying a debug name.
func (n *Net) NamedInput(name string) Lit {
	l := n.Input()
	ord := n.InputOrdinal(l)
	n.names = append(n.names, make([]string, ord+1-len(n.names))...)
	n.names[ord] = name
	return l
}

// InputName returns the debug name of an input node, if any.
func (n *Net) InputName(id uint32) string {
	if int(id) >= len(n.nodes) || !n.nodes[id].isInput() {
		return ""
	}
	if ord := n.nodes[id].ordinal(); ord < len(n.names) {
		return n.names[ord]
	}
	return ""
}

// IsInput reports whether the literal refers to a primary-input node.
func (n *Net) IsInput(a Lit) bool {
	return a.Node() != 0 && n.nodes[a.Node()].isInput()
}

// InputOrdinal returns the creation index of the input node a refers to.
// It panics if a is not an input literal.
func (n *Net) InputOrdinal(a Lit) int {
	id := a.Node()
	if id == 0 || int(id) >= len(n.nodes) || !n.nodes[id].isInput() {
		panic("logic: InputOrdinal of non-input literal")
	}
	return n.nodes[id].ordinal()
}

// InputLit returns the positive literal of input ordinal i.
func (n *Net) InputLit(i int) Lit { return Lit(n.inputs[i] << 1) }

// Fanins returns the two fanin literals of an AND node. It panics for
// inputs and the constant node.
func (n *Net) Fanins(id uint32) (Lit, Lit) {
	nd := &n.nodes[id]
	if id == 0 || nd.isInput() {
		panic("logic: Fanins of non-AND node")
	}
	return nd.f0, nd.f1
}

// And returns a literal for a AND b, folding constants, trivial cases and
// structurally identical nodes.
func (n *Net) And(a, b Lit) Lit {
	// Constant and trivial folding.
	if a == False || b == False || a == Not(b) {
		return False
	}
	if a == True {
		return b
	}
	if b == True || a == b {
		return a
	}
	// Canonical order for hashing.
	if a > b {
		a, b = b, a
	}
	if n.strash == nil {
		n.rehash()
	}
	if id, ok := n.strash[[2]Lit{a, b}]; ok {
		return Lit(id << 1)
	}
	id := uint32(len(n.nodes))
	n.nodes = append(n.nodes, node{f0: a, f1: b})
	n.strash[[2]Lit{a, b}] = id
	return Lit(id << 1)
}

// DropHashIndex releases the structural-hash index and trims the node
// slice to its length. A finished design only reads its net, and the index
// is most of the memory the net holds. A later And rebuilds the index from
// the nodes, so node ids and literals stay exactly as if it had never been
// dropped. That And writes the net even for an existing pair, so no And
// may run concurrently with any other use of the net.
func (n *Net) DropHashIndex() {
	n.strash = nil
	n.nodes = append(make([]node, 0, len(n.nodes)), n.nodes...)
}

// rehash rebuilds the structural-hash index from the AND nodes. And never
// creates two nodes with the same fanin pair, so every pair maps to the one
// node And returned for it.
func (n *Net) rehash() {
	n.strash = make(map[[2]Lit]uint32, n.NumAnds())
	for id := 1; id < len(n.nodes); id++ {
		if nd := &n.nodes[id]; !nd.isInput() {
			n.strash[[2]Lit{nd.f0, nd.f1}] = uint32(id)
		}
	}
}

// Or returns a literal for a OR b.
func (n *Net) Or(a, b Lit) Lit { return Not(n.And(Not(a), Not(b))) }

// Nand returns a literal for NOT (a AND b).
func (n *Net) Nand(a, b Lit) Lit { return Not(n.And(a, b)) }

// Nor returns a literal for NOT (a OR b).
func (n *Net) Nor(a, b Lit) Lit { return n.And(Not(a), Not(b)) }

// Xor returns a literal for a XOR b (three AND nodes before hashing):
// a XOR b = !(a AND b) AND (a OR b).
func (n *Net) Xor(a, b Lit) Lit {
	return n.And(n.Nand(a, b), n.Or(a, b))
}

// Xnor returns a literal for NOT (a XOR b).
func (n *Net) Xnor(a, b Lit) Lit { return Not(n.Xor(a, b)) }

// Mux returns a literal for "if sel then t else f".
func (n *Net) Mux(sel, t, f Lit) Lit {
	if t == f {
		return t
	}
	return Not(n.And(n.Nand(sel, t), n.Nand(Not(sel), f)))
}

// AndN reduces a list of literals with AND. An empty list yields True.
func (n *Net) AndN(ls ...Lit) Lit {
	acc := True
	for _, l := range ls {
		acc = n.And(acc, l)
	}
	return acc
}

// OrN reduces a list of literals with OR. An empty list yields False.
func (n *Net) OrN(ls ...Lit) Lit {
	acc := False
	for _, l := range ls {
		acc = n.Or(acc, l)
	}
	return acc
}

// XorN reduces a list of literals with XOR using a balanced tree, which
// minimizes logic depth for wide parity networks such as MixColumn.
func (n *Net) XorN(ls ...Lit) Lit {
	switch len(ls) {
	case 0:
		return False
	case 1:
		return ls[0]
	}
	mid := len(ls) / 2
	return n.Xor(n.XorN(ls[:mid]...), n.XorN(ls[mid:]...))
}

// Equal returns a literal that is true when the two equally wide vectors
// match bit for bit.
func (n *Net) Equal(a, b []Lit) Lit {
	if len(a) != len(b) {
		panic("logic: Equal on different widths")
	}
	acc := True
	for i := range a {
		acc = n.And(acc, n.Xnor(a[i], b[i]))
	}
	return acc
}

// ConstVector returns a literal vector of the given width holding the
// little-endian binary encoding of value.
func ConstVector(width int, value uint64) []Lit {
	v := make([]Lit, width)
	for i := range v {
		if value>>uint(i)&1 != 0 {
			v[i] = True
		} else {
			v[i] = False
		}
	}
	return v
}

// Decode builds a one-hot decoder: out[i] is true when the little-endian
// input vector encodes i. The output has 2^len(sel) entries.
func (n *Net) Decode(sel []Lit) []Lit {
	out := []Lit{True}
	for _, s := range sel {
		next := make([]Lit, 0, len(out)*2)
		for _, o := range out {
			next = append(next, n.And(o, Not(s)))
		}
		for _, o := range out {
			next = append(next, n.And(o, s))
		}
		out = next
	}
	return out
}

// MuxVector selects between two equally wide vectors.
func (n *Net) MuxVector(sel Lit, t, f []Lit) []Lit {
	if len(t) != len(f) {
		panic("logic: MuxVector on different widths")
	}
	out := make([]Lit, len(t))
	for i := range t {
		out[i] = n.Mux(sel, t[i], f[i])
	}
	return out
}

// XorVector XORs two equally wide vectors bitwise.
func (n *Net) XorVector(a, b []Lit) []Lit {
	if len(a) != len(b) {
		panic("logic: XorVector on different widths")
	}
	out := make([]Lit, len(a))
	for i := range a {
		out[i] = n.Xor(a[i], b[i])
	}
	return out
}
