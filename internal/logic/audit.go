package logic

import "fmt"

// AuditCompiled statically verifies that a compiled instruction tape is a
// faithful linearization of this net, without executing it. For every node
// the audit proves:
//
//   - coverage: the tape was compiled for exactly this net's node count,
//     and every node is defined by exactly one instruction — one input
//     binding for a primary input, one AND instruction for an AND node;
//   - destinations: AND destinations are strictly increasing valid node
//     ids and disjoint from the input bindings' ids (which are strictly
//     increasing too), so a node-id range maps to contiguous slices of
//     both lists and no node is written twice;
//   - input binding: a primary input's binding carries the node's input
//     ordinal, resolved once at compile time;
//   - wiring: an AND instruction's packed operand literals reference
//     exactly the node's two fanin nodes;
//   - topological order: both operands of an AND instruction were defined
//     by earlier nodes, so a single linear sweep sees resolved values;
//   - polarity: each packed operand's low bit (the inversion the sweep
//     XORs in) is set exactly when the corresponding fanin edge is
//     complemented.
//
// Together these make the tape's single-sweep evaluation provably
// equivalent to the interpreter's recursive definition, turning the
// fuzz-only equivalence argument into a checked structural obligation.
// Findings are returned as localized messages; an empty slice means the
// tape is faithful.
func (n *Net) AuditCompiled(c *Compiled) []string {
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	if c.nodes != len(n.nodes) {
		fail("tape compiled for %d nodes, net has %d: recompile after the net grew", c.nodes, len(n.nodes))
		return out
	}
	if len(c.ands) != len(c.dst) {
		fail("tape has %d AND operand pairs for %d destinations", len(c.ands), len(c.dst))
		return out
	}
	if len(c.inID) != len(c.inOrd) {
		fail("tape has %d input node ids for %d ordinals", len(c.inID), len(c.inOrd))
		return out
	}
	// def[id] counts the instructions defining node id.
	def := make([]int, len(n.nodes))
	prev := int32(0)
	for k, id := range c.inID {
		if id <= prev || int(id) >= len(n.nodes) {
			fail("input binding %d: node n%d out of order or range (after n%d)", k, id, prev)
			continue
		}
		prev = id
		def[id]++
		ord := c.inOrd[k]
		if !n.nodes[id].isInput() {
			fail("n%d: AND node compiled as input ordinal %d", id, ord)
			continue
		}
		if want := n.inOrd[uint32(id)]; int(ord) != want {
			fail("n%d: input ordinal %d, AIG says %d", id, ord, want)
		}
	}
	prev = 0
	for k, p := range c.ands {
		id := c.dst[k]
		if id <= prev || int(id) >= len(n.nodes) {
			fail("AND instruction %d: destination n%d out of order or range (after n%d)", k, id, prev)
			continue
		}
		prev = id
		def[id]++
		nd := &n.nodes[id]
		if nd.isInput() {
			fail("n%d: primary input compiled as an AND instruction", id)
			continue
		}
		auditEdge := func(slot string, got, want Lit) {
			if got.Node() != want.Node() {
				fail("n%d: operand %s reads n%d, fanin is %v", id, slot, got.Node(), want)
			}
			if got.Node() >= uint32(id) {
				fail("n%d: operand %s reads n%d ahead of the sweep: topological order violated", id, slot, got.Node())
			}
			if got.Inverted() != want.Inverted() {
				fail("n%d: operand %s inversion bit %v, edge polarity implies %v", id, slot, got.Inverted(), want.Inverted())
			}
		}
		auditEdge("a", Lit(uint32(p)), nd.f0)
		auditEdge("b", Lit(uint32(p>>32)), nd.f1)
	}
	for id := 1; id < len(n.nodes); id++ {
		if def[id] != 1 {
			fail("n%d: defined by %d instructions, want exactly 1", id, def[id])
		}
	}
	return out
}
