package logic

import "slices"

// Compiled is a flat, cache-friendly instruction tape translated from a
// Net's node array. The AIG's node ids are already topological (fanins are
// created before the nodes that use them), so evaluation is a single linear
// sweep: no map lookups (the interpreter resolves every input ordinal
// through n.inOrd per pass) and no per-node branching, neither on node kind
// nor on edge polarity.
//
// The tape splits the nodes by kind. Each AND node is one packed
// instruction — its two fanin literals in one uint64, a in the low half and
// b in the high half, each literal's low bit being the edge inversion — and
// one destination node id. Primary inputs are a separate list of (node id,
// input ordinal) bindings, held as two parallel slices. Both lists are in
// increasing node-id order, so a node-id range maps to a contiguous slice
// of each, found by binary search. At 12 bytes per AND the sweep streams
// well under half the memory of a per-node record.
//
// A Compiled tape is immutable after Compile and safe for concurrent use by
// any number of simulators; per-simulator state (values) lives with the
// caller.
type Compiled struct {
	nodes int      // node count the tape was compiled for
	ands  []uint64 // AND operands: fanin literal a | fanin literal b<<32
	dst   []int32  // AND destination node ids, strictly increasing
	inID  []int32  // primary-input node ids, strictly increasing
	inOrd []int32  // inOrd[k] is the input ordinal of node inID[k]
}

// Compile translates the net into an instruction tape. The tape covers the
// nodes present at the time of the call; compile after the net has been
// fully built.
func (n *Net) Compile() *Compiled {
	nAnd := n.NumAnds()
	c := &Compiled{
		nodes: len(n.nodes),
		ands:  make([]uint64, 0, nAnd),
		dst:   make([]int32, 0, nAnd),
		inID:  make([]int32, 0, len(n.inputs)),
		inOrd: make([]int32, 0, len(n.inputs)),
	}
	for id := 1; id < len(n.nodes); id++ {
		nd := &n.nodes[id]
		if nd.isInput() {
			c.inID = append(c.inID, int32(id))
			c.inOrd = append(c.inOrd, int32(n.inOrd[uint32(id)]))
			continue
		}
		c.ands = append(c.ands, uint64(nd.f0)|uint64(nd.f1)<<32)
		c.dst = append(c.dst, int32(id))
	}
	return c
}

// NumNodes returns the node count the tape was compiled for; a mismatch
// against the live net means the net grew after Compile.
func (c *Compiled) NumNodes() int { return c.nodes }

// EvalInto runs one full pass over the tape, the compiled equivalent of
// Net.EvalInto: values is indexed by node id and receives every node's
// positive-output lane word.
func (c *Compiled) EvalInto(inputs, values []uint64) {
	c.EvalRange(0, c.nodes, inputs, values)
}

// EvalRange evaluates the nodes with ids in [from, to): it copies the
// range's primary inputs from inputs, then runs the range's AND
// instructions. Because node ids are topological, a caller can interleave
// range sweeps with external updates to inputs (the RTL simulator resolves
// each asynchronous ROM exactly at its first output node) and still
// evaluate every node exactly once per pass. Values below from must
// already be current: an AND in the range may read any earlier node.
func (c *Compiled) EvalRange(from, to int, inputs, values []uint64) {
	if len(values) != c.nodes {
		panic("logic: Compiled.EvalRange values length mismatch")
	}
	if from < 1 {
		values[0] = 0
		from = 1
	}
	lo, hi := span(c.inID, from, to)
	for k, id := range c.inID[lo:hi] {
		values[id] = inputs[c.inOrd[lo+k]]
	}
	lo, hi = span(c.dst, from, to)
	ands, dst := c.ands[lo:hi], c.dst[lo:hi]
	for k, p := range ands {
		a, b := uint32(p), uint32(p>>32)
		// -(lit&1) is ^0 for a complemented edge and 0 for a plain one.
		va := values[a>>1] ^ -uint64(a&1)
		vb := values[b>>1] ^ -uint64(b&1)
		values[dst[k]] = va & vb
	}
}

// span returns the index range of the node ids in [from, to) within a
// strictly increasing id list.
func span(ids []int32, from, to int) (lo, hi int) {
	lo, _ = slices.BinarySearch(ids, int32(from))
	hi, _ = slices.BinarySearch(ids, int32(to))
	return lo, hi
}
