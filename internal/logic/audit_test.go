package logic

import (
	"math/rand"
	"slices"
	"testing"
)

// TestAuditCompiledClean: a fresh Compile of a random net always audits
// clean.
func TestAuditCompiledClean(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		n, _ := randNet(rand.New(rand.NewSource(seed)), 12, 300)
		if msgs := n.AuditCompiled(n.Compile()); len(msgs) != 0 {
			t.Fatalf("seed %d: %v", seed, msgs)
		}
	}
}

// TestAuditCompiledSensitivity corrupts single instructions and requires a
// finding for each corruption class.
func TestAuditCompiledSensitivity(t *testing.T) {
	n, _ := randNet(rand.New(rand.NewSource(1)), 12, 300)
	clean := n.Compile()
	if len(clean.ands) < 2 || len(clean.inID) == 0 {
		t.Fatal("random net lacks AND nodes or primary inputs")
	}
	// An AND instruction whose node directly follows a primary input, for
	// the dst-onto-input case.
	gapAnd, prev := -1, int32(0)
	for k, id := range clean.dst {
		if id-prev > 1 {
			gapAnd = k
			break
		}
		prev = id
	}

	clone := func() *Compiled {
		return &Compiled{
			nodes: clean.nodes,
			ands:  append([]uint64(nil), clean.ands...),
			dst:   append([]int32(nil), clean.dst...),
			inID:  append([]int32(nil), clean.inID...),
			inOrd: append([]int32(nil), clean.inOrd...),
		}
	}
	cases := []struct {
		name    string
		corrupt func(c *Compiled) bool
	}{
		{"truncated-tape", func(c *Compiled) bool {
			c.ands, c.dst = c.ands[:len(c.ands)-1], c.dst[:len(c.dst)-1]
			return true
		}},
		{"rewired-operand", func(c *Compiled) bool { c.ands[0] += 2; return true }},
		{"forward-reference", func(c *Compiled) bool {
			// Operand b reads the last node.
			c.ands[0] = c.ands[0]&0xffffffff | uint64(c.nodes-1)<<33
			return true
		}},
		{"flipped-polarity", func(c *Compiled) bool { c.ands[0] ^= 1; return true }},
		{"input-ordinal", func(c *Compiled) bool { c.inOrd[0]++; return true }},
		{"input-as-and", func(c *Compiled) bool {
			// Compile the first primary input as an AND instruction.
			id := c.inID[0]
			c.inID, c.inOrd = c.inID[1:], c.inOrd[1:]
			k, _ := slices.BinarySearch(c.dst, id)
			c.dst = slices.Insert(c.dst, k, id)
			c.ands = slices.Insert(c.ands, k, 0)
			return true
		}},
		{"and-as-input", func(c *Compiled) bool {
			// Compile the first AND node as a primary-input binding.
			id := c.dst[0]
			c.dst, c.ands = c.dst[1:], c.ands[1:]
			k, _ := slices.BinarySearch(c.inID, id)
			c.inID = slices.Insert(c.inID, k, id)
			c.inOrd = slices.Insert(c.inOrd, k, 0)
			return true
		}},
		{"duplicate-dst", func(c *Compiled) bool { c.dst[1] = c.dst[0]; return true }},
		{"out-of-order-dst", func(c *Compiled) bool {
			c.dst[0], c.dst[1] = c.dst[1], c.dst[0]
			c.ands[0], c.ands[1] = c.ands[1], c.ands[0]
			return true
		}},
		{"dst-onto-input", func(c *Compiled) bool {
			if gapAnd < 0 {
				return false
			}
			// Retarget an AND onto the input just below it: both lists stay
			// sorted, but the input is written twice and the AND never.
			c.dst[gapAnd] = c.dst[gapAnd] - 1
			return true
		}},
		{"mismatched-and-lists", func(c *Compiled) bool { c.dst = c.dst[:len(c.dst)-1]; return true }},
		{"mismatched-input-lists", func(c *Compiled) bool { c.inOrd = c.inOrd[:len(c.inOrd)-1]; return true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := clone()
			if !tc.corrupt(c) {
				t.Skip("tape shape not present")
			}
			msgs := n.AuditCompiled(c)
			if len(msgs) == 0 {
				t.Fatal("audit accepted a corrupted tape")
			}
			t.Logf("detected: %s", msgs[0])
		})
	}
}
