package netlist

import (
	"math/rand"
	"testing"
)

// TestAuditCleanRandomNetlists: the static tape audit passes on a spread of
// random netlists — the same generator the differential fuzz suite uses.
func TestAuditCleanRandomNetlists(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		nl := randomNetlist(rand.New(rand.NewSource(seed)))
		msgs, err := AuditCompiled(nl)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(msgs) != 0 {
			t.Fatalf("seed %d: audit findings on a fresh tape: %v", seed, msgs)
		}
	}
}

// TestAuditTapeBackends: the exported constructor builds an auditable,
// clean tape; the test-only reference simulator has none.
func TestAuditTapeBackends(t *testing.T) {
	nl := randomNetlist(rand.New(rand.NewSource(7)))
	cs, err := NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	if msgs, ok := cs.AuditTape(); !ok || len(msgs) != 0 {
		t.Fatalf("NewSimulator: ok=%v findings=%v", ok, msgs)
	}
	rs, err := newReferenceSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	if msgs, ok := rs.AuditTape(); ok || msgs != nil {
		t.Fatalf("reference simulator reported a tape: ok=%v findings=%v", ok, msgs)
	}
}

// cloneTape deep-copies a tape so corruptions stay local to one subtest.
func cloneTape(t *tape) *tape {
	c := &tape{
		instrs:  append([]tapeInstr(nil), t.instrs...),
		tables:  append([]uint64(nil), t.tables...),
		srcNets: append([]NetID(nil), t.srcNets...),
		romAt:   append([]int(nil), t.romAt...),
	}
	return c
}

// TestAuditCorruptionSensitivity proves the audit is not vacuous: each
// class of tape corruption — reordering, wrong output net, flipped
// inversion mask, crossed operand, dropped ROM gather, non-canonical table
// word, wrong-arity LUT opcode, dropped ROM position, missing stimulus
// watch — must produce at least one finding.
func TestAuditCorruptionSensitivity(t *testing.T) {
	nl := randomNetlist(rand.New(rand.NewSource(3)))
	if err := nl.Build(); err != nil {
		t.Fatal(err)
	}
	clean := compileTape(nl)
	if msgs := auditTape(nl, clean); len(msgs) != 0 {
		t.Fatalf("baseline tape not clean: %v", msgs)
	}

	// Helper lookups into the clean tape.
	firstOp := func(op uint8) int {
		for i := range clean.instrs {
			if clean.instrs[i].op == op {
				return i
			}
		}
		return -1
	}

	cases := []struct {
		name    string
		corrupt func(tp *tape) bool // false: shape not present in this tape
	}{
		{"swap-dependent-instrs", func(tp *tape) bool {
			// Find a producer/consumer LUT pair and swap them: the consumer
			// now runs first, reading a net no earlier instruction defines.
			for i := 0; i < len(tp.instrs); i++ {
				if tp.instrs[i].op == opROM {
					continue
				}
				for j := i + 1; j < len(tp.instrs); j++ {
					if tp.instrs[j].op == opROM {
						continue
					}
					for _, in := range tp.instrs[j].in {
						if in == tp.instrs[i].out {
							tp.instrs[i], tp.instrs[j] = tp.instrs[j], tp.instrs[i]
							return true
						}
					}
				}
			}
			return false
		}},
		{"wrong-output-net", func(tp *tape) bool {
			i := firstOp(opAnd2)
			if i < 0 {
				i = firstOp(opXor2)
			}
			if i < 0 {
				return false
			}
			tp.instrs[i].out++
			return true
		}},
		{"flipped-inversion-mask", func(tp *tape) bool {
			i := firstOp(opAnd2)
			if i < 0 {
				return false
			}
			tp.instrs[i].ia ^= ^uint64(0)
			return true
		}},
		{"flipped-output-polarity", func(tp *tape) bool {
			i := firstOp(opXor2)
			if i < 0 {
				i = firstOp(opBuf)
			}
			if i < 0 {
				return false
			}
			tp.instrs[i].io ^= ^uint64(0)
			return true
		}},
		{"crossed-operand", func(tp *tape) bool {
			// Point an operand at a net outside the source LUT's support.
			for i := range tp.instrs {
				ins := &tp.instrs[i]
				if ins.op != opAnd2 && ins.op != opXor2 {
					continue
				}
				ins.in[0] = ins.out // reads its own output: not in support
				return true
			}
			return false
		}},
		{"dropped-rom-gather", func(tp *tape) bool {
			i := firstOp(opROM)
			if i < 0 {
				return false
			}
			// Replace the gather with a constant write to its first out net.
			r := &nl.ROMs[tp.instrs[i].tbl]
			tp.instrs[i] = tapeInstr{op: opConst, out: r.Out[0]}
			return true
		}},
		{"non-canonical-table-word", func(tp *tape) bool {
			i := firstOp(opLUT4)
			if i < 0 {
				i = firstOp(opLUT3)
			}
			if i < 0 {
				return false
			}
			tp.tables[tp.instrs[i].tbl] = 0xdeadbeef
			return true
		}},
		{"wrong-arity-opcode", func(tp *tape) bool {
			// A 3-variable kernel relabelled as 4-variable reads its zero
			// fourth operand slot, the constant-0 net, so the exhaustive
			// truth-table check alone would still pass it.
			i := firstOp(opLUT3)
			if i < 0 {
				return false
			}
			tp.instrs[i].op = opLUT4
			return true
		}},
		{"dropped-rom-position", func(tp *tape) bool {
			if len(tp.romAt) == 0 {
				return false
			}
			tp.romAt = tp.romAt[:len(tp.romAt)-1]
			return true
		}},
		{"missing-stimulus-watch", func(tp *tape) bool {
			tp.srcNets = tp.srcNets[:len(tp.srcNets)-1]
			return true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := cloneTape(clean)
			if !tc.corrupt(tp) {
				t.Skipf("tape has no instruction of the corrupted shape")
			}
			msgs := auditTape(nl, tp)
			if len(msgs) == 0 {
				t.Fatalf("audit accepted a corrupted tape")
			}
			t.Logf("detected: %s", msgs[0])
		})
	}
}
