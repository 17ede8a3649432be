package netlist

import (
	"fmt"
	"math/rand"
	"testing"

	"rijndaelip/internal/lanesim"
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
	return &tape{
		instrs: append([]tapeInstr(nil), t.instrs...),
		tables: append([]uint64(nil), t.tables...),
	}
}

// TestAuditCorruptionSensitivity proves the audit is not vacuous: each
// class of tape corruption — reordering, wrong output net, flipped
// inversion mask, crossed operand, dropped ROM gather, non-canonical table
// word, wrong-arity LUT opcode, dropped or shifted gather segment — must
// produce at least one finding.
func TestAuditCorruptionSensitivity(t *testing.T) {
	nl := randomNetlist(rand.New(rand.NewSource(3)))
	if err := nl.Build(); err != nil {
		t.Fatal(err)
	}
	clean := compileTape(nl)
	if msgs := auditTape(nl, clean, layout(nl, clean)); len(msgs) != 0 {
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
		corrupt func(tp *tape, lay *lanesim.Layout) bool // false: shape not present
	}{
		{"swap-dependent-instrs", func(tp *tape, _ *lanesim.Layout) bool {
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
		{"wrong-output-net", func(tp *tape, _ *lanesim.Layout) bool {
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
		{"flipped-inversion-mask", func(tp *tape, _ *lanesim.Layout) bool {
			i := firstOp(opAnd2)
			if i < 0 {
				return false
			}
			tp.instrs[i].ia ^= ^uint64(0)
			return true
		}},
		{"flipped-output-polarity", func(tp *tape, _ *lanesim.Layout) bool {
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
		{"crossed-operand", func(tp *tape, _ *lanesim.Layout) bool {
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
		{"dropped-rom-gather", func(tp *tape, _ *lanesim.Layout) bool {
			i := firstOp(opROM)
			if i < 0 {
				return false
			}
			// Replace the gather with a constant write to its first out net.
			r := &nl.ROMs[tp.instrs[i].tbl]
			tp.instrs[i] = tapeInstr{op: opConst, out: r.Out[0]}
			return true
		}},
		{"non-canonical-table-word", func(tp *tape, _ *lanesim.Layout) bool {
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
		{"wrong-arity-opcode", func(tp *tape, _ *lanesim.Layout) bool {
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
		{"dropped-rom-position", func(_ *tape, lay *lanesim.Layout) bool {
			if len(lay.Segs) == 0 {
				return false
			}
			lay.Segs = lay.Segs[:len(lay.Segs)-1]
			return true
		}},
		{"shifted-rom-resume", func(_ *tape, lay *lanesim.Layout) bool {
			if len(lay.Segs) == 0 {
				return false
			}
			lay.Segs[0].Resume++
			return true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := cloneTape(clean)
			lay := layout(nl, tp)
			if !tc.corrupt(tp, lay) {
				t.Skipf("tape has no instruction of the corrupted shape")
			}
			msgs := auditTape(nl, tp, lay)
			if len(msgs) == 0 {
				t.Fatalf("audit accepted a corrupted tape")
			}
			t.Logf("detected: %s", msgs[0])
		})
	}
}

// fakeKernel returns a kernel for a compiled schedule whose functions
// sweep its tape and count their calls: the binding and audit obligations
// of a generated kernel, without generated code.
func fakeKernel(c *compiled, calls *int) *kernel {
	k := &kernel{name: "fake", fingerprint: tapeFingerprint(c.tape, c.lay)}
	for _, r := range sweepRanges(c.lay) {
		from, to := r[0], r[1]
		k.segs = append(k.segs, kernelSeg{from: from, to: to, fn: func(vals []uint64) {
			*calls++
			c.tape.EvalRange(from, to, vals, vals)
		}})
	}
	return k
}

// TestAuditKernelSensitivity: a kernel made from the audited tape audits
// clean; another tape's fingerprint, a missing, shifted or undefined
// function each yields a finding.
func TestAuditKernelSensitivity(t *testing.T) {
	c, err := randomNetlist(rand.New(rand.NewSource(5))).compiledSched()
	if err != nil {
		t.Fatal(err)
	}
	other, err := randomNetlist(rand.New(rand.NewSource(6))).compiledSched()
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	if msgs := auditKernel(fakeKernel(c, &calls), c.tape, c.lay); len(msgs) != 0 {
		t.Fatalf("kernel of the audited tape has findings: %v", msgs)
	}
	cases := map[string]func(k *kernel){
		"foreign-fingerprint": func(k *kernel) { k.fingerprint = tapeFingerprint(other.tape, other.lay) },
		"missing-function":    func(k *kernel) { k.segs = k.segs[:len(k.segs)-1] },
		"shifted-range":       func(k *kernel) { k.segs[0].to-- },
		"undefined-function":  func(k *kernel) { k.segs[0].fn = nil },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			k := fakeKernel(c, &calls)
			corrupt(k)
			msgs := auditKernel(k, c.tape, c.lay)
			if len(msgs) == 0 {
				t.Fatal("audit accepted a kernel that is not bound to the tape")
			}
			t.Logf("detected: %s", msgs[0])
		})
	}
}

// TestKernelBindsOnFingerprint: a kernel registered under a tape's
// fingerprint is bound by the compile of another netlist with the same
// tape, audited with it and swept through, and the simulator still matches
// the reference; a range that is not one of its functions sweeps the
// tape, and a netlist with another tape keeps the tape.
func TestKernelBindsOnFingerprint(t *testing.T) {
	build := func(seed int64) *Netlist { return randomNetlist(rand.New(rand.NewSource(seed))) }
	first, err := build(11).compiledSched()
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	k := fakeKernel(first, &calls)
	kernels[k.fingerprint] = k
	t.Cleanup(func() { delete(kernels, k.fingerprint) })

	nl := build(11)
	sim, err := NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	if sim.kernel == nil || sim.kernel.k != k {
		t.Fatal("identical tape did not bind the registered kernel")
	}
	if msgs, ok := sim.AuditTape(); !ok || len(msgs) != 0 {
		t.Fatalf("AuditTape: ok=%v findings=%v", ok, msgs)
	}
	ref, err := newReferenceSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for cyc := 0; cyc < 20; cyc++ {
		lane, v := r.Intn(64), r.Uint64()
		for _, s := range []*Simulator{sim, ref} {
			if err := s.SetInputLane("din", lane, v); err != nil {
				t.Fatal(err)
			}
			s.Step()
		}
		compareSims(t, ref, sim, fmt.Sprintf("cyc %d", cyc))
	}
	if calls == 0 {
		t.Fatal("no sweep ran through the kernel")
	}
	before := calls
	seg := k.segs[len(k.segs)-1]
	sim.kernel.EvalRange(seg.from, seg.to-1, sim.w.Vals, sim.w.Vals)
	if calls != before {
		t.Fatalf("range [%d,%d) is no kernel function but ran one", seg.from, seg.to-1)
	}

	if s, err := NewSimulator(build(12)); err != nil || s.kernel != nil {
		t.Fatalf("another tape: kernel %v, %v", s.kernel, err)
	}
}
