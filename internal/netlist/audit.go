package netlist

import (
	"fmt"
	"slices"

	"rijndaelip/internal/lanesim"
)

// This file implements the static compiled-tape audit: a structural proof,
// performed without executing a single Eval, that the fused instruction
// tape (compile.go) is a faithful linearization of the levelized
// evaluation order. The differential fuzz suite shows the tape agrees with
// the test-only reference simulator on sampled stimulus; the audit shows
// the tape *cannot* disagree, by checking per instruction that
//
//   - the tape aligns one-to-one with the levelized combinational order
//     (every LUT and asynchronous ROM exactly once, in the same order);
//   - operands are defined before use: each instruction reads only
//     constants, primary inputs, sequential state (FF Q, synchronous ROM
//     outputs) or the outputs of earlier instructions;
//   - each instruction's support is the duplicate-collapsed subset of its
//     source LUT's input nets; a generic opLUT3/opLUT4 reads as many
//     operands as its opcode's arity, distinct and non-constant, and its
//     table window holds 2^arity canonical lane masks;
//   - the fused word op computes the source LUT's truth table exactly,
//     for every consistent input assignment — which proves the XOR
//     inversion masks agree with the reduced function's polarity;
//   - every asynchronous ROM is gathered exactly once per sweep (the
//     EDAC correction-counter contract), never a synchronous one;
//   - the lane-machine layout passes lanesim.Layout.Audit, and its gather
//     plan stops at exactly the opROM instructions, in order, and resumes
//     right after each, so neither a dirty nor a quiescent Eval sweeps
//     over or misses a gather.

// AuditCompiled builds the netlist, compiles its instruction tape and runs
// the static tape audit. The returned findings are empty when the tape is
// a faithful linearization; the error reports a netlist too broken to
// build (which the design-rule lint diagnoses in full).
func AuditCompiled(nl *Netlist) ([]string, error) {
	if err := nl.Build(); err != nil {
		return nil, err
	}
	t := compileTape(nl)
	return auditTape(nl, t, layout(nl, t)), nil
}

// AuditTape audits the instruction tape this simulator actually executes.
// The second result reports whether there was a tape to audit: the
// test-only reference simulator returns (nil, false).
func (s *Simulator) AuditTape() ([]string, bool) {
	if s.tape == nil {
		return nil, false
	}
	return auditTape(s.nl, s.tape, s.lay), true
}

// operandNets returns the nets an instruction reads, excluding ROM
// addresses (handled by the caller, which has the ROM index).
func operandNets(ins *tapeInstr) []NetID {
	switch ins.op {
	case opConst, opROM:
		return nil
	case opBuf:
		return ins.in[:1]
	case opAnd2, opXor2:
		return ins.in[:2]
	case opMux:
		return ins.in[:3]
	case opLUT3, opLUT4:
		return ins.in[:lutArity(ins.op)]
	}
	return nil
}

// lutArity returns the variable count of a generic LUT opcode, 0 for any
// other opcode.
func lutArity(op uint8) int {
	switch op {
	case opLUT3:
		return 3
	case opLUT4:
		return 4
	}
	return 0
}

func auditTape(nl *Netlist, t *tape, lay *lanesim.Layout) []string {
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}

	// Nets defined before the sweep starts: constants, primary inputs and
	// presented sequential state.
	defined := map[NetID]string{Const0: "constant 0", Const1: "constant 1"}
	for _, p := range nl.Inputs {
		for bit, n := range p.Nets {
			defined[n] = fmt.Sprintf("input %s[%d]", p.Name, bit)
		}
	}
	for i := range nl.FFs {
		defined[nl.FFs[i].Q] = fmt.Sprintf("FF %s", nl.FFs[i].Name)
	}
	for i := range nl.ROMs {
		if nl.ROMs[i].Sync {
			for bit, o := range nl.ROMs[i].Out {
				defined[o] = fmt.Sprintf("sync ROM %s out[%d]", nl.ROMs[i].Name, bit)
			}
		}
	}
	define := func(n NetID, what string) {
		if prev, ok := defined[n]; ok {
			fail("%s: output net %d already driven by %s", what, n, prev)
			return
		}
		defined[n] = what
	}

	if len(t.instrs) != len(nl.order) {
		fail("tape has %d instructions for %d combinational elements", len(t.instrs), len(nl.order))
		return out
	}
	romGathers := make([]int, len(nl.ROMs))
	var segs []lanesim.Seg
	for i := range t.instrs {
		ins := &t.instrs[i]
		cn := nl.order[i]
		if cn.Kind == CombROM {
			r := &nl.ROMs[cn.Index]
			what := fmt.Sprintf("instr %d (ROM %s)", i, r.Name)
			if ins.op != opROM {
				fail("%s: order slot is an async ROM read but the tape compiled op %d", what, ins.op)
				continue
			}
			if int(ins.tbl) != cn.Index {
				fail("%s: gathers ROM %d, order slot is ROM %d", what, ins.tbl, cn.Index)
				continue
			}
			if r.Sync {
				fail("%s: synchronous ROM scheduled as a combinational gather", what)
			}
			romGathers[cn.Index]++
			segs = append(segs, lanesim.Seg{ROM: cn.Index, Stop: i, Resume: i + 1})
			for bit, a := range r.Addr {
				if _, ok := defined[a]; !ok {
					fail("%s: addr[%d] reads net %d before any instruction defines it", what, bit, a)
				}
			}
			for bit, o := range r.Out {
				define(o, fmt.Sprintf("%s out[%d]", what, bit))
			}
			continue
		}
		l := &nl.LUTs[cn.Index]
		what := fmt.Sprintf("instr %d (LUT %d", i, cn.Index)
		if l.Name != "" {
			what += " " + l.Name
		}
		what += ")"
		if ins.op == opROM {
			fail("%s: order slot is a LUT but the tape compiled a ROM gather", what)
			continue
		}
		if ins.out != l.Out {
			fail("%s: writes net %d, LUT output is net %d", what, ins.out, l.Out)
			continue
		}
		// Support: defined before use, duplicate-collapsed subset of the
		// source LUT's inputs.
		lutIns := map[NetID]bool{Const0: true, Const1: true}
		for _, in := range l.Inputs {
			lutIns[in] = true
		}
		ops := operandNets(ins)
		for slot, n := range ops {
			if _, ok := defined[n]; !ok {
				fail("%s: operand %d reads net %d before any instruction defines it: topological order violated", what, slot, n)
			}
			if !lutIns[n] {
				fail("%s: operand %d reads net %d outside the LUT's support", what, slot, n)
			}
		}
		if n := lutArity(ins.op); n > 0 {
			seen := map[NetID]bool{}
			for slot, net := range ops {
				if net == Const0 || net == Const1 {
					fail("%s: operand %d is a constant: support not reduced", what, slot)
				}
				if seen[net] {
					fail("%s: operand %d duplicates net %d: support not duplicate-collapsed", what, slot, net)
				}
				seen[net] = true
			}
			lo, hi := int(ins.tbl), int(ins.tbl)+1<<uint(n)
			if lo < 0 || hi > len(t.tables) {
				fail("%s: table window [%d,%d) outside the %d-word pool", what, lo, hi, len(t.tables))
				define(l.Out, what)
				continue
			}
			for j, w := range t.tables[lo:hi] {
				if w != 0 && w != ^uint64(0) {
					fail("%s: table word %d is %#x, not a canonical lane mask", what, j, w)
				}
			}
		}
		// Semantics: the fused op must reproduce the LUT's truth table on
		// every consistent assignment of its distinct input nets. This is
		// what proves inversion masks match the reduced function.
		if msg := checkInstrSemantics(t, ins, l); msg != "" {
			fail("%s: %s", what, msg)
		}
		define(l.Out, what)
	}
	for i := range nl.ROMs {
		if nl.ROMs[i].Sync {
			continue
		}
		if romGathers[i] != 1 {
			fail("ROM %s: %d EDAC gathers per sweep, the correction-counter contract requires exactly 1",
				nl.ROMs[i].Name, romGathers[i])
		}
	}
	if !slices.Equal(lay.Segs, segs) || lay.End != len(t.instrs) {
		fail("layout gathers at %v ending at %d, the tape's gathers are %v ending at %d: an Eval would sweep over or miss a gather",
			lay.Segs, lay.End, segs, len(t.instrs))
	}
	for _, msg := range lay.Audit() {
		out = append(out, "layout: "+msg)
	}
	return out
}

// checkInstrSemantics exhaustively compares a fused instruction against its
// source LUT's mask over all assignments of the LUT's distinct input nets
// (at most 2^4). Duplicate input pins receive the same value — the only
// physically realizable assignments — so a tape that collapsed duplicates
// correctly agrees and one that crossed wires cannot.
func checkInstrSemantics(t *tape, ins *tapeInstr, l *LUT) string {
	var vars []NetID
	for _, in := range l.Inputs {
		if in == Const0 || in == Const1 {
			continue
		}
		dup := false
		for _, v := range vars {
			if v == in {
				dup = true
				break
			}
		}
		if !dup {
			vars = append(vars, in)
		}
	}
	env := map[NetID]uint64{Const0: 0, Const1: ^uint64(0)}
	for a := 0; a < 1<<uint(len(vars)); a++ {
		for i, v := range vars {
			if a>>uint(i)&1 != 0 {
				env[v] = ^uint64(0)
			} else {
				env[v] = 0
			}
		}
		idx := 0
		for pin, in := range l.Inputs {
			if env[in] != 0 {
				idx |= 1 << uint(pin)
			}
		}
		want := l.Mask>>uint(idx)&1 != 0
		got, err := evalInstrUniform(t, ins, env)
		if err != "" {
			return err
		}
		if got != want {
			return fmt.Sprintf("fused op disagrees with the LUT mask under assignment %#x: got %v, want %v",
				a, got, want)
		}
	}
	return ""
}

// evalInstrUniform evaluates one instruction under lane-uniform operand
// values (each env word all-zeros or all-ones): the word ops as the sweep
// computes them, the generic LUT kernels as the table entry their operands
// index.
func evalInstrUniform(t *tape, ins *tapeInstr, env map[NetID]uint64) (bool, string) {
	var v uint64
	switch ins.op {
	case opConst:
		v = ins.io
	case opBuf:
		v = env[ins.in[0]] ^ ins.ia
	case opAnd2:
		v = (env[ins.in[0]]^ins.ia)&(env[ins.in[1]]^ins.ib) ^ ins.io
	case opXor2:
		v = env[ins.in[0]] ^ env[ins.in[1]] ^ ins.io
	case opMux:
		sel := env[ins.in[2]]
		v = (env[ins.in[0]]^ins.ia)&^sel | (env[ins.in[1]]^ins.ib)&sel
	case opLUT3, opLUT4:
		idx := 0
		for k := 0; k < lutArity(ins.op); k++ {
			if env[ins.in[k]] != 0 {
				idx |= 1 << uint(k)
			}
		}
		at := int(ins.tbl) + idx
		if at < 0 || at >= len(t.tables) {
			return false, fmt.Sprintf("table index %d outside the %d-word pool", at, len(t.tables))
		}
		v = t.tables[at]
	default:
		return false, fmt.Sprintf("unknown opcode %d", ins.op)
	}
	if v != 0 && v != ^uint64(0) {
		return false, fmt.Sprintf("lane-uniform inputs produced non-uniform word %#x", v)
	}
	return v != 0, ""
}
