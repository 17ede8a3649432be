package netlist

import (
	"fmt"
	"math/bits"

	"rijndaelip/internal/lanesim"
)

// This file implements the simulator's evaluator: at construction the
// levelized combinational order is translated into a flat instruction tape.
// Each LUT's truth-table mask is first reduced to its true support (constant
// and duplicate inputs folded, don't-care variables dropped) and then
// classified: the overwhelmingly common masks become direct word ops
// (const/BUF/NOT, the eight nondegenerate two-input AND-family functions,
// XOR/XNOR, and 2:1 muxes), while whatever is left runs a fixed-arity
// Shannon fold (opLUT3: 7 muxes, opLUT4: 15) over a truth table
// pre-expanded into lane words at compile time. The arity lives in the
// opcode, so each kernel is straight-line code over a constant-length
// table window; instructions with the same reduced mask share one table.
//
// Evaluation is ungated: a sweep recomputes and overwrites every
// instruction in its range. What is skipped is whole sweeps — when no
// presented state, stimulus or ROM read data moved since the previous
// Eval, the net values are already the tape's fixed point. The opROM
// instructions are never swept: the lane machine (internal/lanesim) stops
// the sweep at each one, gathers that ROM, and resumes after it, so a
// quiescent Eval still gathers every async ROM (the EDAC counter contract).
//
// Inversions are folded into XOR masks (^0 = inverted operand, 0 = plain),
// so the hot loop never branches on polarity.
//
// The tape of the shipped Encrypt netlist also exists as generated
// straight-line Go (kernel.go); a simulator sweeps through that kernel
// instead when its fingerprint matches the tape.

// Tape opcodes.
const (
	opConst uint8 = iota // out = io (constant lane word)
	opBuf                // out = v[a] ^ ia (BUF or NOT)
	opAnd2               // out = ((v[a]^ia) & (v[b]^ib)) ^ io (AND/OR/NAND/NOR/ANDN/...)
	opXor2               // out = v[a] ^ v[b] ^ io (XOR/XNOR)
	opMux                // out = (v[a]^ia)&^sel | (v[b]^ib)&sel, sel = v[c]
	opLUT3               // out = Shannon fold of tables[tbl:tbl+8] over in[:3]
	opLUT4               // out = Shannon fold of tables[tbl:tbl+16] over in[:4]
	opROM                // asynchronous ROM read through the EDAC store (between sweeps)
)

// tapeInstr is one fixed-size instruction of the compiled tape.
type tapeInstr struct {
	op  uint8
	out NetID
	in  [4]NetID // operands; opMux: in[0]=sel-low data, in[1]=sel-high data, in[2]=selector
	ia  uint64   // operand-A inversion mask
	ib  uint64   // operand-B inversion mask
	io  uint64   // output inversion mask; opConst: the output value itself
	tbl int32    // opLUT3/opLUT4: offset into tape.tables; opROM: ROM index
}

// tape is the compiled form of a netlist's combinational logic. It is
// immutable after compileTape and holds no simulation state, so every
// simulator of a built netlist shares one (see compiled).
type tape struct {
	instrs []tapeInstr
	tables []uint64 // distinct pre-expanded truth tables (lane words)
}

// compiled is a built netlist's evaluation schedule: its tape, the
// lane-machine layout around it, and the generated kernel bound to the
// tape, if one matches (kernel.go). It is immutable and shared by every
// simulator of the build.
type compiled struct {
	tape   *tape
	lay    *lanesim.Layout
	kernel *kernelTape // nil when no generated kernel matches the tape
}

// compiledSched builds the netlist and returns its shared schedule,
// compiling it on first use. Safe for concurrent simulator construction.
func (nl *Netlist) compiledSched() (*compiled, error) {
	if err := nl.Build(); err != nil {
		return nil, err
	}
	nl.compMu.Lock()
	defer nl.compMu.Unlock()
	if nl.comp == nil {
		t := compileTape(nl)
		lay := layout(nl, t)
		c := &compiled{tape: t, lay: lay}
		if k := kernels[tapeFingerprint(t, lay)]; k != nil {
			c.kernel = &kernelTape{k: k, tape: t}
		}
		nl.comp = c
	}
	return nl.comp, nil
}

// compileTape translates a built netlist's evaluation order into a tape.
func compileTape(nl *Netlist) *tape {
	t := &tape{instrs: make([]tapeInstr, 0, len(nl.order))}
	tbls := map[tableKey]int32{}
	for _, cn := range nl.order {
		if cn.Kind == CombROM {
			t.instrs = append(t.instrs, tapeInstr{op: opROM, tbl: int32(cn.Index)})
			continue
		}
		t.instrs = append(t.instrs, fuseLUT(&nl.LUTs[cn.Index], t, tbls))
	}
	return t
}

// reduceLUT folds constant and duplicate inputs and drops variables outside
// the function's true support, returning the remaining input nets (in first-
// appearance order) and the truth-table mask over just those variables.
func reduceLUT(l *LUT) ([]NetID, uint16) {
	// Distinct non-constant inputs with their reduced bit positions.
	var vars []NetID
	pos := make([]int, len(l.Inputs))
	for i, in := range l.Inputs {
		pos[i] = -1
		if in == Const0 || in == Const1 {
			continue
		}
		found := false
		for j, v := range vars {
			if v == in {
				pos[i] = j
				found = true
				break
			}
		}
		if !found {
			pos[i] = len(vars)
			vars = append(vars, in)
		}
	}
	// Re-tabulate over the reduced variables.
	var red uint16
	for a := 0; a < 1<<uint(len(vars)); a++ {
		idx := 0
		for i, in := range l.Inputs {
			bit := 0
			switch {
			case in == Const1:
				bit = 1
			case in == Const0:
			default:
				bit = a >> uint(pos[i]) & 1
			}
			idx |= bit << uint(i)
		}
		if l.Mask>>uint(idx)&1 != 0 {
			red |= 1 << uint(a)
		}
	}
	// Drop don't-care variables (equal cofactors).
	for i := len(vars) - 1; i >= 0; i-- {
		c0 := cofactor(red, len(vars), i, 0)
		c1 := cofactor(red, len(vars), i, 1)
		if c0 != c1 {
			continue
		}
		red = c0
		vars = append(vars[:i], vars[i+1:]...)
	}
	return vars, red
}

// cofactor restricts an n-variable truth table to variable i = b, returning
// a table over the remaining n-1 variables (original order preserved).
func cofactor(mask uint16, n, i, b int) uint16 {
	var out uint16
	for a := 0; a < 1<<uint(n-1); a++ {
		low := a & (1<<uint(i) - 1)
		high := a >> uint(i) << uint(i+1)
		idx := high | b<<uint(i) | low
		if mask>>uint(idx)&1 != 0 {
			out |= 1 << uint(a)
		}
	}
	return out
}

// tableKey identifies a generic LUT's pre-expanded truth table.
type tableKey struct {
	n    int
	mask uint16
}

// fuseLUT classifies a LUT's reduced function into the cheapest word op,
// falling back to a fixed-arity Shannon fold over a pre-expanded table
// (found in, or added to, tbls and the tape's pool).
func fuseLUT(l *LUT, t *tape, tbls map[tableKey]int32) tapeInstr {
	vars, red := reduceLUT(l)
	ins := tapeInstr{out: l.Out}
	switch len(vars) {
	case 0:
		ins.op = opConst
		if red&1 != 0 {
			ins.io = ^uint64(0)
		}
		return ins
	case 1:
		ins.op = opBuf
		ins.in[0] = vars[0]
		if red&0b11 == 0b01 { // out = !a
			ins.ia = ^uint64(0)
		}
		return ins
	case 2:
		ins.in[0], ins.in[1] = vars[0], vars[1]
		m := red & 0xF
		switch m {
		case 0b0110:
			ins.op = opXor2
			return ins
		case 0b1001:
			ins.op = opXor2
			ins.io = ^uint64(0)
			return ins
		}
		// One minterm set: a literal AND. One minterm clear: its complement
		// (OR/NAND family). All other 2-var masks are degenerate and were
		// removed by support reduction.
		if bits.OnesCount16(m) == 3 {
			m = ^m & 0xF
			ins.io = ^uint64(0)
		}
		if bits.OnesCount16(m) == 1 {
			idx := bits.TrailingZeros16(m)
			ins.op = opAnd2
			if idx&1 == 0 {
				ins.ia = ^uint64(0)
			}
			if idx&2 == 0 {
				ins.ib = ^uint64(0)
			}
			return ins
		}
		// Support reduction leaves no other 2-variable mask: with both
		// variables relevant, a mask is XOR/XNOR or has one minterm set or
		// one clear. Generic kernels always take full-arity operands.
		panic(fmt.Sprintf("netlist: LUT mask %#x kept a degenerate 2-variable support", m))
	case 3:
		if mux, ok := fuseMux(vars, red); ok {
			mux.out = l.Out
			return mux
		}
	}
	// Generic LUT: the reduced mask pre-expanded into lane words, shared by
	// every instruction with the same arity and mask.
	ins.op = opLUT3
	if len(vars) == 4 {
		ins.op = opLUT4
	}
	copy(ins.in[:], vars)
	key := tableKey{len(vars), red}
	off, ok := tbls[key]
	if !ok {
		off = int32(len(t.tables))
		for idx := 0; idx < 1<<uint(len(vars)); idx++ {
			var w uint64
			if red>>uint(idx)&1 != 0 {
				w = ^uint64(0)
			}
			t.tables = append(t.tables, w)
		}
		tbls[key] = off
	}
	ins.tbl = off
	return ins
}

// fuseMux recognizes 3-variable functions that are a 2:1 mux of literals or
// constants: trying each variable as the selector, both cofactors must
// collapse to a single (possibly inverted) literal or a constant.
func fuseMux(vars []NetID, red uint16) (tapeInstr, bool) {
	for p := 0; p < 3; p++ {
		rest := [2]NetID{}
		ri := 0
		for i, v := range vars {
			if i != p {
				rest[ri] = v
				ri++
			}
		}
		a, ia, ok0 := literal2(cofactor(red, 3, p, 0), rest)
		b, ib, ok1 := literal2(cofactor(red, 3, p, 1), rest)
		if ok0 && ok1 {
			return tapeInstr{
				op: opMux,
				in: [4]NetID{a, b, vars[p]},
				ia: ia, ib: ib,
			}, true
		}
	}
	return tapeInstr{}, false
}

// literal2 matches a 2-variable truth table that is a constant or a single
// (possibly inverted) literal, returning the net and its inversion mask.
func literal2(mask uint16, vars [2]NetID) (NetID, uint64, bool) {
	switch mask & 0xF {
	case 0b0000:
		return Const0, 0, true
	case 0b1111:
		return Const1, 0, true
	case 0b1010:
		return vars[0], 0, true
	case 0b0101:
		return vars[0], ^uint64(0), true
	case 0b1100:
		return vars[1], 0, true
	case 0b0011:
		return vars[1], ^uint64(0), true
	}
	return Invalid, 0, false
}

// EvalRange evaluates instructions [from, to), none of them an opROM,
// writing every output net. Stimulus and state live in values itself, so
// the separate presentation array is unused.
func (t *tape) EvalRange(from, to int, _, values []uint64) {
	tables := t.tables
	for ii := from; ii < to; ii++ {
		ins := &t.instrs[ii]
		var v uint64
		switch ins.op {
		case opConst:
			v = ins.io
		case opBuf:
			v = values[ins.in[0]] ^ ins.ia
		case opAnd2:
			v = (values[ins.in[0]]^ins.ia)&(values[ins.in[1]]^ins.ib) ^ ins.io
		case opXor2:
			v = values[ins.in[0]] ^ values[ins.in[1]] ^ ins.io
		case opMux:
			v = mux(values[ins.in[0]]^ins.ia, values[ins.in[1]]^ins.ib, values[ins.in[2]])
		case opLUT3:
			o := int(ins.tbl)
			tb := tables[o : o+8 : o+8]
			a, b, c := values[ins.in[0]], values[ins.in[1]], values[ins.in[2]]
			v = mux(
				mux(mux(tb[0], tb[1], a), mux(tb[2], tb[3], a), b),
				mux(mux(tb[4], tb[5], a), mux(tb[6], tb[7], a), b),
				c)
		case opLUT4:
			o := int(ins.tbl)
			tb := tables[o : o+16 : o+16]
			a, b, c, d := values[ins.in[0]], values[ins.in[1]], values[ins.in[2]], values[ins.in[3]]
			v = mux(
				mux(
					mux(mux(tb[0], tb[1], a), mux(tb[2], tb[3], a), b),
					mux(mux(tb[4], tb[5], a), mux(tb[6], tb[7], a), b),
					c),
				mux(
					mux(mux(tb[8], tb[9], a), mux(tb[10], tb[11], a), b),
					mux(mux(tb[12], tb[13], a), mux(tb[14], tb[15], a), b),
					c),
				d)
		}
		values[ins.out] = v
	}
}

// mux selects hi on the lanes where sel is set and lo elsewhere.
func mux(lo, hi, sel uint64) uint64 { return lo ^ (lo^hi)&sel }
