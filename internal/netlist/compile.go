package netlist

import "math/bits"

// This file implements the simulator's evaluator: at construction the
// levelized combinational order is translated into a flat instruction tape.
// Each LUT's truth-table mask is first reduced to its true support (constant
// and duplicate inputs folded, don't-care variables dropped) and then
// classified: the overwhelmingly common masks become direct word ops
// (const/BUF/NOT, the eight nondegenerate two-input AND-family functions,
// XOR/XNOR, and 2:1 muxes), while whatever is left runs a generic Shannon
// fold over a truth table pre-expanded into lane words at compile time.
// Evaluation is then one linear sweep over fixed-size instructions — no
// struct pointer chasing through []LUT, no per-cycle mask expansion.
//
// Inversions are folded into XOR masks (^0 = inverted operand, 0 = plain),
// so the hot loop never branches on polarity.

// Tape opcodes.
const (
	opConst uint8 = iota // out = io (constant lane word)
	opBuf                // out = v[a] ^ ia (BUF or NOT)
	opAnd2               // out = ((v[a]^ia) & (v[b]^ib)) ^ io (AND/OR/NAND/NOR/ANDN/...)
	opXor2               // out = v[a] ^ v[b] ^ io (XOR/XNOR)
	opMux                // out = (v[a]^ia)&^sel | (v[b]^ib)&sel, sel = v[c]
	opLUT                // out = Shannon fold of tables[tbl:tbl+2^n] over in[:n]
	opROM                // asynchronous ROM read through the EDAC store (never skipped)
)

// tapeInstr is one fixed-size instruction of the compiled tape.
type tapeInstr struct {
	op  uint8
	n   uint8 // opLUT: reduced variable count (1..4)
	out NetID
	in  [4]NetID // operands; opMux: in[0]=sel-low data, in[1]=sel-high data, in[2]=selector
	ia  uint64   // operand-A inversion mask
	ib  uint64   // operand-B inversion mask
	io  uint64   // output inversion mask; opConst: the output value itself
	tbl int32    // opLUT: offset into tape.tables; opROM: ROM index
}

// tape is the compiled form of a netlist's combinational logic. It is
// immutable after compileTape and holds no simulation state, so simulators
// of the same netlist could share one.
type tape struct {
	instrs  []tapeInstr
	tables  []uint64 // concatenated pre-expanded truth tables (lane words)
	srcNets []NetID  // primary-input nets, watched for edits between Evals
}

// compileTape translates a built netlist's evaluation order into a tape.
func compileTape(nl *Netlist) *tape {
	t := &tape{instrs: make([]tapeInstr, 0, len(nl.order))}
	for _, p := range nl.Inputs {
		t.srcNets = append(t.srcNets, p.Nets...)
	}
	for _, cn := range nl.order {
		if cn.Kind == CombROM {
			t.instrs = append(t.instrs, tapeInstr{op: opROM, tbl: int32(cn.Index)})
			continue
		}
		t.instrs = append(t.instrs, fuseLUT(&nl.LUTs[cn.Index], t))
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

// fuseLUT classifies a LUT's reduced function into the cheapest word op,
// falling back to a generic Shannon fold over a pre-expanded table.
func fuseLUT(l *LUT, t *tape) tapeInstr {
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
		ins.io = 0
	case 3:
		if mux, ok := fuseMux(vars, red); ok {
			mux.out = l.Out
			return mux
		}
	}
	// Generic LUT: pre-expand the reduced mask into lane words once, here.
	ins.op = opLUT
	ins.n = uint8(len(vars))
	copy(ins.in[:], vars)
	ins.tbl = int32(len(t.tables))
	for idx := 0; idx < 1<<uint(len(vars)); idx++ {
		var w uint64
		if red>>uint(idx)&1 != 0 {
			w = ^uint64(0)
		}
		t.tables = append(t.tables, w)
	}
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

// evalCompiled is the compiled counterpart of Eval: present sequential
// state, then run the instruction tape with activity gating. An instruction
// executes only when one of its operand nets changed since the previous
// evaluation (or a full pass was forced); because "changed" is decided by
// comparing actual lane words, skipping is value-exact and fault injections
// need no special handling — a flipped or stuck flip-flop, a re-asserted
// stuck-at, or a damaged ROM word alters a presented lane word, which
// floods the change flags through exactly the affected cone. ROM
// instructions are never skipped: every Eval performs the same EDAC-decoded
// Gather per asynchronous ROM as the interpreter, keeping correction
// counters bit-identical.
func (s *Simulator) evalCompiled() {
	nl := s.nl
	t := s.tape
	ch := s.changed
	full := s.forceFull
	s.forceFull = false
	// Present flip-flop state.
	for i := range nl.FFs {
		q := nl.FFs[i].Q
		if w := s.ffQ[i]; s.values[q] != w || full {
			s.values[q] = w
			ch[q] = true
		} else {
			ch[q] = false
		}
	}
	// Present synchronous ROM output registers.
	for i := range nl.ROMs {
		if !nl.ROMs[i].Sync {
			continue
		}
		for b, o := range nl.ROMs[i].Out {
			if w := s.romQ[i][b]; s.values[o] != w || full {
				s.values[o] = w
				ch[o] = true
			} else {
				ch[o] = false
			}
		}
	}
	// Detect primary-input edits made through SetInput* since the last Eval.
	for i, n := range t.srcNets {
		if v := s.values[n]; v != s.srcPrev[i] || full {
			s.srcPrev[i] = v
			ch[n] = true
		} else {
			ch[n] = false
		}
	}
	values := s.values
	for ii := range t.instrs {
		ins := &t.instrs[ii]
		var v uint64
		switch ins.op {
		case opROM:
			r := &nl.ROMs[ins.tbl]
			var addr [8]uint64
			for b, a := range r.Addr {
				addr[b] = values[a]
			}
			data := s.roms[ins.tbl].Gather(&addr)
			for b, o := range r.Out {
				if values[o] != data[b] || full {
					values[o] = data[b]
					ch[o] = true
				} else {
					ch[o] = false
				}
			}
			continue
		case opConst:
			if !full {
				ch[ins.out] = false
				continue
			}
			v = ins.io
		case opBuf:
			if !full && !ch[ins.in[0]] {
				ch[ins.out] = false
				continue
			}
			v = values[ins.in[0]] ^ ins.ia
		case opAnd2:
			if !full && !ch[ins.in[0]] && !ch[ins.in[1]] {
				ch[ins.out] = false
				continue
			}
			v = (values[ins.in[0]]^ins.ia)&(values[ins.in[1]]^ins.ib) ^ ins.io
		case opXor2:
			if !full && !ch[ins.in[0]] && !ch[ins.in[1]] {
				ch[ins.out] = false
				continue
			}
			v = values[ins.in[0]] ^ values[ins.in[1]] ^ ins.io
		case opMux:
			if !full && !ch[ins.in[0]] && !ch[ins.in[1]] && !ch[ins.in[2]] {
				ch[ins.out] = false
				continue
			}
			sel := values[ins.in[2]]
			v = (values[ins.in[0]]^ins.ia)&^sel | (values[ins.in[1]]^ins.ib)&sel
		case opLUT:
			n := int(ins.n)
			active := full
			for k := 0; k < n && !active; k++ {
				active = ch[ins.in[k]]
			}
			if !active {
				ch[ins.out] = false
				continue
			}
			tbl := t.tables[ins.tbl : int(ins.tbl)+1<<uint(n)]
			var buf [8]uint64
			w := values[ins.in[0]]
			half := 1 << uint(n-1)
			for j := 0; j < half; j++ {
				buf[j] = tbl[2*j]&^w | tbl[2*j+1]&w
			}
			for k := 1; k < n; k++ {
				w = values[ins.in[k]]
				half >>= 1
				for j := 0; j < half; j++ {
					buf[j] = buf[2*j]&^w | buf[2*j+1]&w
				}
			}
			v = buf[0]
		}
		if values[ins.out] != v || full {
			values[ins.out] = v
			ch[ins.out] = true
		} else {
			ch[ins.out] = false
		}
	}
}
