package rtl

import (
	"fmt"
	"slices"

	"rijndaelip/internal/lanesim"
	"rijndaelip/internal/logic"
)

// AuditCompiled statically verifies the design's compiled evaluation
// schedule — the AIG instruction tape plus the lane-machine layout that
// drives it — without executing it. On top of the per-node tape
// obligations proved by logic.Net.AuditCompiled and the design-independent
// layout obligations proved by lanesim.Layout.Audit (indices in range,
// latch groups tiling the state, one gather segment per asynchronous ROM,
// positions never running backwards), the design audit checks that
//
//   - stimulus writes and register and ROM state presentation use the
//     exact input ordinals of the corresponding (pseudo-)input literals,
//     and outputs read the ports' literals;
//   - each register is one latch group with its enable, next-state
//     literals and init values, and its name reads its own state words
//     (the first register of a name, as RegValue does);
//   - each ROM carries its address literals and style;
//   - segments follow ROM declaration order, each stopping and resuming
//     at the node id of the ROM's first output pseudo-input;
//   - every node in a ROM's address cone lies strictly below its segment
//     boundary, so the sweep has fully resolved the address before the
//     gather runs, and every output pseudo-input lies at or above it.
//
// The schedule is compiled on first use if needed. Findings are localized
// messages; an empty slice means the schedule is a faithful linearization
// of the level-by-level reference evaluation.
func (d *Design) AuditCompiled() []string {
	sc := d.compiledSched()
	b := d.b
	lay := sc.layout
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	for _, msg := range b.aig.AuditCompiled(sc.tape) {
		out = append(out, "tape: "+msg)
	}
	if msgs := lay.Audit(); len(msgs) != 0 {
		for _, msg := range msgs {
			out = append(out, "layout: "+msg)
		}
		return out // the checks below index through the layout
	}
	ord := func(l logic.Lit) int32 { return int32(b.aig.InputOrdinal(l)) }
	if lay.End != sc.tape.NumNodes() {
		fail("layout ends at %d, the tape has %d nodes", lay.End, sc.tape.NumNodes())
	}

	// Ports.
	for _, p := range b.inputs {
		at := lay.Inputs[p.name]
		if len(at) != len(p.bus) {
			fail("input %s: %d stimulus ordinals for %d bits", p.name, len(at), len(p.bus))
			continue
		}
		for bit, l := range p.bus {
			if want := ord(l); at[bit] != want {
				fail("input %s[%d]: drives input ordinal %d, port bit is ordinal %d", p.name, bit, at[bit], want)
			}
		}
	}
	for _, p := range b.outputs {
		if !slices.Equal(lay.Outputs[p.name], lits(p.bus)) {
			fail("output %s: reads literals %v, port is %v", p.name, lay.Outputs[p.name], p.bus)
		}
	}

	// Registers: one latch group each, in declaration order.
	if len(lay.Groups) != len(b.regs) {
		fail("%d latch groups for %d registers", len(lay.Groups), len(b.regs))
		return out
	}
	named := map[string]bool{} // RegValue reads the first register of a name
	for i := range b.regs {
		r := &b.regs[i]
		g := lay.Groups[i]
		first := !named[r.name]
		named[r.name] = true
		if int(g.Hi-g.Lo) != len(r.q) {
			fail("register %s: latch group of %d words for %d bits", r.name, g.Hi-g.Lo, len(r.q))
			continue
		}
		if g.En != lanesim.Lit(r.en) {
			fail("register %s: latches under literal %d, enable is %v", r.name, g.En, r.en)
		}
		for bit, l := range r.q {
			k := int(g.Lo) + bit
			if want := ord(l); lay.Present[k] != want {
				fail("register %s[%d]: presents input ordinal %d, pseudo-input is ordinal %d", r.name, bit, lay.Present[k], want)
			}
			if lay.Next[k] != lanesim.Lit(r.next[bit]) {
				fail("register %s[%d]: loads literal %d, next is %v", r.name, bit, lay.Next[k], r.next[bit])
			}
			if lay.Init[k] != r.init[bit] {
				fail("register %s[%d]: init %v, register init is %v", r.name, bit, lay.Init[k], r.init[bit])
			}
			if idx := lay.Regs[r.name]; first && (len(idx) != len(r.q) || int(idx[bit]) != k) {
				fail("register %s[%d]: name does not read state word %d", r.name, bit, k)
			}
		}
	}

	// ROMs and the gather plan.
	if len(lay.ROMs) != len(b.roms) {
		fail("%d layout ROMs for %d declared", len(lay.ROMs), len(b.roms))
		return out
	}
	for i := range b.roms {
		r, lr := &b.roms[i], &lay.ROMs[i]
		if lr.Sync != (r.style == ROMSync) {
			fail("ROM %s: layout sync=%v, style is %s", r.name, lr.Sync, r.style)
		}
		for bit := range lr.Addr {
			if lr.Addr[bit] != lanesim.Lit(r.addr[bit]) {
				fail("ROM %s addr[%d]: reads literal %d, address is %v", r.name, bit, lr.Addr[bit], r.addr[bit])
			}
			if want := ord(r.out[bit]); lr.Out[bit] != want {
				fail("ROM %s out[%d]: presents input ordinal %d, pseudo-input is ordinal %d", r.name, bit, lr.Out[bit], want)
			}
		}
	}
	prevROM := -1
	for si, seg := range lay.Segs {
		r := &b.roms[seg.ROM]
		if seg.ROM <= prevROM {
			fail("segment %d: ROM %s out of declaration order (after ROM index %d)", si, r.name, prevROM)
		}
		prevROM = seg.ROM
		if want := int(r.out[0].Node()); seg.Stop != want || seg.Resume != want {
			fail("segment %d: stop %d, resume %d, ROM %s's first output pseudo-input is node %d", si, seg.Stop, seg.Resume, r.name, want)
		}
		// Address resolved before the gather: the whole address cone lies
		// strictly below the boundary.
		for _, id := range b.aig.Cone(r.addr) {
			if int(id) >= seg.Stop {
				fail("segment %d: ROM %s address cone reaches n%d at/after boundary %d: gather would read an unresolved address",
					si, r.name, id, seg.Stop)
			}
		}
		for bit, l := range r.out {
			if int(l.Node()) < seg.Resume {
				fail("segment %d: ROM %s out[%d] is n%d below resume %d: the sweep would overtake the gather",
					si, r.name, bit, l.Node(), seg.Resume)
			}
		}
	}
	return out
}
