package rtl

import "fmt"

// AuditCompiled statically verifies the design's compiled evaluation
// schedule — the AIG instruction tape plus the segmented ROM-gather plan —
// without executing it. On top of the per-node tape obligations proved by
// logic.Net.AuditCompiled, the schedule-level audit checks that
//
//   - stimulus writes and register and ROM state presentation use the
//     exact input ordinals of the corresponding (pseudo-)input literals;
//   - there is exactly one gather segment per asynchronous ROM (the EDAC
//     correction-counter contract) and none for synchronous ROMs;
//   - segments follow ROM declaration order with strictly increasing
//     boundaries, each boundary being the node id of the ROM's first
//     output pseudo-input;
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
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	for _, msg := range b.aig.AuditCompiled(sc.tape) {
		out = append(out, "tape: "+msg)
	}

	// Stimulus and state-presentation ordinals.
	for i := range b.inputs {
		if len(sc.portOrd[i]) != len(b.inputs[i].bus) {
			fail("input %s: %d stimulus ordinals for %d bits", b.inputs[i].name, len(sc.portOrd[i]), len(b.inputs[i].bus))
			continue
		}
		for bit, l := range b.inputs[i].bus {
			if want := int32(b.aig.InputOrdinal(l)); sc.portOrd[i][bit] != want {
				fail("input %s[%d]: drives input ordinal %d, port bit is ordinal %d",
					b.inputs[i].name, bit, sc.portOrd[i][bit], want)
			}
		}
	}
	for i := range b.regs {
		if len(sc.regOrd[i]) != len(b.regs[i].q) {
			fail("register %s: %d presentation ordinals for %d bits", b.regs[i].name, len(sc.regOrd[i]), len(b.regs[i].q))
			continue
		}
		for bit, l := range b.regs[i].q {
			if want := int32(b.aig.InputOrdinal(l)); sc.regOrd[i][bit] != want {
				fail("register %s[%d]: presents input ordinal %d, pseudo-input is ordinal %d",
					b.regs[i].name, bit, sc.regOrd[i][bit], want)
			}
		}
	}
	for i := range b.roms {
		for bit, l := range b.roms[i].out {
			if want := int32(b.aig.InputOrdinal(l)); sc.romOrd[i][bit] != want {
				fail("ROM %s out[%d]: presents input ordinal %d, pseudo-input is ordinal %d",
					b.roms[i].name, bit, sc.romOrd[i][bit], want)
			}
		}
	}

	// Gather plan: declaration order, one segment per async ROM, boundaries
	// at the first output pseudo-input and strictly increasing.
	segOf := make([]int, len(b.roms))
	for i := range segOf {
		segOf[i] = -1
	}
	prevROM, prevBoundary := -1, 0
	for si, seg := range sc.segs {
		if seg.rom < 0 || seg.rom >= len(b.roms) {
			fail("segment %d: ROM index %d out of range", si, seg.rom)
			continue
		}
		r := &b.roms[seg.rom]
		if r.style != ROMAsync {
			fail("segment %d: ROM %s is %s, only asynchronous ROMs are gathered in the sweep", si, r.name, r.style)
		}
		if segOf[seg.rom] >= 0 {
			fail("segment %d: ROM %s already gathered by segment %d: the EDAC contract is one gather per Eval", si, r.name, segOf[seg.rom])
		}
		segOf[seg.rom] = si
		if seg.rom <= prevROM {
			fail("segment %d: ROM %s out of declaration order (after ROM index %d)", si, r.name, prevROM)
		}
		prevROM = seg.rom
		if want := int(r.out[0].Node()); seg.boundary != want {
			fail("segment %d: boundary %d, ROM %s's first output pseudo-input is node %d", si, seg.boundary, r.name, want)
		}
		if si > 0 && seg.boundary <= prevBoundary {
			fail("segment %d: boundary %d does not increase past %d", si, seg.boundary, prevBoundary)
		}
		prevBoundary = seg.boundary
		// Address resolved before the gather: the whole address cone lies
		// strictly below the boundary.
		for _, id := range b.aig.Cone(r.addr) {
			if int(id) >= seg.boundary {
				fail("segment %d: ROM %s address cone reaches n%d at/after boundary %d: gather would read an unresolved address",
					si, r.name, id, seg.boundary)
			}
		}
		for bit, l := range r.out {
			if int(l.Node()) < seg.boundary {
				fail("segment %d: ROM %s out[%d] is n%d below boundary %d: the sweep would overtake the gather",
					si, r.name, bit, l.Node(), seg.boundary)
			}
		}
	}
	for i := range b.roms {
		if b.roms[i].style == ROMAsync && segOf[i] < 0 {
			fail("ROM %s: asynchronous but never gathered by any segment", b.roms[i].name)
		}
	}
	return out
}
