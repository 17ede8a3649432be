package lanesim

import "fmt"

// Audit statically checks the obligations every layout carries, whatever
// tape it schedules:
//
//   - the latch groups tile the state words in order;
//   - the gather plan has exactly one segment per asynchronous ROM and
//     none for a synchronous one. That is the EDAC correction-counter
//     contract: a faulty store is gathered exactly once per Eval, so
//     every counted read runs; a clean store may be skipped on a
//     quiescent pass only because its gather would count nothing and
//     return the data already presented (Machine.Eval);
//   - segment positions never run backwards: each Stop is at or after the
//     previous Resume, each Resume at or after its Stop, all within End,
//     so a pass visits every tape position at most once.
//
// Whether the layout is the right one for its design (ordinals,
// boundaries, address cones) is the owning simulator's audit. An empty
// slice means the layout is consistent.
func (l *Layout) Audit() []string {
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	nQ := len(l.Present)
	if len(l.Next) != nQ || len(l.Init) != nQ {
		fail("%d presented state words, %d next-state literals, %d init values", nQ, len(l.Next), len(l.Init))
	}
	var hi int32
	for gi, g := range l.Groups {
		if g.Lo != hi || g.Hi < g.Lo {
			fail("latch group %d: words [%d,%d) do not continue from word %d", gi, g.Lo, g.Hi, hi)
		}
		hi = g.Hi
	}
	if int(hi) != nQ {
		fail("latch groups cover %d of %d state words", hi, nQ)
	}

	segOf := make([]int, len(l.ROMs))
	for i := range segOf {
		segOf[i] = -1
	}
	pos := 0
	for si, seg := range l.Segs {
		if seg.Stop < pos || seg.Resume < seg.Stop || seg.Resume > l.End {
			fail("segment %d: stop %d, resume %d after position %d (end %d): the sweep would run backwards or past the tape",
				si, seg.Stop, seg.Resume, pos, l.End)
		}
		pos = seg.Resume
		if seg.ROM < 0 || seg.ROM >= len(l.ROMs) {
			fail("segment %d: ROM index %d out of range", si, seg.ROM)
			continue
		}
		r := &l.ROMs[seg.ROM]
		if r.Sync {
			fail("segment %d: ROM %s is synchronous, only asynchronous ROMs are gathered in the sweep", si, r.Name)
		}
		if segOf[seg.ROM] >= 0 {
			fail("segment %d: ROM %s already gathered by segment %d: the EDAC contract is one gather per Eval", si, r.Name, segOf[seg.ROM])
		}
		segOf[seg.ROM] = si
	}
	for i := range l.ROMs {
		if !l.ROMs[i].Sync && segOf[i] < 0 {
			fail("ROM %s: asynchronous but never gathered by any segment", l.ROMs[i].Name)
		}
	}
	return out
}
