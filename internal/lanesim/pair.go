package lanesim

// Pair runs a machine and its twin (ShareGathers) as a lockstep pair on
// one goroutine. Only the primary is driven: the twin takes its stimulus
// (TakeStimulus), never its state, a sweep or an Eval. Diverged compares
// the watched output ports in place, and only when either machine moved
// since the last compare: a pair whose values held still cannot newly
// diverge. A strike between calls goes through WriteState or moves a
// store token, so the struck machine's next Eval moves.
type Pair struct {
	prim, twin *Machine
	ins        []int32   // every input port's source words
	watch      []int32   // the value words behind the watched ports, each once
	moves      [2]uint64 // the primary's and the twin's moves at the last compare
	driven     uint64    // the primary's drive count at the last TakeStimulus
	stale      bool      // the next Diverged compares whatever the counts say
}

// NewPair returns twin and its primary as a lockstep pair that watches the
// named output ports, or nil if twin does not share primary's gathers. A
// port the layout lacks is not watched. The twin takes the primary's
// stimulus at once.
func NewPair(primary, twin *Machine, ports ...string) *Pair {
	if twin.primary != primary {
		return nil
	}
	lay := primary.lay
	p := &Pair{prim: primary, twin: twin, stale: true}
	for _, at := range lay.Inputs {
		p.ins = append(p.ins, at...)
	}
	seen := make(map[int32]bool)
	for _, name := range ports {
		for _, l := range lay.Outputs[name] {
			if i := int32(l >> 1); !seen[i] {
				seen[i] = true
				p.watch = append(p.watch, i)
			}
		}
	}
	p.driven = primary.driven - 1 // any other count: take the stimulus now
	p.TakeStimulus()
	return p
}

// TakeStimulus copies the primary's input words to the twin if the primary
// was driven or Reset since the last copy; a word that moves makes the
// twin's next Eval sweep, as its own drive would. Call it before each Eval
// or Step of the twin.
func (p *Pair) TakeStimulus() {
	if p.driven == p.prim.driven {
		return
	}
	p.driven = p.prim.driven
	src, dst := p.prim.w.Src, p.twin.w.Src
	var moved uint64
	for _, i := range p.ins {
		moved |= src[i] ^ dst[i]
		dst[i] = src[i]
	}
	if moved != 0 {
		p.twin.w.Dirty = true
		p.twin.driven++
	}
}

// Diverged returns the lanes on which a watched port differs between the
// two machines, and true; or, when neither machine moved since the last
// compare and Rearm was not called since, 0 and false: the compare is
// skipped, and its lanes would be the last compare's. Both machines share
// one layout, so a literal's inversion cancels and the XOR of the two
// value words behind it is the XOR of the two port bits.
func (p *Pair) Diverged() (lanes uint64, compared bool) {
	moves := [2]uint64{p.prim.moves, p.twin.moves}
	if !p.stale && moves == p.moves {
		return 0, false
	}
	p.stale = false
	p.moves = moves
	a, b := p.prim.w.Vals, p.twin.w.Vals
	for _, i := range p.watch {
		lanes |= a[i] ^ b[i]
	}
	return lanes, true
}

// Rearm makes the next Diverged compare, for a caller that forgot what
// the last one found.
func (p *Pair) Rearm() { p.stale = true }
