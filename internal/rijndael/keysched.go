package rijndael

import (
	"rijndaelip/internal/logic"
	"rijndaelip/internal/rtl"
)

// Hardware on-the-fly key schedule (Fig. 3 of the paper). The KStran S-box
// bank substitutes the rotated last word; the round constant arrives from
// the rcon register; the w0..w3 XOR chain completes the next (or previous)
// round key combinationally within the 128-bit cycle.

// kstranEncAddr returns the address word for the encryption-direction
// KStran bank: RotWord(w3) of the current round key.
func kstranEncAddr(rk rtl.Bus) rtl.Bus {
	return rtl.RotateByteLeft(wordOf(rk, 3))
}

// kstranDecAddr returns the address word for the decryption-direction
// KStran bank: RotWord(w3 ^ w2), because walking the schedule backwards
// recovers the previous w3 as w3' XOR w2' before it enters KStran.
func kstranDecAddr(g *logic.Net, rk rtl.Bus) rtl.Bus {
	return rtl.RotateByteLeft(g.XorVector(wordOf(rk, 3), wordOf(rk, 2)))
}

// applyRcon XORs the 8-bit round constant into byte 0 of a substituted
// KStran word.
func applyRcon(g *logic.Net, kstranOut, rcon rtl.Bus) rtl.Bus {
	out := append(rtl.Bus(nil), kstranOut...)
	copy(out[0:8], g.XorVector(kstranOut[0:8], rcon))
	return out
}

// nextRoundKeyBus computes round key i from round key i-1:
// w0' = w0 ^ KStran(w3), then the ripple chain w_k' = w_k ^ w_{k-1}'.
// kstranOut must be SubWord(RotWord(w3)) (from the encryption KStran bank).
func nextRoundKeyBus(g *logic.Net, rk, kstranOut, rcon rtl.Bus) rtl.Bus {
	t := applyRcon(g, kstranOut, rcon)
	w0 := g.XorVector(wordOf(rk, 0), t)
	w1 := g.XorVector(wordOf(rk, 1), w0)
	w2 := g.XorVector(wordOf(rk, 2), w1)
	w3 := g.XorVector(wordOf(rk, 3), w2)
	return rtl.Cat(w0, w1, w2, w3)
}

// prevRoundKeyBus computes round key i-1 from round key i: the upper words
// are recovered by local XORs and w0 by undoing the KStran term.
// kstranOut must be SubWord(RotWord(w3 ^ w2)) (from the decryption KStran
// bank, whose address is kstranDecAddr).
func prevRoundKeyBus(g *logic.Net, rk, kstranOut, rcon rtl.Bus) rtl.Bus {
	w3 := g.XorVector(wordOf(rk, 3), wordOf(rk, 2))
	w2 := g.XorVector(wordOf(rk, 2), wordOf(rk, 1))
	w1 := g.XorVector(wordOf(rk, 1), wordOf(rk, 0))
	t := applyRcon(g, kstranOut, rcon)
	w0 := g.XorVector(wordOf(rk, 0), t)
	return rtl.Cat(w0, w1, w2, w3)
}

// rconNextBus advances the round-constant register: xtime for the forward
// schedule, inverse xtime for the backward walk. dir selects forward when
// true.
func rconNextBus(g *logic.Net, rcon rtl.Bus, dir logic.Lit) rtl.Bus {
	return mux2(g, dir, xtimeBus(g, rcon), invXtimeBus(g, rcon))
}

// setupWalk is the forward key-schedule walk a decrypt-capable core runs
// after its last key beat, to reach the final round key the backward walk
// starts from. kround counts the round key being generated, from first to
// rounds; with synchronous S-boxes each step takes an address cycle and a
// data cycle (kphase). The zero value is the encrypt-only core's absent
// walk: never running, never stepping.
type setupWalk struct {
	first, rounds          int
	ksetup, kround, kphase *rtl.Reg
	step, done             logic.Lit
}

func (w *setupWalk) declare(c *datapath) {
	w.ksetup = c.b.Reg("ksetup", 1)
	w.kround = c.b.Reg("kround", 4)
	if c.sync {
		w.kphase = c.b.Reg("kphase", 1)
	}
}

// running is true while the walk is in progress.
func (w *setupWalk) running() logic.Lit {
	if w.ksetup == nil {
		return logic.False
	}
	return w.ksetup.Q[0]
}

// control derives step (the schedule advances this cycle) and done (this
// step generates the final round key).
func (w *setupWalk) control(c *datapath) {
	if w.ksetup == nil {
		return
	}
	w.step = w.ksetup.Q[0]
	if c.sync {
		w.step = c.g.And(w.ksetup.Q[0], w.kphase.Q[0])
	}
	w.done = c.g.And(w.step, eqConst(c.g, w.kround.Q, uint64(w.rounds)))
}

// connect starts the walk on the start literal (the last key beat).
func (w *setupWalk) connect(c *datapath, start logic.Lit) {
	g := c.g
	ksetupQ := w.ksetup.Q[0]
	w.ksetup.SetNext(rtl.Bus{g.Or(start, g.And(ksetupQ, logic.Not(w.done)))}, logic.True)
	w.kround.SetNext(g.MuxVector(start, rtl.Const(4, uint64(w.first)), incBus(g, w.kround.Q)),
		g.Or(start, w.step))
	if c.sync {
		w.kphase.SetNext(rtl.Bus{g.AndN(logic.Not(start), ksetupQ, logic.Not(w.kphase.Q[0]))},
			g.Or(start, ksetupQ))
	}
}

// cycles is the walk's length in clock cycles (0 without a walk).
func (w *setupWalk) cycles(c *datapath) int {
	if w.ksetup == nil {
		return 0
	}
	n := w.rounds - w.first + 1
	if c.sync {
		n *= 2
	}
	return n
}
