package rijndael

import (
	"rijndaelip/internal/gf256"
	"rijndaelip/internal/logic"
	"rijndaelip/internal/rtl"
)

// key256 is the AES-256 key unit. The 256-bit schedule keeps a sliding
// eight-word window kw = [older | newer] and produces one four-word round
// key per round on the fly, alternating the RotWord+Rcon and plain-SubWord
// KStran forms (even/odd group index). Decryption first walks the schedule
// forward during setup (13 cycles, after the two-beat key load) to capture
// the final window, then walks it backwards round by round: the window
// inverse needs only the same KStran bank plus the XOR chain, so — exactly
// as in the paper's AES-128 decryptor — no round keys are ever stored.
type key256 struct {
	keyLo, keyHi, kw, rcon, lastWin, khalf *rtl.Reg
	walk                                   setupWalk

	loadLo, loadHi       logic.Lit // first / second wr_key beat
	fwd                  logic.Lit // the window walks forward this cycle
	rkStep, evenGroup    logic.Lit
	fwdWindow, bwdWindow rtl.Bus
}

// rounds256 is the AES-256 round count.
const rounds256 = 14

func (k *key256) keyBytes() int { return 32 }
func (k *key256) rounds() int   { return rounds256 }

func (k *key256) declareKey(c *datapath) {
	k.keyLo = c.b.Reg("key_lo", 128) // w0..w3 of the cipher key
	if c.hasEnc {
		k.keyHi = c.b.Reg("key_hi", 128) // w4..w7; only re-read by encrypt-capable cores
	}
	k.kw = c.b.Reg("kw", 256)
}

func (k *key256) declareSchedule(c *datapath) { k.rcon = c.b.Reg("rcon", 8) }

func (k *key256) declareSetup(c *datapath) {
	if c.hasDec {
		k.lastWin = c.b.Reg("lastwin", 256) // schedule window after the forward walk
		k.walk = setupWalk{first: 2, rounds: rounds256}
		k.walk.declare(c)
	}
	k.khalf = c.b.Reg("khalf", 1) // which key beat comes next (0 = low)
}

func (k *key256) setup() *setupWalk { return &k.walk }

func (k *key256) control(c *datapath) {
	k.loadLo = c.g.And(c.keyLoad, logic.Not(k.khalf.Q[0]))
	k.loadHi = c.g.And(c.keyLoad, k.khalf.Q[0])
}

func (k *key256) kstran(c *datapath) int {
	g := c.g
	older, newer := k.kw.Q[0:128], k.kw.Q[128:256]
	ksetupQ := k.walk.running()
	// The window walks forward on an encrypt operation and during the
	// setup walk, backward on a decrypt operation.
	k.fwd = g.Or(ksetupQ, c.dirRun)
	fwd := k.fwd

	// Key-schedule stepping. Forward generation runs rounds 2..14 (rounds
	// 0 and 1 use the two cipher-key halves); the backward walk runs
	// rounds 1..13 (round 14 adds the recovered cipher-key low half).
	phase0 := g.And(c.busyQ, eqConst(g, c.phase.Q, 0))
	fwdStep := g.And(phase0, logic.Not(eqConst(g, c.round.Q, 1)))
	bwdStep := g.And(phase0, logic.Not(c.lastRound))
	k.rkStep = g.Mux(c.dirRun, fwdStep, bwdStep)

	// Group parities. Forward: round r generates group g=r, even g uses
	// RotWord+Rcon; during the setup walk kround plays r's role.
	// Backward: round ri recovers group g=15-ri; even g <=> ri odd.
	fwdEven := logic.Not(c.round.Q[0])
	if c.hasDec {
		fwdEven = g.Mux(ksetupQ, logic.Not(k.walk.kround.Q[0]), fwdEven)
	}
	k.evenGroup = g.Mux(fwd, fwdEven, c.round.Q[0])

	// KStran input word: forward uses the last word of the newer group;
	// backward uses the last word of the OLDER group (it is w[i-1] of the
	// group being recovered).
	ksWord := g.MuxVector(fwd, wordOf(newer, 3), wordOf(older, 3))
	kaddr := g.MuxVector(k.evenGroup, rtl.RotateByteLeft(ksWord), ksWord)
	ks := sboxBank(c.b, "sbox_k", kaddr, gf256.SBoxTable(), c.style)
	tWord := g.MuxVector(k.evenGroup, applyRcon(g, ks, k.rcon.Q), ks)

	// Forward: new group N from [older A | newer B]: N0 = A0^t(B3), chain.
	n0 := g.XorVector(wordOf(older, 0), tWord)
	n1 := g.XorVector(wordOf(older, 1), n0)
	n2 := g.XorVector(wordOf(older, 2), n1)
	n3 := g.XorVector(wordOf(older, 3), n2)
	k.fwdWindow = rtl.Cat(newer, rtl.Cat(n0, n1, n2, n3))
	if c.hasDec {
		// Backward: recover A (= G_{g-2}) from [B | N]: A0 = N0^t(B3),
		// A_j = N_j ^ N_{j-1}.
		a0 := g.XorVector(wordOf(newer, 0), tWord)
		a1 := g.XorVector(wordOf(newer, 1), wordOf(newer, 0))
		a2 := g.XorVector(wordOf(newer, 2), wordOf(newer, 1))
		a3 := g.XorVector(wordOf(newer, 3), wordOf(newer, 2))
		k.bwdWindow = rtl.Cat(rtl.Cat(a0, a1, a2, a3), older)
	}
	return 4
}

// roundKey: encrypt rounds add the newer window group. Backward rounds add
// the newer group too, except the final round, which adds the recovered
// cipher-key low half that by then sits in the OLDER slot.
func (k *key256) roundKey(c *datapath, encrypt bool) rtl.Bus {
	newer := k.kw.Q[128:256]
	if encrypt {
		return newer
	}
	return c.g.MuxVector(c.lastRound, k.kw.Q[0:128], newer)
}

// loadKey: encrypt adds the cipher key's low half; decrypt adds G14, the
// upper half of the stored window.
func (k *key256) loadKey(c *datapath) rtl.Bus {
	var enc, dec rtl.Bus
	if c.hasEnc {
		enc = k.keyLo.Q
	}
	if c.hasDec {
		dec = k.lastWin.Q[128:256]
	}
	return c.pick(c.dirLd, enc, dec)
}

func (k *key256) connect(c *datapath) {
	g := c.g
	keyvalidQ := c.keyvalid.Q[0]
	k.keyLo.SetNext(c.din, k.loadLo)
	k.khalf.SetNext(rtl.Bus{logic.Not(k.khalf.Q[0])}, c.keyLoad)
	if c.hasEnc {
		k.keyHi.SetNext(c.din, k.loadHi)
	}
	if c.hasDec {
		// keyvalid falls on a new key's first beat and rises when the
		// forward walk finishes.
		c.keyvalid.SetNext(rtl.Bus{g.And(logic.Not(k.loadLo), g.Or(k.walk.done, keyvalidQ))},
			logic.True)
		k.walk.connect(c, k.loadHi)
		k.lastWin.SetNext(k.fwdWindow, k.walk.done)
	} else {
		// Encrypt-only validity comes on the second beat directly.
		c.keyvalid.SetNext(rtl.Bus{g.Or(k.loadHi, g.And(keyvalidQ, logic.Not(k.loadLo)))}, logic.True)
	}

	// Window register: loaded with the key halves (encrypt) or the stored
	// final window (decrypt) at ld; walked forward during setup; stepped
	// per round while running.
	{
		var keyHalves, storedWindow rtl.Bus
		if c.hasEnc {
			keyHalves = rtl.Cat(k.keyLo.Q, k.keyHi.Q)
		}
		if c.hasDec {
			storedWindow = k.lastWin.Q
		}
		v := g.MuxVector(k.walk.step, k.fwdWindow, c.pick(c.dirRun, k.fwdWindow, k.bwdWindow))
		v = g.MuxVector(c.ld, c.pick(c.dirLd, keyHalves, storedWindow), v)
		en := g.OrN(c.ld, k.rkStep, k.walk.step)
		if c.hasDec {
			// The setup walk starts from the freshly loaded key halves.
			v = g.MuxVector(k.loadHi, rtl.Cat(k.keyLo.Q, c.din), v)
			en = g.Or(en, k.loadHi)
		}
		k.kw.SetNext(v, en)
	}

	// Round constant: forward starts at 0x01 and doubles per even group;
	// backward starts at Rcon(7)=0x40 and halves per even group.
	{
		fwdInit := rtl.Const(8, 0x01)
		// The inner direction mux is redundant (fwd is false only when
		// dirRun is) and costs the combined core 4 LCs; it is kept so the
		// mapped AES-256 cores stay at their recorded sizes.
		xt := xtimeBus(g, k.rcon.Q)
		step := g.MuxVector(k.fwd, xt, g.MuxVector(c.dirRun, xt, invXtimeBus(g, k.rcon.Q)))
		v := g.MuxVector(c.ld, c.pick(c.dirLd, fwdInit, rtl.Const(8, 0x40)), step)
		en := g.OrN(c.ld, g.And(k.rkStep, k.evenGroup), g.And(k.walk.step, k.evenGroup))
		if c.hasDec {
			v = g.MuxVector(k.loadHi, fwdInit, v)
			en = g.Or(en, k.loadHi)
		}
		k.rcon.SetNext(v, en)
	}
}
