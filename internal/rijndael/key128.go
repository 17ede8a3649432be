package rijndael

import (
	"rijndaelip/internal/gf256"
	"rijndaelip/internal/logic"
	"rijndaelip/internal/rtl"
)

// key128 is the paper's AES-128 key unit (Fig. 3): the round-key register
// rk is stepped once per round by KStran, forward for encryption and
// backward for decryption, so no round key is ever stored. The encryptor
// reloads rk from key_reg at every block; a decrypt-capable core instead
// walks the schedule forward once after the key load and keeps the last
// round key in lastkey, where every backward walk starts.
type key128 struct {
	keyReg, rk, rcon, lastKey *rtl.Reg
	walk                      setupWalk

	rkStep         logic.Lit
	nextRK, prevRK rtl.Bus
	ikey           rtl.Bus
}

func (k *key128) keyBytes() int { return 16 }
func (k *key128) rounds() int   { return Rounds }

func (k *key128) declareKey(c *datapath) {
	if c.hasEnc {
		k.keyReg = c.b.Reg("key_reg", 128)
	}
}

func (k *key128) declareSchedule(c *datapath) {
	k.rk = c.b.Reg("rk", 128)
	k.rcon = c.b.Reg("rcon", 8)
}

func (k *key128) declareSetup(c *datapath) {
	if c.hasDec {
		k.lastKey = c.b.Reg("lastkey", 128)
		k.walk = setupWalk{first: 1, rounds: Rounds}
		k.walk.declare(c)
	}
}

func (k *key128) setup() *setupWalk { return &k.walk }

// control derives rkStep. The round key for the current round is computed
// during an early ByteSub cycle (the round-key register is stable for the
// whole round), keeping the S-box read and XOR chain of the key schedule
// out of the 128-bit cycle's critical path. With synchronous ROMs the
// update waits one cycle for the registered read.
func (k *key128) control(c *datapath) {
	rkPhase := uint64(0)
	if c.sync {
		rkPhase = 1
	}
	k.rkStep = c.g.And(c.busyQ, eqConst(c.g, c.phase.Q, rkPhase))
}

func (k *key128) kstran(c *datapath) int {
	b, g, rk := c.b, c.g, k.rk.Q
	switch c.variant {
	case Encrypt:
		ks := sboxBank(b, "sbox_ke", kstranEncAddr(rk), gf256.SBoxTable(), c.style)
		k.nextRK = nextRoundKeyBus(g, rk, ks, k.rcon.Q)
		return 4
	case Decrypt:
		// One forward-S-box bank shared between the setup walk (forward
		// schedule) and the backward runtime walk, with a muxed address.
		addr := g.MuxVector(k.walk.running(), kstranEncAddr(rk), kstranDecAddr(g, rk))
		ks := sboxBank(b, "sbox_k", addr, gf256.SBoxTable(), c.style)
		k.nextRK = nextRoundKeyBus(g, rk, ks, k.rcon.Q)
		k.prevRK = prevRoundKeyBus(g, rk, ks, k.rcon.Q)
		return 4
	}
	// Separate banks per direction keep the addresses mux-free (and match
	// the paper's 32-Kbit memory budget for the combined core).
	kse := sboxBank(b, "sbox_ke", kstranEncAddr(rk), gf256.SBoxTable(), c.style)
	ksd := sboxBank(b, "sbox_kd", kstranDecAddr(g, rk), gf256.SBoxTable(), c.style)
	k.nextRK = nextRoundKeyBus(g, rk, kse, k.rcon.Q)
	k.prevRK = prevRoundKeyBus(g, rk, ksd, k.rcon.Q)
	return 8
}

// roundKey: by the 128-bit cycle rk already holds this round's key in
// either direction (it was updated during the rkStep ByteSub cycle).
func (k *key128) roundKey(c *datapath, encrypt bool) rtl.Bus { return k.rk.Q }

func (k *key128) loadKey(c *datapath) rtl.Bus {
	var enc, dec rtl.Bus
	if c.hasEnc {
		enc = k.keyReg.Q
	}
	if c.hasDec {
		dec = k.lastKey.Q
	}
	k.ikey = c.pick(c.dirLd, enc, dec)
	return k.ikey
}

func (k *key128) connect(c *datapath) {
	g := c.g
	if c.hasEnc {
		k.keyReg.SetNext(c.din, c.keyLoad)
	}

	// Round-key register: setup walk / load / per-round update.
	{
		v := g.MuxVector(k.walk.step, k.nextRK, c.pick(c.dirRun, k.nextRK, k.prevRK))
		v = g.MuxVector(c.ld, k.ikey, v)
		en := g.OrN(c.ld, k.rkStep, k.walk.step)
		if c.hasDec {
			v = g.MuxVector(c.keyLoad, c.din, v)
			en = g.Or(en, c.keyLoad)
		}
		k.rk.SetNext(v, en)
	}

	// Round-constant register.
	{
		fwdInit := rtl.Const(8, 0x01)
		bwdInit := rtl.Const(8, uint64(gf256.Rcon(Rounds)))
		v := g.MuxVector(k.rkStep, rconNextBus(g, k.rcon.Q, c.dirRun), xtimeBus(g, k.rcon.Q))
		v = g.MuxVector(c.ld, c.pick(c.dirLd, fwdInit, bwdInit), v)
		en := g.OrN(c.ld, k.walk.step, k.rkStep)
		if c.hasDec {
			v = g.MuxVector(c.keyLoad, fwdInit, v)
			en = g.Or(en, c.keyLoad)
		}
		k.rcon.SetNext(v, en)
	}

	keyvalidQ := c.keyvalid.Q[0]
	if !c.hasDec {
		c.keyvalid.SetNext(rtl.Bus{g.Or(keyvalidQ, c.keyLoad)}, logic.True)
		return
	}
	k.lastKey.SetNext(k.nextRK, k.walk.done)
	k.walk.connect(c, c.keyLoad)
	c.keyvalid.SetNext(rtl.Bus{g.And(logic.Not(c.keyLoad), g.Or(k.walk.done, keyvalidQ))},
		logic.True)
}
