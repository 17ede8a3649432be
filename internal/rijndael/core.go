package rijndael

import (
	"fmt"

	"rijndaelip/internal/gf256"
	"rijndaelip/internal/logic"
	"rijndaelip/internal/rtl"
)

// Variant selects which operations the generated device supports (the
// paper's three implementations).
type Variant int

// Device variants.
const (
	// Encrypt is the encrypt-only device.
	Encrypt Variant = iota
	// Decrypt is the decrypt-only device.
	Decrypt
	// Both is the combined device with the enc/dec select input.
	Both
)

func (v Variant) String() string {
	switch v {
	case Encrypt:
		return "encrypt"
	case Decrypt:
		return "decrypt"
	case Both:
		return "both"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Config selects the generated core's variant and S-box realization.
type Config struct {
	Variant Variant
	// ROMStyle picks how the S-boxes are realized: rtl.ROMAsync for
	// Acex1K-style EABs (the paper's primary implementation), rtl.ROMLogic
	// for the Cyclone builds where asynchronous ROM is unavailable, and
	// rtl.ROMSync for the paper's future-work synchronous-ROM variant.
	ROMStyle rtl.ROMStyle
	// Name overrides the design name; empty derives one from the options.
	Name string
}

// Core is a generated Rijndael IP: the elaborated design plus its derived
// protocol timing.
type Core struct {
	Config Config
	Design *rtl.Design

	// BlockLatency is the number of clock cycles from the edge that loads a
	// block into the state register to the edge that latches the result
	// into the output register (50 for the 5-cycle rounds, 60 for the
	// synchronous-ROM variant).
	BlockLatency int
	// KeySetupCycles is the number of cycles after wr_key is accepted
	// before the core will accept data (the decryptor's forward
	// key-schedule walk; 0 for the encrypt-only device).
	KeySetupCycles int
	// CyclesPerRound is the paper's headline architecture number: 5 with
	// combinational Byte Sub, 6 with registered (synchronous-ROM) Byte Sub.
	CyclesPerRound int
	// SBoxROMs is the number of 256x8 S-box memories instantiated (0 when
	// ROMStyle is rtl.ROMLogic since they are expanded into logic cells).
	SBoxROMs int
	// KeyBytes is the cipher-key length the core's key unit loads: 16 for
	// New, 32 for New256 (two wr_key beats).
	KeyBytes int
}

// Rounds is the AES-128 round count.
const Rounds = 10

// eqConst returns a literal that is true when the bus equals the constant.
func eqConst(g *logic.Net, b rtl.Bus, k uint64) logic.Lit {
	acc := logic.True
	for i, l := range b {
		if k>>uint(i)&1 != 0 {
			acc = g.And(acc, l)
		} else {
			acc = g.And(acc, logic.Not(l))
		}
	}
	return acc
}

// incBus returns bus+1 with a ripple-carry incrementer.
func incBus(g *logic.Net, b rtl.Bus) rtl.Bus {
	out := make(rtl.Bus, len(b))
	carry := logic.True
	for i, l := range b {
		out[i] = g.Xor(l, carry)
		carry = g.And(carry, l)
	}
	return out
}

// New generates a Rijndael AES-128 IP core per the configuration.
func New(cfg Config) (*Core, error) {
	return elaborate(cfg, &key128{})
}

// New256 generates an AES-256 core with the same mixed 32/128-bit
// architecture — an extension beyond the paper, which notes that "the AES
// defines three versions AES-128, AES-192 and AES-256" but implements only
// AES-128. Only the key unit differs from New (see key256): 14 rounds,
// 70-cycle block latency, the same 261/262-pin interface, and a 256-bit
// key loaded over the 128-bit bus in two wr_key beats, low half first.
// AES-192's six-word stride does not align with four-word round keys, so
// it is left to the software reference.
func New256(variant Variant, style rtl.ROMStyle) (*Core, error) {
	if style == rtl.ROMSync {
		return nil, fmt.Errorf("rijndael: New256 models combinational ByteSub only")
	}
	name := fmt.Sprintf("aes256_%s_%s", variant, style)
	return elaborate(Config{Variant: variant, ROMStyle: style, Name: name}, &key256{})
}

// keyUnit is the key-size-specific part of the core: the cipher-key
// registers, the on-the-fly round-key schedule with its KStran S-box bank,
// and the decryptor's setup walk. elaborate builds everything else and
// calls the unit at fixed points of its elaboration order; each method
// runs exactly once, in the order listed.
type keyUnit interface {
	// keyBytes is the cipher-key length; rounds the round count.
	keyBytes() int
	rounds() int
	// declareKey, declareSchedule and declareSetup add the unit's
	// registers after din_reg, after the state words, and after
	// data_ok_reg respectively.
	declareKey(c *datapath)
	declareSchedule(c *datapath)
	declareSetup(c *datapath)
	// setup is the unit's key-setup walk, declared by declareSetup (the
	// zero walk on an encrypt-only core). While it runs the core is busy
	// with its key and accepts neither data nor a new key.
	setup() *setupWalk
	// control derives the unit's step literals once the datapath's
	// control (c.keyLoad, c.ld, c.lastRound) exists; the walk's follow.
	control(c *datapath)
	// kstran builds the KStran bank and the next-round-key logic once the
	// direction literals exist, and returns its S-box ROM count.
	kstran(c *datapath) int
	// roundKey is the Add Key operand of the encrypt or decrypt round
	// function; loadKey the key added to the block at load.
	roundKey(c *datapath, encrypt bool) rtl.Bus
	loadKey(c *datapath) rtl.Bus
	// connect wires the unit's registers.
	connect(c *datapath)
}

// datapath is the elaboration state elaborate shares with its key unit.
type datapath struct {
	b       *rtl.Builder
	g       *logic.Net
	variant Variant
	style   rtl.ROMStyle
	hasEnc  bool
	hasDec  bool
	sync    bool

	din          rtl.Bus
	busyQ        logic.Lit
	phase, round *rtl.Reg
	// keyvalid is read by the skeleton's control and wired by the key
	// unit, which alone knows when a loaded key becomes usable.
	keyvalid *rtl.Reg
	// keyLoad is true on every accepted wr_key beat.
	keyLoad, ld   logic.Lit
	lastRound     logic.Lit
	dirLd, dirRun logic.Lit
}

// pick returns the encrypt-side bus on an encrypt-only core, the
// decrypt-side bus on a decrypt-only core, and a mux of the two on sel
// (true selects encrypt) on the combined core. The side a variant lacks
// may be nil.
func (c *datapath) pick(sel logic.Lit, enc, dec rtl.Bus) rtl.Bus {
	switch c.variant {
	case Encrypt:
		return enc
	case Decrypt:
		return dec
	}
	return c.g.MuxVector(sel, enc, dec)
}

// elaborate builds the paper's mixed 32/128-bit datapath around a key
// unit: the Table 1 ports, the state words, the ByteSub bank, the
// enc/dec round function, the load-cycle Add Key, and the
// busy/phase/round/pending/dir/dout/data_ok control.
func elaborate(cfg Config, ku keyUnit) (*Core, error) {
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("aes%d_%s_%s", 8*ku.keyBytes(), cfg.Variant, cfg.ROMStyle)
	}
	sync := cfg.ROMStyle == rtl.ROMSync
	maxPhase := uint64(4)
	if sync {
		maxPhase = 5
	}

	b := rtl.NewBuilder(name)
	g := b.Logic()
	c := &datapath{
		b:       b,
		g:       g,
		variant: cfg.Variant,
		style:   cfg.ROMStyle,
		hasEnc:  cfg.Variant != Decrypt,
		hasDec:  cfg.Variant != Encrypt,
		sync:    sync,
	}

	// --- Ports (Table 1 of the paper) ---
	b.Input("clk", 1) // dedicated clock network; counted as a pin
	setup := b.Input("setup", 1)[0]
	wrData := b.Input("wr_data", 1)[0]
	wrKey := b.Input("wr_key", 1)[0]
	c.din = b.Input("din", 128)
	var encdecIn logic.Lit
	if cfg.Variant == Both {
		encdecIn = b.Input("encdec", 1)[0]
	}

	// --- State registers ---
	dinReg := b.Reg("din_reg", 128)
	ku.declareKey(c)
	s := [4]*rtl.Reg{b.Reg("s0", 32), b.Reg("s1", 32), b.Reg("s2", 32), b.Reg("s3", 32)}
	ku.declareSchedule(c)
	busy := b.Reg("busy", 1)
	c.phase = b.Reg("phase", 3)
	c.round = b.Reg("round", 4)
	pending := b.Reg("pending", 1)
	c.keyvalid = b.Reg("keyvalid", 1)
	doutReg := b.Reg("dout_reg", 128)
	dataOk := b.Reg("data_ok_reg", 1)
	ku.declareSetup(c)
	var dirReg, pendDir *rtl.Reg
	if cfg.Variant == Both {
		dirReg = b.Reg("dir", 1)
		pendDir = b.Reg("pend_dir", 1)
	}

	busyQ := busy.Q[0]
	c.busyQ = busyQ
	pendingQ := pending.Q[0]
	dataOkQ := dataOk.Q[0]
	walk := ku.setup()
	walking := walk.running()

	// --- Control ---
	c.keyLoad = g.AndN(wrKey, setup, logic.Not(busyQ), logic.Not(walking))
	occupied := g.OrN(busyQ, walking, logic.Not(c.keyvalid.Q[0]), c.keyLoad)
	ld := g.AndN(logic.Not(occupied), g.Or(pendingQ, wrData))
	c.ld = ld
	mix := g.And(busyQ, eqConst(g, c.phase.Q, maxPhase))
	c.lastRound = eqConst(g, c.round.Q, uint64(ku.rounds()))
	finalMix := g.And(mix, c.lastRound)
	ku.control(c)
	walk.control(c)

	// Direction literals: at-load (sampled with the data) and running
	// (registered for the whole operation).
	c.dirLd, c.dirRun = logic.True, logic.True // encrypt-only
	switch cfg.Variant {
	case Decrypt:
		c.dirLd, c.dirRun = logic.False, logic.False
	case Both:
		c.dirLd = g.Mux(pendingQ, pendDir.Q[0], encdecIn)
		c.dirRun = dirReg.Q[0]
	}

	// --- Byte Sub data path (mixed 32-bit part) ---
	// One of the four state words is routed to the S-box bank each ByteSub
	// cycle.
	p0, p1 := c.phase.Q[0], c.phase.Q[1]
	addrWord := mux2(g, p1,
		mux2(g, p0, s[3].Q, s[2].Q),
		mux2(g, p0, s[1].Q, s[0].Q))
	sboxROMs := 0
	var encData, decData rtl.Bus
	if c.hasEnc {
		encData = sboxBank(b, "sbox_e", addrWord, gf256.SBoxTable(), cfg.ROMStyle)
		sboxROMs += 4
	}
	if c.hasDec {
		decData = sboxBank(b, "sbox_d", addrWord, gf256.InvSBoxTable(), cfg.ROMStyle)
		sboxROMs += 4
	}
	sbData := c.pick(c.dirRun, encData, decData)

	// --- KStran bank and on-the-fly round keys ---
	sboxROMs += ku.kstran(c)
	if cfg.ROMStyle == rtl.ROMLogic {
		sboxROMs = 0
	}

	// --- 128-bit round function (phase 4/5) ---
	catS := rtl.Cat(s[0].Q, s[1].Q, s[2].Q, s[3].Q)
	var encOut, decOut rtl.Bus
	if c.hasEnc {
		sr := shiftRowsBus(catS, false)
		mc := mixColumnsBus(g, sr)
		pre := g.MuxVector(c.lastRound, sr, mc)
		encOut = g.XorVector(pre, ku.roundKey(c, true))
	}
	if c.hasDec {
		dk := ku.roundKey(c, false)
		isr := shiftRowsBus(catS, true)
		ak := g.XorVector(isr, dk)
		imc := invMixColumnsBus(g, ak)
		decOut = g.MuxVector(c.lastRound, ak, imc)
	}
	roundOut := c.pick(c.dirRun, encOut, decOut)

	// --- Initial AddRoundKey folded into the load cycle ---
	ikey := ku.loadKey(c)
	src := g.MuxVector(pendingQ, dinReg.Q, c.din)
	loadVal := g.XorVector(src, ikey)

	// --- Register next-state connections ---
	dinReg.SetNext(c.din, wrData)
	for w := 0; w < 4; w++ {
		bsWrite := eqConst(g, c.phase.Q, uint64(w))
		if sync {
			bsWrite = eqConst(g, c.phase.Q, uint64(w+1))
		}
		en := g.OrN(ld, g.And(busyQ, bsWrite), mix)
		next := g.MuxVector(ld, wordOf(loadVal, w),
			g.MuxVector(mix, wordOf(roundOut, w), sbData))
		s[w].SetNext(next, en)
	}
	ku.connect(c)

	busy.SetNext(rtl.Bus{g.Or(ld, g.And(busyQ, logic.Not(finalMix)))}, logic.True)
	c.round.SetNext(g.MuxVector(ld, rtl.Const(4, 1), incBus(g, c.round.Q)), g.Or(ld, mix))
	c.phase.SetNext(g.MuxVector(g.Or(ld, mix), rtl.Const(3, 0), incBus(g, c.phase.Q)),
		g.Or(ld, busyQ))
	pending.SetNext(rtl.Bus{g.Mux(ld, g.And(pendingQ, wrData),
		g.Or(pendingQ, g.And(wrData, occupied)))}, logic.True)
	if cfg.Variant == Both {
		dirReg.SetNext(rtl.Bus{c.dirLd}, ld)
		pendDir.SetNext(rtl.Bus{encdecIn}, wrData)
	}
	doutReg.SetNext(roundOut, finalMix)
	dataOk.SetNext(rtl.Bus{g.Or(finalMix, g.And(dataOkQ, logic.Not(ld)))}, logic.True)

	// --- Outputs ---
	b.Output("dout", doutReg.Q)
	b.Output("data_ok", rtl.Bus{dataOkQ})

	d, err := b.Build()
	if err != nil {
		return nil, err
	}
	cyc := 5
	if sync {
		cyc = 6
	}
	return &Core{
		Config:         cfg,
		Design:         d,
		BlockLatency:   ku.rounds() * cyc,
		KeySetupCycles: walk.cycles(c),
		CyclesPerRound: cyc,
		SBoxROMs:       sboxROMs,
		KeyBytes:       ku.keyBytes(),
	}, nil
}
