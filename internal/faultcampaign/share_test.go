package faultcampaign

import (
	"fmt"
	"math/rand"
	"testing"

	"rijndaelip/internal/bfm"
	"rijndaelip/internal/edac"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/rijndael"
)

// twinPairs drives two lockstep pairs with identical calls: pair 0 is a
// lockstep Device, whose shadow (netlist.NewShadow) reuses the primary's
// golden ROM gathers and takes its stimulus, and whose comparator skips a
// compare when neither replica moved; pair 1 has two independent
// simulators behind passSim, so it drives both and compares after every
// call. A device's driver drives both pairs once its Sim points at the
// twinPairs. After every Reset, Eval and Step it compares every net word
// of the two primaries and of the two shadows (the outputs among them),
// the comparators' MismatchMask and FirstMismatch on every lane, and the
// EDAC counters and tokens of every store, and keeps the first
// difference. After every Eval and Step it also checks that pair 0's
// shadow holds its primary's input words, and that a compare pair 0
// skipped saw no net word of either replica move since its last compare:
// the outputs are registered, so a skip that missed a move inside the
// replicas would not show in the mismatch mask. Reads are served by pair 0.
// strike runs just before each Step and evalStrike just before the first
// Eval after each Step, on both pairs alike.
//
// With base set, pair 0 was reconfigured in place (see reconfiguredPair)
// and pair 1 is a freshly built device's: pair 0's stores then keep the
// read counters and token move count of their past, so the counters are
// compared as the deltas from base and the tokens by their view flags
// alone.
type twinPairs struct {
	nl         *netlist.Netlist
	dev        *Device // owns pair 0
	pairs      [2]*VectorLockstep
	sims       [2][2]*netlist.Simulator // [pair][primary, shadow]
	steps      int
	stepped    bool // a Step ran since the last Eval
	strike     func(step int, primary, shadow *netlist.Simulator)
	evalStrike func(step int, primary, shadow *netlist.Simulator)
	diff       error
	base       [2][]edac.Stats // [primary, shadow][ROM]: pair 0's counters when reconfigured
	compares   int             // pair 0's compares run at the last check
	seen       [2][]uint64     // [primary, shadow]: pair 0's net words at its last compare
}

// passSim hides a simulator's type, so a VectorLockstep over two of them
// drives both replicas and compares through OutputWords after every Eval
// and Step.
type passSim struct{ bfm.Sim }

// tokenView keeps the flag bits of an edac.ROM token: bit 0 (a word is
// faulty) and bit 63 (a word decodes to a byte other than golden).
func tokenView(tok uint64) uint64 { return tok & (1 | 1<<63) }

func newTwinPairs(t *testing.T, core *rijndael.Core, nl *netlist.Netlist) *twinPairs {
	dev, err := NewDevice(core, nl, true)
	if err != nil {
		t.Fatal(err)
	}
	var sims [2]*netlist.Simulator
	for i := range sims {
		if sims[i], err = netlist.NewSimulator(nl); err != nil {
			t.Fatal(err)
		}
	}
	tp := &twinPairs{
		nl:    nl,
		dev:   dev,
		pairs: [2]*VectorLockstep{dev.Lockstep, NewVectorLockstep(passSim{sims[0]}, passSim{sims[1]})},
		sims:  [2][2]*netlist.Simulator{{dev.Primary, dev.Shadow}, sims},
	}
	dev.Driver.Sim = tp
	return tp
}

func (tp *twinPairs) check(op string) {
	if tp.diff != nil {
		return
	}
	other := "unshared"
	if tp.base[0] != nil {
		other = "fresh"
	}
	fail := func(format string, args ...any) {
		tp.diff = fmt.Errorf("after %s at step %d: %s", op, tp.steps, fmt.Sprintf(format, args...))
	}
	a, b := tp.pairs[0], tp.pairs[1]
	if a.MismatchMask() != b.MismatchMask() {
		fail("mismatch mask %#x, %s %#x", a.MismatchMask(), other, b.MismatchMask())
		return
	}
	for lane := 0; lane < bfm.Lanes; lane++ {
		ca, oka := a.FirstMismatch(lane)
		cb, okb := b.FirstMismatch(lane)
		if oka != okb || oka && ca != cb {
			fail("lane %d first mismatch (%d, %v), %s (%d, %v)", lane, ca, oka, other, cb, okb)
			return
		}
	}
	for role, name := range [2]string{"primary", "shadow"} {
		sa, sb := tp.sims[0][role], tp.sims[1][role]
		for _, port := range tp.nl.Outputs {
			wa, _ := sa.OutputWords(port.Name)
			wb, _ := sb.OutputWords(port.Name)
			for bit := range wa {
				if wa[bit] != wb[bit] {
					fail("%s output %s[%d] %#x, %s %#x", name, port.Name, bit, wa[bit], other, wb[bit])
					return
				}
			}
		}
		for n := 0; n < tp.nl.NumNets(); n++ {
			if wa, wb := sa.NetWord(netlist.NetID(n)), sb.NetWord(netlist.NetID(n)); wa != wb {
				fail("%s net %d %#x, %s %#x", name, n, wa, other, wb)
				return
			}
		}
		for i := 0; i < sa.NumROMs(); i++ {
			ra, rb := sa.ROMStore(i), sb.ROMStore(i)
			sta, stb, ta, tb := ra.Stats(), rb.Stats(), ra.Token(), rb.Token()
			if tp.base[role] != nil {
				sta.CorrectedReads -= tp.base[role][i].CorrectedReads
				sta.UncorrectableReads -= tp.base[role][i].UncorrectableReads
				ta, tb = tokenView(ta), tokenView(tb)
			}
			if sta != stb || ta != tb {
				fail("%s ROM %s stats %+v token %#x, %s %+v token %#x",
					name, ra.Name(), sta, ta, other, stb, tb)
				return
			}
		}
	}
	if op != "Eval" && op != "Step" {
		return
	}
	prim, shadow := tp.sims[0][0], tp.sims[0][1]
	for _, port := range tp.nl.Inputs {
		for bit, n := range port.Nets {
			if wp, ws := prim.NetWord(n), shadow.NetWord(n); wp != ws {
				fail("shadow input %s[%d] %#x, its primary %#x", port.Name, bit, ws, wp)
				return
			}
		}
	}
	if a.compares != tp.compares {
		tp.compares = a.compares
		for role, s := range tp.sims[0] {
			tp.seen[role] = tp.seen[role][:0]
			for n := 0; n < tp.nl.NumNets(); n++ {
				tp.seen[role] = append(tp.seen[role], s.NetWord(netlist.NetID(n)))
			}
		}
		return
	}
	for role, s := range tp.sims[0] {
		for n, w := range tp.seen[role] {
			if s.NetWord(netlist.NetID(n)) != w {
				fail("compare skipped, but %s net %d moved since the last compare", [2]string{"primary", "shadow"}[role], n)
				return
			}
		}
	}
}

func (tp *twinPairs) Reset() {
	for _, p := range tp.pairs {
		p.Reset()
	}
	tp.check("Reset")
}

func (tp *twinPairs) Eval() {
	if tp.evalStrike != nil && tp.stepped {
		for _, s := range tp.sims {
			tp.evalStrike(tp.steps, s[0], s[1])
		}
	}
	tp.stepped = false
	for _, p := range tp.pairs {
		p.Eval()
	}
	tp.check("Eval")
}

func (tp *twinPairs) Step() {
	if tp.strike != nil {
		for _, s := range tp.sims {
			tp.strike(tp.steps, s[0], s[1])
		}
	}
	for _, p := range tp.pairs {
		p.Step()
	}
	tp.steps++
	tp.stepped = true
	tp.check("Step")
}

func (tp *twinPairs) SetInput(name string, v uint64) error {
	tp.pairs[1].SetInput(name, v)
	return tp.pairs[0].SetInput(name, v)
}

func (tp *twinPairs) SetInputBits(name string, bits []byte) error {
	tp.pairs[1].SetInputBits(name, bits)
	return tp.pairs[0].SetInputBits(name, bits)
}

func (tp *twinPairs) SetInputLane(name string, lane int, v uint64) error {
	tp.pairs[1].SetInputLane(name, lane, v)
	return tp.pairs[0].SetInputLane(name, lane, v)
}

func (tp *twinPairs) SetInputBitsLane(name string, lane int, bits []byte) error {
	tp.pairs[1].SetInputBitsLane(name, lane, bits)
	return tp.pairs[0].SetInputBitsLane(name, lane, bits)
}

func (tp *twinPairs) Output(name string) (uint64, error) { return tp.pairs[0].Output(name) }

func (tp *twinPairs) OutputBits(name string) ([]byte, error) { return tp.pairs[0].OutputBits(name) }

func (tp *twinPairs) OutputLane(name string, lane int) (uint64, error) {
	return tp.pairs[0].OutputLane(name, lane)
}

func (tp *twinPairs) OutputBitsLane(name string, lane int) ([]byte, error) {
	return tp.pairs[0].OutputBitsLane(name, lane)
}

func (tp *twinPairs) OutputWords(name string) ([]uint64, error) {
	return tp.pairs[0].OutputWords(name)
}

func (tp *twinPairs) RegValue(name string) ([]byte, bool) { return tp.pairs[0].RegValue(name) }

// TestSharedShadowEquivalence is the equivalence fuzz of the lockstep
// pair a Device builds: a pair whose shadow reuses the primary's golden
// ROM gathers and takes its stimulus, and whose comparator skips a compare
// when neither replica moved, must be indistinguishable, cycle by cycle,
// from a pair of independent simulators that are both driven and compared
// after every call, under the same primary faults. Each seeded round loads
// a random key and runs two 64-lane transactions of random blocks; before
// the first, one fault class is armed on both primaries: flip-flop upsets
// on random lanes (ScheduleFlipLanes), a transient ROM upset (FlipROMBit),
// a stuck ROM bit (StickROMBit), or a four-bit clean alias that turns a ROM
// word into another valid codeword, which decodes Clean to the wrong byte;
// one more class upsets the shadow's store instead, whose corrected reads
// the shadow must count itself; and the last strikes the primary between a
// Step and the next Eval, where the driver's Eval would find nothing
// driven, with each of the four primary faults in turn (the alias on the
// word lane 0 addresses, so that Eval takes moved ROM data). The second
// transaction runs on whatever damage is left. The alias must be detected:
// a shadow that took the aliased primary's gathers, trusting a clean
// token, would hide it. Each round ends with the engine's respawn sequence
// (see reconfiguredPair).
func TestSharedShadowEquivalence(t *testing.T) {
	core, nl := buildEncryptCore(t)
	alias := edac.Encode(1) // weight four: XORed into a codeword, another valid one
	const classes = 7
	rounds := 4 * classes
	for round := 0; round < rounds; round++ {
		r := rand.New(rand.NewSource(int64(round)))
		tp := newTwinPairs(t, core, nl)
		key := make([]byte, 16)
		r.Read(key)
		if err := tp.dev.Key(key); err != nil {
			t.Fatalf("round %d: key load: %v", round, err)
		}
		tp.steps = 0
		prims := [2]*netlist.Simulator{tp.sims[0][0], tp.sims[1][0]}
		at := 1 + r.Intn(core.BlockLatency-10)
		rom, word, bit := r.Intn(prims[0].NumROMs()), r.Intn(edac.Words), r.Intn(edac.CodeBits)
		class := round % classes
		switch class {
		case 1:
			ffs := []int{r.Intn(prims[0].NumFFs()), r.Intn(prims[0].NumFFs())}
			lanes := r.Uint64()
			for _, p := range prims {
				p.ScheduleFlipLanes(at, lanes, ffs...)
			}
		case 2:
			tp.strike = func(step int, p, _ *netlist.Simulator) {
				if step == at {
					p.FlipROMBit(rom, word, bit)
				}
			}
		case 3:
			val := !prims[0].ROMStore(rom).CodewordBit(word, bit)
			tp.strike = func(step int, p, _ *netlist.Simulator) {
				if step == at {
					p.StickROMBit(rom, word, bit, val)
				}
			}
		case 4:
			// A data-path S-box (sbox_e0..3), which the 64 random blocks
			// read at nearly every word, so the alias reaches an output.
			rom %= 4
			tp.strike = func(step int, p, _ *netlist.Simulator) {
				if step != at {
					return
				}
				for b := 0; b < edac.CodeBits; b++ {
					if alias>>uint(b)&1 != 0 {
						p.FlipROMBit(rom, word, b)
					}
				}
			}
		case 5:
			tp.strike = func(step int, _, shadow *netlist.Simulator) {
				if step == at {
					shadow.FlipROMBit(rom, word, bit)
				}
			}
		case 6:
			ff, lanes := r.Intn(prims[0].NumFFs()), r.Uint64()
			val := !prims[0].ROMStore(rom).CodewordBit(word, bit)
			kind := round / classes % 4
			tp.evalStrike = func(step int, p, _ *netlist.Simulator) {
				if step != at {
					return
				}
				switch kind {
				case 0:
					p.FlipFFLanes(ff, lanes)
				case 1:
					p.FlipROMBit(rom, word, bit)
				case 2:
					p.StickROMBit(rom, word, bit, val)
				case 3:
					rom := rom % 4
					word := 0
					for b, n := range nl.ROMs[rom].Addr {
						word |= int(p.NetWord(n)&1) << b
					}
					for b := 0; b < edac.CodeBits; b++ {
						if alias>>uint(b)&1 != 0 {
							p.FlipROMBit(rom, word, b)
						}
					}
				}
			}
		}
		blocks := make([][]byte, bfm.Lanes)
		for i := range blocks {
			blocks[i] = make([]byte, 16)
		}
		for tx := 0; tx < 2; tx++ {
			for _, b := range blocks {
				r.Read(b)
			}
			// A fault may cost a lane its latency or hang the transaction;
			// the verdict is pair 0's either way, and the per-cycle
			// comparison is what this test checks.
			_, _, _ = tp.dev.Driver.ProcessVector(blocks, true)
			if tp.diff != nil {
				t.Fatalf("round %d (fault class %d), transaction %d: shared shadow differs from an unshared one %v", round, class, tx, tp.diff)
			}
		}
		if class == 4 && tp.pairs[0].MismatchMask() == 0 {
			t.Errorf("round %d: ROM %d word %#02x aliased to a clean wrong byte went undetected", round, rom, word)
		}
		if class == 0 && tp.pairs[0].MismatchMask() != 0 {
			t.Errorf("round %d: fault-free pair diverged on lanes %#x", round, tp.pairs[0].MismatchMask())
		}
		if err := reconfiguredPair(core, tp, key, r); err != nil {
			t.Fatalf("round %d (fault class %d): pair reconfigured in place differs from a fresh one %v", round, class, err)
		}
	}
}

// reconfiguredPair reconfigures tp's device in place after its faulted
// run with Device.Reconfigure, the engine's respawn sequence (ClearFaults
// on both replicas, then Reset and the key load), and holds it against a
// freshly built device: the device's driver drives a twinPairs of the two
// pairs, so the reset and the key load are compared cycle by cycle, then
// a 64-lane transaction of random blocks, with every state word and every
// stored codeword compared after the key load and after the transaction.
func reconfiguredPair(core *rijndael.Core, tp *twinPairs, key []byte, r *rand.Rand) error {
	nl := tp.nl
	fresh, err := NewDevice(core, nl, true)
	if err != nil {
		return err
	}
	rt := &twinPairs{
		nl:    nl,
		pairs: [2]*VectorLockstep{tp.dev.Lockstep, fresh.Lockstep},
		sims:  [2][2]*netlist.Simulator{tp.sims[0], {fresh.Primary, fresh.Shadow}},
	}
	for role, s := range rt.sims[0] {
		for i := 0; i < s.NumROMs(); i++ {
			rt.base[role] = append(rt.base[role], s.ROMStore(i).Stats())
		}
	}
	phase := func(op string) error {
		if rt.check(op); rt.diff != nil {
			return rt.diff
		}
		for role, name := range [2]string{"primary", "shadow"} {
			sa, sb := rt.sims[0][role], rt.sims[1][role]
			qa, qb := stateWords(nl, sa), stateWords(nl, sb)
			for i := range qa {
				if qa[i] != qb[i] {
					return fmt.Errorf("after %s: %s flip-flop %s %#x, fresh %#x", op, name, sa.FFName(i), qa[i], qb[i])
				}
			}
			for i := 0; i < sa.NumROMs(); i++ {
				ra, rb := sa.ROMStore(i), sb.ROMStore(i)
				for w := 0; w < edac.Words; w++ {
					for b := 0; b < edac.CodeBits; b++ {
						if ra.CodewordBit(w, b) != rb.CodewordBit(w, b) {
							return fmt.Errorf("after %s: %s ROM %s word %#02x codeword bit %d differs from fresh", op, name, ra.Name(), w, b)
						}
					}
				}
			}
		}
		return nil
	}
	drv := tp.dev.Driver
	drv.Sim = rt
	if err := tp.dev.Reconfigure(key); err != nil {
		return err
	}
	if err := phase("key load"); err != nil {
		return err
	}
	blocks := make([][]byte, bfm.Lanes)
	for i := range blocks {
		blocks[i] = make([]byte, 16)
		r.Read(blocks[i])
	}
	if _, _, err := drv.ProcessVector(blocks, true); err != nil {
		return err
	}
	return phase("transaction")
}

// stateWords reads s's flip-flop lane words through a probe simulator of
// the same netlist: CopyStateFrom adopts s's state, and the probe's next
// Eval presents each word on its flip-flop's output net.
func stateWords(nl *netlist.Netlist, s *netlist.Simulator) []uint64 {
	probe, err := netlist.NewSimulator(nl)
	if err != nil {
		panic(err)
	}
	if err := probe.CopyStateFrom(s); err != nil {
		panic(err)
	}
	probe.Eval()
	q := make([]uint64, len(nl.FFs))
	for i, ff := range nl.FFs {
		q[i] = probe.NetWord(ff.Q)
	}
	return q
}
