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

// twinPairs drives two lockstep pairs with identical calls: pair 0 has a
// shadow built by netlist.NewShadow, which reuses the primary's golden
// ROM gathers, and pair 1 has two independent simulators. After every
// Reset, Eval and Step it compares every net word of the two primaries
// and of the two shadows (the outputs among them), the comparators'
// MismatchMask and FirstMismatch on every lane, and the EDAC counters and
// tokens of every store, and keeps the first difference. Reads are served
// by pair 0. strike runs just before each Step, on both pairs alike.
//
// With base set, pair 0 was reconfigured in place (see reconfiguredPair)
// and pair 1 is freshly built: pair 0's stores then keep the read counters
// and token move count of their past, so the counters are compared as the
// deltas from base and the tokens by their view flags alone.
type twinPairs struct {
	nl     *netlist.Netlist
	pairs  [2]*VectorLockstep
	sims   [2][2]*netlist.Simulator // [pair][primary, shadow]
	steps  int
	strike func(step int, primary, shadow *netlist.Simulator)
	diff   error
	base   [2][]edac.Stats // [primary, shadow][ROM]: pair 0's counters when reconfigured
}

// tokenView keeps the flag bits of an edac.ROM token: bit 0 (a word is
// faulty) and bit 63 (a word decodes to a byte other than golden).
func tokenView(tok uint64) uint64 { return tok & (1 | 1<<63) }

func newTwinPairs(t *testing.T, nl *netlist.Netlist) *twinPairs {
	tp := &twinPairs{nl: nl}
	for p := range tp.sims {
		prim, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		var shadow *netlist.Simulator
		if p == 0 {
			shadow, err = netlist.NewShadow(prim)
		} else {
			shadow, err = netlist.NewSimulator(nl)
		}
		if err != nil {
			t.Fatal(err)
		}
		tp.sims[p] = [2]*netlist.Simulator{prim, shadow}
		tp.pairs[p] = NewVectorLockstep(prim, shadow)
	}
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
}

func (tp *twinPairs) Reset() {
	for _, p := range tp.pairs {
		p.Reset()
	}
	tp.check("Reset")
}

func (tp *twinPairs) Eval() {
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

// TestSharedShadowEquivalence is the equivalence fuzz of gather sharing: a
// lockstep pair whose shadow reuses the primary's golden ROM gathers must be
// indistinguishable, cycle by cycle, from a pair of independent simulators
// under the same primary faults. Each seeded round loads a random key and
// runs two 64-lane transactions of random blocks; before the first, one
// fault class is armed on both primaries: flip-flop upsets on random lanes
// (ScheduleFlipLanes), a transient ROM upset (FlipROMBit), a stuck ROM bit
// (StickROMBit), or a four-bit clean alias that turns a ROM word into
// another valid codeword, which decodes Clean to the wrong byte; one more
// class upsets the shadow's store instead, whose corrected reads the shadow
// must count itself. The second transaction runs on whatever damage is left.
// The alias must be detected: a shadow that took the aliased primary's
// gathers, trusting a clean token, would hide it.
func TestSharedShadowEquivalence(t *testing.T) {
	core, nl := buildEncryptCore(t)
	alias := edac.Encode(1) // weight four: XORed into a codeword, another valid one
	const classes = 6
	rounds := 4 * classes
	for round := 0; round < rounds; round++ {
		r := rand.New(rand.NewSource(int64(round)))
		tp := newTwinPairs(t, nl)
		key := make([]byte, 16)
		r.Read(key)
		f, err := bfm.NewKeyedFactory(core, key)
		if err != nil {
			t.Fatal(err)
		}
		drv, _, err := f.CloneVectorSim(tp)
		if err != nil {
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
			_, _, _ = drv.ProcessVector(blocks, true)
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
		if err := reconfiguredPair(core, nl, tp, key, r); err != nil {
			t.Fatalf("round %d (fault class %d): pair reconfigured in place differs from a fresh one %v", round, class, err)
		}
	}
}

// reconfiguredPair reconfigures tp's shared pair in place after its
// faulted run, as an engine respawn does (ClearFaults on both replicas,
// then Reset of the pair), and holds it against a freshly built
// NewSimulator+NewShadow pair: at once, then through a key load and a
// 64-lane transaction of random blocks, cycle by cycle as twinPairs
// checks, with every state word and every stored codeword compared after
// each phase. ClearFaults must come first: Reset re-applies a stuck
// flip-flop that is still installed.
func reconfiguredPair(core *rijndael.Core, nl *netlist.Netlist, tp *twinPairs, key []byte, r *rand.Rand) error {
	prim, shadow := tp.sims[0][0], tp.sims[0][1]
	prim.ClearFaults()
	shadow.ClearFaults()
	tp.pairs[0].Reset()
	fp, err := netlist.NewSimulator(nl)
	if err != nil {
		return err
	}
	fs, err := netlist.NewShadow(fp)
	if err != nil {
		return err
	}
	rt := &twinPairs{
		nl:    nl,
		pairs: [2]*VectorLockstep{tp.pairs[0], NewVectorLockstep(fp, fs)},
		sims:  [2][2]*netlist.Simulator{{prim, shadow}, {fp, fs}},
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
	if err := phase("reconfiguration"); err != nil {
		return err
	}
	f, err := bfm.NewKeyedFactory(core, key)
	if err != nil {
		return err
	}
	drv, _, err := f.CloneVectorSim(rt)
	if err != nil {
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
