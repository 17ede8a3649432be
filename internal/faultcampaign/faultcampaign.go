// Package faultcampaign is a deterministic, seedable fault-injection
// campaign engine over mapped netlists: the systematic counterpart of the
// paper's §6 pointer to a radiation-tolerant version of the IP (Panato et
// al., "Testing a Rijndael VHDL Description to Single Event Upsets").
//
// A campaign sweeps single-event upsets — and multi-bit upsets — across
// the (flip-flop × cycle) space of a device transaction, drives each
// faulted run through the bus-functional model, and classifies the
// outcome:
//
//   - SilentCorrect: the fault was masked; output correct, no alarm.
//   - Detected: a checker fired (lockstep divergence, protocol/latency
//     assertion) before the corrupted result could be consumed.
//   - Corrupted: wrong output with no alarm — silent data corruption,
//     the outcome hardening exists to eliminate.
//   - Hung: data_ok never rose; the BFM watchdog expired.
//
// The same engine measures what hardening buys: run it on the plain
// netlist, the TMR-hardened netlist (internal/tmr) and a lockstep pair
// (NewDevice) and compare masked/detected coverage against area.
package faultcampaign

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"rijndaelip/internal/aes"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/edac"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/rijndael"
)

// Outcome classifies one injected-fault trial.
type Outcome int

// Outcome classes, ordered from harmless to hazardous.
const (
	SilentCorrect Outcome = iota
	Detected
	Corrupted
	Hung
	numOutcomes
)

// String names the outcome class.
func (o Outcome) String() string {
	switch o {
	case SilentCorrect:
		return "silent-correct"
	case Detected:
		return "detected"
	case Corrupted:
		return "corrupted"
	case Hung:
		return "hung"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Fault is one injected upset: the listed flip-flops are inverted Cycle
// cycles after the block's load edge (several FFs = a multi-bit upset).
type Fault struct {
	Cycle int
	FFs   []int
}

// ROMFault is one stuck-at ROM injection for RunStuckAt: bit Bit of the
// EDAC codeword of word Word in ROM store ROM is welded to the inverse of
// its stored value.
type ROMFault struct {
	ROM  int
	Word int
	Bit  int
}

// Config describes a campaign.
type Config struct {
	// Netlist is the mapped device under test; Core supplies its Table 1
	// interface timing and capabilities. Both are required.
	Netlist *netlist.Netlist
	Core    *rijndael.Core

	// Key and Plaintext define the transaction each trial runs. Left nil,
	// the FIPS-197 Appendix B vector is used. Decrypt flips the direction
	// (Plaintext is then the block fed to din).
	Key       []byte
	Plaintext []byte
	Decrypt   bool

	// Trials is the number of sampled faults for Run (default 100); Seed
	// feeds the deterministic sampler. MultiBit sets how many distinct
	// flip-flops each upset strikes (default 1).
	Trials   int
	Seed     int64
	MultiBit int

	// Lockstep runs the DUT as a self-checking pair: a fault-free shadow
	// replica is stepped in lockstep and any divergence of the observable
	// outputs is a detection. AssertLatency additionally arms the BFM's
	// fixed-latency protocol assertion. Watchdog overrides the driver's
	// timeout budget in cycles (0 keeps bfm.Driver.Timeout's default,
	// 4×(BlockLatency+KeySetupCycles+2)).
	Lockstep      bool
	AssertLatency bool
	Watchdog      int

	// ClassifyPersistence arms the transient-vs-persistent breakdown:
	// after each trial group is classified, the same transaction is re-run
	// once with no new faults and the ROM stores are swept by a scrub
	// rewrite. A trial whose retry output is wrong or hung — or whose ROM
	// damage survives the scrub — is Persistent (the device stays sick and
	// needs repair); every other trial Recovered (the upset washed out, or
	// never had an effect to begin with). This mirrors the engine
	// supervisor's triage retry, so campaign numbers predict how often
	// triage will save a shard from quarantine.
	ClassifyPersistence bool
}

// Trial is one classified injection.
type Trial struct {
	Fault   Fault
	Outcome Outcome
	// Err holds the driver's error for Detected/Hung outcomes (wraps
	// bfm.ErrTimeout or bfm.ErrLatency).
	Err error
	// ROM identifies the stuck-at injection for RunStuckAt trials (nil for
	// flip-flop campaigns; Fault is then the zero value).
	ROM *ROMFault
	// Persistent is the triage verdict when Config.ClassifyPersistence is
	// set: the strike-free retry came back wrong or hung, or the ROM
	// damage survived a scrub rewrite. False otherwise (and always false
	// when the breakdown is not armed).
	Persistent bool
}

// Result aggregates a campaign.
type Result struct {
	Trials []Trial
	Counts [numOutcomes]int
	// FFs and Cycles bound the swept (flip-flop × cycle) space.
	FFs    int
	Cycles int
	// Classified reports whether the transient-vs-persistent breakdown
	// ran; Recovered + Persistent then partition the trials.
	Classified bool
	Recovered  int
	Persistent int
}

// Count returns how many trials landed in the class.
func (r *Result) Count(o Outcome) int { return r.Counts[o] }

// Fraction returns the share of trials in the class (0 when no trials ran).
func (r *Result) Fraction(o Outcome) float64 {
	if len(r.Trials) == 0 {
		return 0
	}
	return float64(r.Counts[o]) / float64(len(r.Trials))
}

// Masked is the masked-fault coverage: the fraction of injected faults the
// architecture absorbed with no visible effect.
func (r *Result) Masked() float64 { return r.Fraction(SilentCorrect) }

// Coverage is the safety coverage: the fraction of faults that did NOT
// escape as silent data corruption (masked, detected, or safely hung
// behind the watchdog).
func (r *Result) Coverage() float64 {
	if len(r.Trials) == 0 {
		return 0
	}
	return 1 - r.Fraction(Corrupted)
}

func (r *Result) String() string {
	s := fmt.Sprintf("%d trials over %d FFs x %d cycles: %d silent-correct, %d detected, %d corrupted, %d hung (coverage %.1f%%)",
		len(r.Trials), r.FFs, r.Cycles,
		r.Counts[SilentCorrect], r.Counts[Detected], r.Counts[Corrupted], r.Counts[Hung],
		100*r.Coverage())
	if r.Classified {
		s += fmt.Sprintf("; %d recovered, %d persistent", r.Recovered, r.Persistent)
	}
	return s
}

// fips197Key / fips197Plaintext are the Appendix B example vector, the
// default transaction of a campaign.
var (
	fips197Key = []byte{
		0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	fips197Plaintext = []byte{
		0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
		0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}
)

// Run samples cfg.Trials faults uniformly over the (flip-flop × cycle)
// space with the seeded generator and returns the classified outcomes.
// Identical configs produce identical campaigns on every run.
func Run(cfg Config) (*Result, error) {
	c, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 100
	}
	width := cfg.MultiBit
	if width <= 0 {
		width = 1
	}
	if width > c.nFFs {
		return nil, fmt.Errorf("faultcampaign: multi-bit width %d exceeds %d flip-flops", width, c.nFFs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	faults := make([]Fault, trials)
	for i := range faults {
		ffs := make([]int, 0, width)
		seen := make(map[int]bool, width)
		for len(ffs) < width {
			f := rng.Intn(c.nFFs)
			if !seen[f] {
				seen[f] = true
				ffs = append(ffs, f)
			}
		}
		faults[i] = Fault{Cycle: rng.Intn(c.cycles), FFs: ffs}
	}
	return c.run(faults)
}

// Sweep runs the exhaustive single-bit campaign: every flip-flop struck at
// every cycle of the transaction, FFs × BlockLatency trials in total.
func Sweep(cfg Config) (*Result, error) {
	c, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	faults := make([]Fault, 0, c.nFFs*c.cycles)
	for ff := 0; ff < c.nFFs; ff++ {
		for cyc := 0; cyc < c.cycles; cyc++ {
			faults = append(faults, Fault{Cycle: cyc, FFs: []int{ff}})
		}
	}
	return c.run(faults)
}

// RunFaults runs an explicit, caller-chosen fault list (targeted
// campaigns: named registers, replica pairs, FSM cells).
func RunFaults(cfg Config, faults []Fault) (*Result, error) {
	c, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return c.run(faults)
}

// RunStuckAt runs a targeted stuck-at ROM campaign: one trial per fault,
// each on a device cleared of the previous trial's damage. ROM contents
// are shared physical memory, not lane-resolved, so ROM trials cannot
// ride simulation lanes the way flip-flop upsets do — each fault gets its
// own scalar transaction. The transient-vs-persistent breakdown is always
// armed: a stuck bit the EDAC code masks end to end still classifies
// Persistent, because the damage survives the scrub rewrite (this is
// exactly the fault class only the engine's ROM scrub can see).
func RunStuckAt(cfg Config, faults []ROMFault) (*Result, error) {
	cfg.ClassifyPersistence = true
	c, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	res := c.newResult(len(faults))
	for i := range faults {
		f := faults[i]
		if f.ROM < 0 || f.ROM >= c.dev.Primary.NumROMs() {
			return nil, fmt.Errorf("faultcampaign: ROM %d out of range [0,%d)", f.ROM, c.dev.Primary.NumROMs())
		}
		if f.Word < 0 || f.Word >= edac.Words || f.Bit < 0 || f.Bit >= edac.CodeBits {
			return nil, fmt.Errorf("faultcampaign: ROM word %d bit %d out of range (%dx%d)", f.Word, f.Bit, edac.Words, edac.CodeBits)
		}
		c.dev.Primary.ClearFaults()
		store := c.dev.Primary.ROMStore(f.ROM)
		c.dev.Primary.StickROMBit(f.ROM, f.Word, f.Bit, !store.CodewordBit(f.Word, f.Bit))
		trials, err := c.runGroup([]Fault{{}})
		if err != nil {
			return nil, err
		}
		trials[0].ROM = &faults[i]
		res.add(trials[0])
	}
	return res, nil
}

// campaign is the prepared runtime state shared by all trials: one device
// (a lockstep pair under Config.Lockstep) and one golden output.
// Trials run 64 at a time: the simulator's lanes each carry one fault
// scenario, so a whole group of injections shares a single transaction's
// sweeps (see internal/logic/lanes.go for the lane model).
type campaign struct {
	cfg    Config
	dev    *Device
	key    []byte
	blocks [][]byte // Lanes copies of the transaction's din block
	golden []byte
	nFFs   int
	cycles int
}

func newCampaign(cfg Config) (*campaign, error) {
	if cfg.Netlist == nil || cfg.Core == nil {
		return nil, errors.New("faultcampaign: Config.Netlist and Config.Core are required")
	}
	if cfg.Decrypt && cfg.Core.Config.Variant == rijndael.Encrypt {
		return nil, errors.New("faultcampaign: encrypt-only core cannot run a decrypt campaign")
	}
	if !cfg.Decrypt && cfg.Core.Config.Variant == rijndael.Decrypt {
		return nil, errors.New("faultcampaign: decrypt-only core cannot run an encrypt campaign")
	}
	dev, err := NewDevice(cfg.Core, cfg.Netlist, cfg.Lockstep)
	if err != nil {
		return nil, fmt.Errorf("faultcampaign: %w", err)
	}
	dev.Driver.AssertLatency = cfg.AssertLatency
	if cfg.Watchdog > 0 {
		dev.Driver.Timeout = cfg.Watchdog
	}
	key, pt := cfg.Key, cfg.Plaintext
	if key == nil {
		key = fips197Key
	}
	if pt == nil {
		pt = fips197Plaintext
	}
	ref, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("faultcampaign: golden model: %w", err)
	}
	golden := make([]byte, 16)
	if cfg.Decrypt {
		ref.Decrypt(golden, pt)
	} else {
		ref.Encrypt(golden, pt)
	}
	blocks := make([][]byte, bfm.Lanes)
	for i := range blocks {
		blocks[i] = pt
	}
	return &campaign{
		cfg: cfg, dev: dev,
		key: key, blocks: blocks, golden: golden,
		nFFs:   dev.Primary.NumFFs(),
		cycles: cfg.Core.BlockLatency,
	}, nil
}

// run executes and classifies the faults in lane groups of up to 64: each
// fault rides its own simulation lane, so one transaction's sweeps carry a
// whole group of independent fault scenarios. The simulator is reset
// between groups (cheaper than rebuilding, and scheduled upsets are
// dropped by Reset); lanes never couple inside the simulator, so each
// trial's trajectory is bit-exactly the trajectory a dedicated scalar
// transaction would have produced.
func (c *campaign) run(faults []Fault) (*Result, error) {
	res := c.newResult(len(faults))
	for _, f := range faults {
		for _, ff := range f.FFs {
			if ff < 0 || ff >= c.nFFs {
				return nil, fmt.Errorf("faultcampaign: flip-flop %d out of range [0,%d)", ff, c.nFFs)
			}
		}
	}
	for lo := 0; lo < len(faults); lo += bfm.Lanes {
		hi := min(lo+bfm.Lanes, len(faults))
		trials, err := c.runGroup(faults[lo:hi])
		if err != nil {
			return nil, err
		}
		for _, t := range trials {
			res.add(t)
		}
	}
	return res, nil
}

// newResult returns an empty result for n trials of this campaign.
func (c *campaign) newResult(n int) *Result {
	return &Result{
		Trials:     make([]Trial, 0, n),
		FFs:        c.nFFs,
		Cycles:     c.cycles,
		Classified: c.cfg.ClassifyPersistence,
	}
}

// add tallies one classified trial.
func (r *Result) add(t Trial) {
	r.Trials = append(r.Trials, t)
	r.Counts[t.Outcome]++
	switch {
	case !r.Classified:
	case t.Persistent:
		r.Persistent++
	default:
		r.Recovered++
	}
}

// runGroup pushes one driver transaction with up to 64 armed faults —
// fault i struck on lane i only — and classifies every lane. All stimulus
// is the same on every lane (same key, same block), so lanes differ
// solely by their injected upset. Completion is tracked per lane: a fault
// that corrupts the control FSM delays or wedges only its own lane's
// data_ok.
func (c *campaign) runGroup(group []Fault) ([]Trial, error) {
	if err := c.dev.Key(c.key); err != nil {
		return nil, fmt.Errorf("faultcampaign: load key: %w", err)
	}
	for lane, f := range group {
		if len(f.FFs) == 0 {
			continue // ROM-only trial: the stuck-at is already applied
		}
		// The driver's load edge is one Step away; processing cycle n of
		// the transaction is Step 1+n from here.
		c.dev.Primary.ScheduleFlipLanes(1+f.Cycle, 1<<uint(lane), f.FFs...)
	}
	if c.dev.Lockstep != nil {
		c.dev.Lockstep.ClearMismatch() // count edges from the load edge on
	}
	var tx bfm.Transaction
	if err := c.dev.Driver.Transact(&tx, c.blocks[:len(group)], !c.cfg.Decrypt); err != nil {
		return nil, err
	}
	trials := make([]Trial, len(group))
	for lane, f := range group {
		t := Trial{Fault: f, Err: c.dev.Driver.LaneErr(&tx, lane)}
		// A wedged handshake is Hung; a tripped checker (latency
		// assertion or lockstep divergence) is Detected; then the payload
		// decides between masked and silent corruption.
		switch {
		case errors.Is(t.Err, bfm.ErrTimeout):
			t.Outcome = Hung
		case t.Err != nil || c.diverged(&tx, lane):
			t.Outcome = Detected
		case bytes.Equal(tx.Outs[lane], c.golden):
			t.Outcome = SilentCorrect
		default:
			t.Outcome = Corrupted
		}
		trials[lane] = t
	}
	if c.cfg.ClassifyPersistence {
		if err := c.classifyPersistence(trials); err != nil {
			return nil, err
		}
	}
	return trials, nil
}

// diverged reports whether lane's outputs left the shadow's on or before
// the Eval that captured its data_ok: the lane's edge count from the load
// edge (one edge) plus its latency. Divergence after the capture cannot
// have reached the consumed result, so it does not count.
func (c *campaign) diverged(tx *bfm.Transaction, lane int) bool {
	if c.dev.Lockstep == nil {
		return false
	}
	cyc, ok := c.dev.Lockstep.FirstMismatch(lane)
	return ok && cyc <= 1+tx.Latency[lane]
}

// classifyPersistence runs the triage retry over a just-classified group:
// the same transaction once more, with no new faults, on the state the
// upsets left behind (no reset — resetting would wash out exactly the
// corruption whose persistence is in question). A lane whose retry fails
// to reproduce the golden block — or any ROM damage that survives a full
// scrub sweep — marks its trial Persistent. Lanes whose first transaction
// wedged the FSM typically stay wedged; lanes whose corruption washed out
// (state reloaded from din, diverged bits overwritten) come back golden.
func (c *campaign) classifyPersistence(trials []Trial) error {
	var tx bfm.Transaction
	if err := c.dev.Driver.Transact(&tx, c.blocks[:len(trials)], !c.cfg.Decrypt); err != nil {
		return err
	}
	// ROM stores are shared by every lane, so residual memory damage makes
	// the whole group persistent (in practice ROM campaigns run scalar
	// groups, so the ambiguity never bites).
	residual := false
	for ri := 0; ri < c.dev.Primary.NumROMs(); ri++ {
		store := c.dev.Primary.ROMStore(ri)
		if store.FaultyWords() == 0 {
			continue
		}
		for w := 0; w < edac.Words; w++ {
			store.Scrub(w)
		}
		if store.FaultyWords() > 0 {
			residual = true
		}
	}
	for lane := range trials {
		trials[lane].Persistent = residual || !bytes.Equal(tx.Outs[lane], c.golden)
	}
	return nil
}
