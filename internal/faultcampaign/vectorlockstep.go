package faultcampaign

import (
	"math/bits"

	"rijndaelip/internal/bfm"
	"rijndaelip/internal/lanesim"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/rijndael"
)

// Device is one post-synthesis instance of the IP behind its Table 1 bus:
// a driver over a simulation of the mapped netlist or, with lockstep, over
// a VectorLockstep of that primary and its fault-free NewShadow twin.
type Device struct {
	Driver   *bfm.Driver
	Primary  *netlist.Simulator
	Shadow   *netlist.Simulator // nil unless lockstep
	Lockstep *VectorLockstep    // comparator over Primary and Shadow; nil unless lockstep
}

// NewDevice builds an unkeyed device of core's mapped netlist nl, paired
// with a shadow twin when lockstep is set.
func NewDevice(core *rijndael.Core, nl *netlist.Netlist, lockstep bool) (*Device, error) {
	prim, err := netlist.NewSimulator(nl)
	if err != nil {
		return nil, err
	}
	d := &Device{Primary: prim}
	var sim bfm.Sim = prim
	if lockstep {
		if d.Shadow, err = netlist.NewShadow(prim); err != nil {
			return nil, err
		}
		d.Lockstep = NewVectorLockstep(prim, d.Shadow)
		sim = d.Lockstep
	}
	d.Driver = bfm.NewPostSynthesis(core, sim)
	return d, nil
}

// Key puts the device into its power-up state (a lockstep pair's Reset
// also re-arms the comparator) and runs the key-load sequence on every
// lane. Installed faults stay: Reset re-applies a stuck flip-flop.
func (d *Device) Key(key []byte) error {
	d.Driver.Reset()
	_, err := d.Driver.LoadKey(key)
	return err
}

// Reconfigure rewrites the device in place, as a partially reconfigurable
// FPGA rewrites the region that holds the core: it clears every installed
// fault from both replicas (first, since Reset re-applies a stuck
// flip-flop), then keys the device. The EDAC stores keep their counters.
func (d *Device) Reconfigure(key []byte) error {
	d.Primary.ClearFaults()
	if d.Shadow != nil {
		d.Shadow.ClearFaults()
	}
	return d.Key(key)
}

// VectorLockstep couples a primary simulation with an independent shadow
// replica of the same design, stepped cycle-for-cycle with identical
// inputs — the narrowbus coupler idiom turned into a self-checking safety
// mechanism (dual modular redundancy). The observable ports data_ok and
// dout of the two replicas are compared lane by lane after each Eval and
// Step that may have moved them, accumulating a mask of diverged lanes
// and the cycle each lane first diverged. The per-lane evidence matters:
// a supervised engine packing independent blocks onto the lanes needs to
// know *which* jobs rode corrupted state, a fault campaign needs to know
// *when* each trial's upset became visible, and a fault that strikes lane
// L must never be masked by an earlier divergence on lane K.
//
// Faults are injected into the primary only (the shadow is the fault-free
// reference), so any set bit in the mismatch mask is a detection the cycle
// the upset becomes visible on an output. VectorLockstep implements
// bfm.Sim, so the driver can treat the pair as a single device: inputs
// reach both replicas, outputs are read from the primary.
//
// When the shadow is the primary's netlist.NewShadow twin (every Device's
// pair), the pair runs as a lanesim.Pair: only the primary is driven and
// the shadow takes its stimulus before its own Eval or Step, and the
// compare reads the two machines' value words in place and is skipped
// when neither replica moved since the last one. Any other two replicas
// are both driven and compared through OutputWords after every Eval and
// Step. Both ways find the same mask and the same first cycles.
type VectorLockstep struct {
	Primary bfm.Sim
	Shadow  bfm.Sim

	twin  *lanesim.Pair // nil unless Shadow is Primary's NewShadow twin
	cycle int
	mask  uint64
	first [bfm.Lanes]int
	// compares and skips count the compares run and skipped since
	// construction: their sum is the pair's Evals and Steps.
	compares, skips int
}

// observables are the Table 1 outputs the pair compares.
var observables = []string{"data_ok", "dout"}

// NewVectorLockstep pairs a primary lane-parallel simulation with its
// fault-free shadow replica.
func NewVectorLockstep(primary, shadow bfm.Sim) *VectorLockstep {
	l := &VectorLockstep{Primary: primary, Shadow: shadow}
	p, ok1 := primary.(*netlist.Simulator)
	s, ok2 := shadow.(*netlist.Simulator)
	if ok1 && ok2 {
		l.twin = lanesim.NewPair(p.Machine, s.Machine, observables...)
	}
	return l
}

// MismatchMask returns the accumulated mask of lanes on which data_ok or
// dout has ever diverged since the last Reset (or ClearMismatch).
func (l *VectorLockstep) MismatchMask() uint64 { return l.mask }

// FirstMismatch reports whether lane has diverged since the comparator
// was last armed (Reset or ClearMismatch), and if so after how many clock
// edges since arming the comparator first saw it.
func (l *VectorLockstep) FirstMismatch(lane int) (cycle int, ok bool) {
	return l.first[lane], l.mask>>uint(lane)&1 != 0
}

// ClearMismatch rearms the comparator without resetting the replicas:
// the mismatch mask is cleared, the edge count restarts at zero, and the
// next Eval or Step compares.
func (l *VectorLockstep) ClearMismatch() {
	l.mask = 0
	l.cycle = 0
	if l.twin != nil {
		l.twin.Rearm()
	}
}

// compare accumulates the diverged-lane mask over the Table 1
// observables, data_ok and dout.
func (l *VectorLockstep) compare() {
	var d uint64
	if l.twin != nil {
		var ran bool
		if d, ran = l.twin.Diverged(); !ran {
			l.skips++
			return
		}
	} else {
		for _, port := range observables {
			d |= l.diverged(port)
		}
	}
	l.compares++
	for fresh := d &^ l.mask; fresh != 0; fresh &= fresh - 1 {
		l.first[bits.TrailingZeros64(fresh)] = l.cycle
	}
	l.mask |= d
}

// diverged returns the lanes on which port differs between two replicas
// that are not a twin pair; a port either replica lacks compares equal.
// Both reads are the replicas' own buffers, so the compare allocates
// nothing.
func (l *VectorLockstep) diverged(port string) uint64 {
	pw, err1 := l.Primary.OutputWords(port)
	sw, err2 := l.Shadow.OutputWords(port)
	if err1 != nil || err2 != nil {
		return 0
	}
	var d uint64
	for i := range pw {
		d |= pw[i] ^ sw[i]
	}
	return d
}

// Reset resets both replicas and clears the comparator.
func (l *VectorLockstep) Reset() {
	l.Primary.Reset()
	l.Shadow.Reset()
	l.ClearMismatch()
}

// SetInput drives the pair with the same value on every lane.
func (l *VectorLockstep) SetInput(name string, value uint64) error {
	if err := l.Primary.SetInput(name, value); err != nil || l.twin != nil {
		return err
	}
	return l.Shadow.SetInput(name, value)
}

// SetInputBits drives the pair with the same bits on every lane.
func (l *VectorLockstep) SetInputBits(name string, bits []byte) error {
	if err := l.Primary.SetInputBits(name, bits); err != nil || l.twin != nil {
		return err
	}
	return l.Shadow.SetInputBits(name, bits)
}

// SetInputLane drives one lane of the pair.
func (l *VectorLockstep) SetInputLane(name string, lane int, value uint64) error {
	if err := l.Primary.SetInputLane(name, lane, value); err != nil || l.twin != nil {
		return err
	}
	return l.Shadow.SetInputLane(name, lane, value)
}

// SetInputBitsLane drives one lane of the pair.
func (l *VectorLockstep) SetInputBitsLane(name string, lane int, bits []byte) error {
	if err := l.Primary.SetInputBitsLane(name, lane, bits); err != nil || l.twin != nil {
		return err
	}
	return l.Shadow.SetInputBitsLane(name, lane, bits)
}

// takeStimulus hands a twin shadow the primary's stimulus before the
// shadow evaluates; other shadows were driven themselves.
func (l *VectorLockstep) takeStimulus() {
	if l.twin != nil {
		l.twin.TakeStimulus()
	}
}

// Eval evaluates both replicas and runs the lane comparator, so a
// divergence is caught even between clock edges.
func (l *VectorLockstep) Eval() {
	l.takeStimulus()
	l.Primary.Eval()
	l.Shadow.Eval()
	l.compare()
}

// Step advances both replicas one clock cycle and compares the freshly
// latched observable state.
func (l *VectorLockstep) Step() {
	l.takeStimulus()
	l.Primary.Step()
	l.Shadow.Step()
	l.cycle++
	l.Primary.Eval()
	l.Shadow.Eval()
	l.compare()
}

// Output reads the primary replica.
func (l *VectorLockstep) Output(name string) (uint64, error) { return l.Primary.Output(name) }

// OutputBits reads the primary replica.
func (l *VectorLockstep) OutputBits(name string) ([]byte, error) { return l.Primary.OutputBits(name) }

// OutputLane reads one lane of the primary replica.
func (l *VectorLockstep) OutputLane(name string, lane int) (uint64, error) {
	return l.Primary.OutputLane(name, lane)
}

// OutputBitsLane reads one lane of the primary replica.
func (l *VectorLockstep) OutputBitsLane(name string, lane int) ([]byte, error) {
	return l.Primary.OutputBitsLane(name, lane)
}

// OutputWords reads the primary replica's lane words. The slice is the
// primary's own buffer, so like any Sim's it is valid until the pair's
// next Eval, Step or OutputWords call.
func (l *VectorLockstep) OutputWords(name string) ([]uint64, error) {
	return l.Primary.OutputWords(name)
}

// RegValue reads the primary replica (the BFM peeks din_reg occupancy
// through this during streaming).
func (l *VectorLockstep) RegValue(name string) ([]byte, bool) { return l.Primary.RegValue(name) }
