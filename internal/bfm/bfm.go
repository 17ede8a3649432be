// Package bfm is a bus-functional model for the Rijndael IP: it drives the
// device interface of Table 1 (setup/wr_key/wr_data/din/encdec), watches
// data_ok/dout, and measures the protocol timing (latency in cycles,
// sustained throughput) the way the paper's evaluation does. It works
// against the cycle-accurate RTL simulator of a generated core.
package bfm

import (
	"errors"
	"fmt"

	"rijndaelip/internal/rijndael"
)

// Sim is the simulator surface the driver needs. Both the RTL-level
// simulator (rtl.Simulator) and the post-synthesis netlist simulator
// (netlist.Simulator) satisfy it, so the same bus-functional model signs
// off the design before and after technology mapping. In both
// implementations the S-box ROM reads behind this surface go through
// per-simulator EDAC stores (internal/edac): a single-bit ROM storage
// error is corrected transparently, so the driver sees golden data until
// damage exceeds what the code covers.
type Sim interface {
	Reset()
	SetInput(name string, value uint64) error
	SetInputBits(name string, bits []byte) error
	Eval()
	Step()
	Output(name string) (uint64, error)
	OutputBits(name string) ([]byte, error)
	RegValue(name string) ([]byte, bool)
}

// DUT describes any device under test exposing the paper's Table 1
// interface (the Rijndael IP itself or one of the baseline
// architectures).
type DUT struct {
	Sim            Sim
	BlockLatency   int
	KeySetupCycles int
	HasEncrypt     bool
	HasDecrypt     bool
	HasEncDecPin   bool
	Name           string
}

// Driver drives one simulated device.
type Driver struct {
	DUT DUT
	Sim Sim

	// Timeout bounds, in cycles, how long Driver waits for data_ok before
	// reporting a protocol error. Defaults to 4x the block latency. This is
	// the watchdog that keeps a wedged FSM (a fault that kills the
	// completion handshake) from hanging the caller forever.
	Timeout int

	// AssertLatency arms the fixed-latency protocol assertion: the paper's
	// core completes in exactly BlockLatency cycles, so a data_ok that
	// rises early or late is evidence of a corrupted control FSM even when
	// the payload happens to look plausible. Process then returns
	// ErrLatency alongside the (suspect) output.
	AssertLatency bool
}

// New builds a fresh simulator for a Rijndael IP core and returns a
// driver. The RTL simulation runs the design's compiled instruction tape.
func New(core *rijndael.Core) *Driver {
	return newCore(core, core.Design.NewSimulator(), core.Design.Name)
}

// newCore returns a driver for the core's Table 1 interface over sim.
func newCore(core *rijndael.Core, sim Sim, name string) *Driver {
	return NewDUT(DUT{
		Sim:            sim,
		BlockLatency:   core.BlockLatency,
		KeySetupCycles: core.KeySetupCycles,
		HasEncrypt:     core.Config.Variant != rijndael.Decrypt,
		HasDecrypt:     core.Config.Variant != rijndael.Encrypt,
		HasEncDecPin:   core.Config.Variant == rijndael.Both,
		Name:           name,
	})
}

// NewDUT returns a driver over an arbitrary device with the Table 1
// interface.
func NewDUT(dut DUT) *Driver {
	return &Driver{
		DUT:     dut,
		Sim:     dut.Sim,
		Timeout: 4 * (dut.BlockLatency + dut.KeySetupCycles + 2),
	}
}

// Reset puts the device back into its power-up state.
func (d *Driver) Reset() {
	d.Sim.Reset()
}

func (d *Driver) clearControl() {
	d.Sim.SetInput("setup", 0)
	d.Sim.SetInput("wr_data", 0)
	d.Sim.SetInput("wr_key", 0)
}

// LoadKey performs the configuration sequence: raise setup and wr_key with
// the key on din (one 128-bit beat, or two beats low-half-first for a
// 256-bit key on an AES-256 core), then run the key-setup walk to
// completion (10 cycles for the decrypt-capable variants, 0 for
// encrypt-only). It returns the number of cycles consumed.
func (d *Driver) LoadKey(key []byte) (int, error) {
	if len(key) != 16 && len(key) != 32 {
		return 0, fmt.Errorf("bfm: key must be 16 or 32 bytes, got %d", len(key))
	}
	cycles := 0
	for beat := 0; beat < len(key)/16; beat++ {
		d.clearControl()
		d.Sim.SetInput("setup", 1)
		d.Sim.SetInput("wr_key", 1)
		if err := d.Sim.SetInputBits("din", key[16*beat:16*beat+16]); err != nil {
			return 0, err
		}
		d.Sim.Step()
		cycles++
	}
	d.clearControl()
	for i := 0; i < d.DUT.KeySetupCycles; i++ {
		d.Sim.Step()
		cycles++
	}
	return cycles, nil
}

// ErrTimeout is returned when data_ok never rises within the watchdog
// budget. Returned errors wrap it; match with errors.Is.
var ErrTimeout = errors.New("bfm: timeout waiting for data_ok")

// ErrLatency is returned by Process when AssertLatency is set and data_ok
// rose at a cycle count other than the device's fixed block latency.
// Returned errors wrap it; match with errors.Is.
var ErrLatency = errors.New("bfm: data_ok at unexpected latency")

// encdecFor maps an operation direction onto the encdec input value.
func (d *Driver) setDirection(encrypt bool) error {
	if encrypt && !d.DUT.HasEncrypt {
		return fmt.Errorf("bfm: %s cannot encrypt", d.DUT.Name)
	}
	if !encrypt && !d.DUT.HasDecrypt {
		return fmt.Errorf("bfm: %s cannot decrypt", d.DUT.Name)
	}
	if !d.DUT.HasEncDecPin {
		return nil
	}
	v := uint64(0)
	if encrypt {
		v = 1
	}
	return d.Sim.SetInput("encdec", v)
}

// Process pushes one block through the device and waits for the result.
// It returns the output block and the latency in clock cycles from the
// wr_data edge to the first cycle data_ok is observed high.
func (d *Driver) Process(block []byte, encrypt bool) ([]byte, int, error) {
	if len(block) != 16 {
		return nil, 0, fmt.Errorf("bfm: block must be 16 bytes, got %d", len(block))
	}
	if err := d.setDirection(encrypt); err != nil {
		return nil, 0, err
	}
	d.clearControl()
	d.Sim.SetInput("wr_data", 1)
	if err := d.Sim.SetInputBits("din", block); err != nil {
		return nil, 0, err
	}
	d.Sim.Step() // load edge
	d.clearControl()
	cycles := 0
	for {
		d.Sim.Eval()
		ok, err := d.Sim.Output("data_ok")
		if err != nil {
			return nil, 0, err
		}
		if ok == 1 {
			out, err := d.Sim.OutputBits("dout")
			if err != nil {
				return nil, 0, err
			}
			if d.AssertLatency && d.DUT.BlockLatency > 0 && cycles != d.DUT.BlockLatency {
				return out, cycles, fmt.Errorf("%w: data_ok after %d cycles, expected %d on %s",
					ErrLatency, cycles, d.DUT.BlockLatency, d.DUT.Name)
			}
			return out, cycles, nil
		}
		if cycles >= d.Timeout {
			return nil, cycles, fmt.Errorf("%w: watchdog expired after %d cycles on %s",
				ErrTimeout, cycles, d.DUT.Name)
		}
		d.Sim.Step()
		cycles++
	}
}

// Encrypt processes one block in the encrypt direction.
func (d *Driver) Encrypt(block []byte) ([]byte, int, error) { return d.Process(block, true) }

// Decrypt processes one block in the decrypt direction.
func (d *Driver) Decrypt(block []byte) ([]byte, int, error) { return d.Process(block, false) }

// StreamResult reports the outcome of a streaming run.
//
// Cycle-accounting boundary: a stream is measured from the cycle its first
// wr_data could be issued (cycle 0) up to and including the cycle the last
// result was captured off dout. The driver steps the device one further
// bookkeeping cycle after the final capture before returning; that cycle
// overlaps the next transaction's issue window, so summing TotalCycles over
// consecutive streams accounts each stream's drain exactly once and never
// undercounts the cycles spent producing the final block.
type StreamResult struct {
	Blocks int
	// TotalCycles is the count from cycle 0 of the stream to the cycle the
	// last result was captured (see the boundary definition above).
	TotalCycles int
	// PipeFillCycles is the cycle index at which the first result was
	// captured: the one-time fill of the decoupled Data-In/Rijndael
	// pipeline. It is paid once per stream, not once per block.
	PipeFillCycles int
	// CyclesPerBlock is the steady-state sustained rate: the cycles between
	// the first and last captured results divided by the blocks that
	// arrived in that window. The one-time pipe fill is excluded, so the
	// figure is comparable across stream lengths (a 5-block and a 500-block
	// stream of the same device report the same steady-state rate). For a
	// single-block stream it degenerates to TotalCycles.
	CyclesPerBlock float64
}

// Stream pushes a sequence of blocks through the device back to back,
// issuing the next wr_data as soon as the device will accept it (the
// decoupled Data In process lets a load overlap processing). Outputs are
// collected from data_ok edges. All blocks run in the same direction.
func (d *Driver) Stream(blocks [][]byte, encrypt bool) ([][]byte, StreamResult, error) {
	if err := d.setDirection(encrypt); err != nil {
		return nil, StreamResult{}, err
	}
	var outs [][]byte
	res := StreamResult{}
	issued := 0
	// data_ok may still be high from a previous transaction; only a rising
	// edge after this stream's own loads signals a fresh result.
	d.Sim.Eval()
	prevOk, err := d.Sim.Output("data_ok")
	if err != nil {
		return nil, res, err
	}
	guard := d.Timeout * (len(blocks) + 1)
	for cycles := 0; len(outs) < len(blocks); cycles++ {
		if cycles > guard {
			return outs, res, fmt.Errorf("%w: stream watchdog expired after %d cycles on %s",
				ErrTimeout, cycles, d.DUT.Name)
		}
		// The decoupled Data In process buffers exactly one block: issue the
		// next wr_data whenever din_reg is free (pending flag clear).
		d.clearControl()
		if issued < len(blocks) && !d.pendingSet() {
			d.Sim.SetInput("wr_data", 1)
			if err := d.Sim.SetInputBits("din", blocks[issued]); err != nil {
				return outs, res, err
			}
			issued++
		}
		d.Sim.Eval()
		ok, err := d.Sim.Output("data_ok")
		if err != nil {
			return outs, res, err
		}
		if ok == 1 && prevOk == 0 {
			out, err := d.Sim.OutputBits("dout")
			if err != nil {
				return outs, res, err
			}
			if len(outs) == 0 {
				res.PipeFillCycles = cycles
			}
			outs = append(outs, out)
			res.TotalCycles = cycles
		}
		prevOk = ok
		d.Sim.Step()
	}
	res.Blocks = len(outs)
	if res.Blocks > 1 {
		res.CyclesPerBlock = float64(res.TotalCycles-res.PipeFillCycles) / float64(res.Blocks-1)
	} else if res.Blocks == 1 {
		res.CyclesPerBlock = float64(res.TotalCycles)
	}
	return outs, res, nil
}

// pendingSet peeks the device's din_reg occupancy flag. The BFM is a
// testbench, so observing an internal register models the "bus permission"
// the data_ok pin grants in a real deployment.
func (d *Driver) pendingSet() bool {
	v, ok := d.Sim.RegValue("pending")
	return ok && v[0]&1 != 0
}

// KeyedFactory stamps out independent, identically-keyed drivers over
// fresh simulations of the same core. Each clone owns its own simulator
// state, so clones can process blocks concurrently from separate
// goroutines — this is the building block a sharded engine uses to
// replicate the paper's IP behind a scheduler.
type KeyedFactory struct {
	core *rijndael.Core
	key  []byte
}

// NewKeyedFactory validates the key against the bus protocol (16 bytes, or
// 32 for the AES-256 extension core) and returns a factory for keyed
// drivers of the core.
func NewKeyedFactory(core *rijndael.Core, key []byte) (*KeyedFactory, error) {
	if len(key) != 16 && len(key) != 32 {
		return nil, fmt.Errorf("bfm: key must be 16 or 32 bytes, got %d", len(key))
	}
	return &KeyedFactory{core: core, key: append([]byte(nil), key...)}, nil
}

// Clone builds a fresh cycle-accurate simulation of the core, runs the key
// load and setup walk over the bus, and returns the ready-to-process
// driver together with the key-setup cycles it spent.
func (f *KeyedFactory) Clone() (*Driver, int, error) {
	d := New(f.core)
	cycles, err := d.LoadKey(f.key)
	if err != nil {
		return nil, 0, err
	}
	return d, cycles, nil
}

// NewPostSynthesis returns a driver over a post-synthesis simulation: the
// technology-mapped netlist of the core is simulated gate by gate instead
// of the RTL. This is the flow's sign-off check — the same vectors must
// come back from the mapped design.
func NewPostSynthesis(core *rijndael.Core, sim Sim) *Driver {
	return newCore(core, sim, core.Design.Name+"(mapped)")
}
