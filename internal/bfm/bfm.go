// Package bfm is a bus-functional model for the Rijndael IP: it drives the
// device interface of Table 1 (setup/wr_key/wr_data/din/encdec), watches
// data_ok/dout, and measures the protocol timing (latency in cycles,
// sustained throughput) the way the paper's evaluation does. It drives any
// Sim: the simulator of the technology-mapped netlist, which every engine
// shard and fault campaign runs, or the cycle-accurate RTL simulator of a
// generated core.
//
// Allocation budget. Like the paper's IP, which moves every block through
// fixed din/dout registers, a data transaction creates nothing but its
// result. Transact records a transaction in a caller-owned Transaction
// and reuses that record's arrays, so a record reused at no more lanes
// than before makes 0 allocations per transaction; its Outs are valid
// until the next Transact on the same record. ProcessVector returns fresh
// results the caller keeps, and allocates exactly those: the per-lane
// slice headers and one array under them (2 allocations). Verdict and
// LaneErr allocate only the error they return. The engine's shards run
// on reused records, so an Engine.Process call allocates its input
// concatenation, its output array and slice headers, and its batch (4
// allocations), and EncryptECB's count does not grow with the message.
package bfm

import (
	"errors"
	"fmt"
	"math/bits"

	"rijndaelip/internal/logic"
	"rijndaelip/internal/rijndael"
)

// Lanes is the number of independent simulation lanes one device model
// carries (re-exported from internal/logic so engine-level callers don't
// reach into the AIG layer).
const Lanes = logic.Lanes

// Sim is the simulator surface the driver needs. Both the RTL-level
// simulator (rtl.Simulator) and the post-synthesis netlist simulator
// (netlist.Simulator) satisfy it, so the same bus-functional model signs
// off the design before and after technology mapping. Their state is
// stored as lane words, so every pin can be driven and observed per lane
// at no extra cost; the broadcast methods are the all-lanes special case.
// In both implementations the S-box ROM reads behind this surface go
// through per-simulator EDAC stores (internal/edac): a single-bit ROM
// storage error is corrected transparently, so the driver sees golden
// data until damage exceeds what the code covers.
//
// OutputWords returns a slice the simulator owns: it is valid until the
// simulator's next Eval, Step or OutputWords call, so a caller either
// uses it at once or copies it. That is what lets the driver and the
// lockstep comparator read whole ports every cycle without allocating.
type Sim interface {
	Reset()
	SetInput(name string, value uint64) error
	SetInputBits(name string, bits []byte) error
	SetInputLane(name string, lane int, value uint64) error
	SetInputBitsLane(name string, lane int, bits []byte) error
	Eval()
	Step()
	Output(name string) (uint64, error)
	OutputBits(name string) ([]byte, error)
	OutputLane(name string, lane int) (uint64, error)
	OutputBitsLane(name string, lane int) ([]byte, error)
	OutputWords(name string) ([]uint64, error)
	RegValue(name string) ([]byte, bool)
}

// Deprecated: VectorSim is Sim.
type VectorSim = Sim

// Deprecated: VectorDriver is Driver.
type VectorDriver = Driver

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
	// KeyBytes is the cipher-key length the device loads over the bus
	// (16, or 32 on the AES-256 core; 0 means 16).
	KeyBytes int
}

// Driver drives one simulated device. Every data transaction carries up
// to Lanes independent blocks, block L on lane L: the driver drives din per
// lane, runs the one 50-cycle sequence all lanes share, and captures each
// lane's dout on the cycle its data_ok rises: one OutputWords read of the
// whole port, de-transposed (logic.UnpackLanes) for the lanes that rose.
// The lanes march in lockstep because the core's control FSM depends only
// on the control pins (setup/wr_key/wr_data/encdec), which the driver
// always broadcasts; only the data path (din, key, dout) differs per lane.
// A one-block transaction is the scalar case.
type Driver struct {
	DUT DUT
	Sim Sim

	// Timeout bounds, in cycles, how long Driver waits for data_ok before
	// reporting a protocol error. Defaults to
	// 4×(BlockLatency+KeySetupCycles+2): 208 cycles on the Encrypt core,
	// 248 on Decrypt and Both. This is the watchdog that keeps a wedged FSM
	// (a fault that kills the completion handshake) from hanging the caller
	// forever.
	Timeout int

	// AssertLatency arms the fixed-latency protocol assertion on every
	// lane: the paper's core completes in exactly BlockLatency cycles, so a
	// data_ok that rises early or late is evidence of a corrupted control
	// FSM even when the payload happens to look plausible. Process and
	// ProcessVector then return ErrLatency alongside the (suspect) output.
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
		KeyBytes:       core.KeyBytes,
	})
}

// NewDUT returns a driver over an arbitrary device with the Table 1
// interface.
func NewDUT(dut DUT) *Driver {
	if dut.KeyBytes == 0 {
		dut.KeyBytes = 16
	}
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

// LoadKeys performs the configuration sequence with a different key on
// every lane: raise setup and wr_key with keys[L] on lane L of din (one
// 128-bit beat, or two beats low-half-first for a 256-bit key on an
// AES-256 core), then run the key-setup walk to completion (10 cycles for
// the decrypt-capable variants, 0 for encrypt-only). Every key must be the
// device's KeyBytes long and len(keys) must be in [1, Lanes]; lanes beyond
// len(keys) receive keys[0]. It returns the cycles consumed, the same
// whatever len(keys) is. Invalid keys are rejected before any bus cycle.
func (d *Driver) LoadKeys(keys [][]byte) (int, error) {
	if len(keys) == 0 || len(keys) > Lanes {
		return 0, fmt.Errorf("bfm: need 1..%d keys, got %d", Lanes, len(keys))
	}
	kl := len(keys[0])
	if err := checkKeyLen(d.DUT.Name, d.DUT.KeyBytes, kl); err != nil {
		return 0, err
	}
	for i, k := range keys {
		if len(k) != kl {
			return 0, fmt.Errorf("bfm: key %d is %d bytes, want %d", i, len(k), kl)
		}
	}
	cycles := 0
	for off := 0; off < kl; off += 16 {
		d.clearControl()
		d.Sim.SetInput("setup", 1)
		d.Sim.SetInput("wr_key", 1)
		if err := d.driveLanes(keys, off); err != nil {
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

// LoadKey loads one key on every lane (see LoadKeys).
func (d *Driver) LoadKey(key []byte) (int, error) { return d.LoadKeys([][]byte{key}) }

// driveLanes drives bytes [off, off+16) of blocks[L] onto lane L of din:
// blocks[0] is broadcast and lanes 1..len(blocks)-1 are overridden, so
// unused lanes carry lane 0's data (harmless: their results are never
// read back).
func (d *Driver) driveLanes(blocks [][]byte, off int) error {
	if err := d.Sim.SetInputBits("din", blocks[0][off:off+16]); err != nil {
		return err
	}
	for lane := 1; lane < len(blocks); lane++ {
		if err := d.Sim.SetInputBitsLane("din", lane, blocks[lane][off:off+16]); err != nil {
			return err
		}
	}
	return nil
}

// ErrTimeout is returned when data_ok never rises within the watchdog
// budget. Returned errors wrap it; match with errors.Is.
var ErrTimeout = errors.New("bfm: timeout waiting for data_ok")

// ErrLatency is returned when AssertLatency is set and a lane's data_ok
// rose at a cycle count other than the device's fixed block latency.
// Returned errors wrap it; match with errors.Is.
var ErrLatency = errors.New("bfm: data_ok at unexpected latency")

// setDirection rejects a direction the device lacks and, on a core with
// an encdec pin, drives it (1 encrypts, 0 decrypts).
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

// Transaction is the lane-by-lane record of one data transaction. A
// record may be reused: Transact resets every field first, so a reused
// record reads exactly like a fresh one, and it keeps the Outs slice and
// the array under it, so a record reused at no more lanes than before
// allocates nothing. Outs is therefore valid only until the next Transact
// on the same record; copy what must outlive it.
type Transaction struct {
	// Outs holds each used lane's dout, captured on the cycle its data_ok
	// rose (nil for a lane whose data_ok never rose). The lanes' slices
	// share one backing array, capped so that an append to one lane's
	// block never runs into the next.
	Outs [][]byte
	// Latency holds each used lane's cycles from the wr_data load edge to
	// the first cycle its data_ok was observed high (0 for a lane whose
	// data_ok never rose).
	Latency [Lanes]int
	// Hung is the mask of used lanes whose data_ok never rose before the
	// watchdog expired.
	Hung uint64
	// Cycles is how long the transaction ran after the load edge: up to
	// the last used lane's data_ok, or the watchdog.
	Cycles int

	// buf is the array the used lanes' douts are de-transposed into, one
	// stride apart; it only grows.
	buf []byte
}

// reset clears tx for a transaction of n lanes, keeping its arrays.
func (tx *Transaction) reset(n int) {
	if cap(tx.Outs) < n {
		tx.Outs = make([][]byte, n)
	} else {
		tx.Outs = tx.Outs[:n]
		clear(tx.Outs)
	}
	tx.Latency = [Lanes]int{}
	tx.Hung, tx.Cycles = 0, 0
}

// Transact pushes up to Lanes blocks through the device in one protocol
// transaction, blocks[L] on lane L, and records every lane's result in tx,
// reusing tx's arrays (see Transaction). It runs until every used lane has
// raised data_ok or the watchdog expires, so one off-latency lane never
// cuts another lane's transaction short. It returns an error only for
// invalid arguments or a simulator error; a lane's protocol failure is
// reported by LaneErr and Verdict. The cycle cost is that of a one-block
// transaction, whatever len(blocks) is: this is the whole point of the
// lane machinery.
func (d *Driver) Transact(tx *Transaction, blocks [][]byte, encrypt bool) error {
	tx.reset(min(len(blocks), Lanes))
	if len(blocks) == 0 || len(blocks) > Lanes {
		return fmt.Errorf("bfm: need 1..%d blocks, got %d", Lanes, len(blocks))
	}
	for i, b := range blocks {
		if len(b) != 16 {
			return fmt.Errorf("bfm: block %d must be 16 bytes, got %d", i, len(b))
		}
	}
	if err := d.setDirection(encrypt); err != nil {
		return err
	}
	d.clearControl()
	d.Sim.SetInput("wr_data", 1)
	if err := d.driveLanes(blocks, 0); err != nil {
		return err
	}
	d.Sim.Step() // load edge
	d.clearControl()
	pending := usedMask(len(blocks))
	cycles := 0
	for {
		d.Sim.Eval()
		okw, err := d.Sim.OutputWords("data_ok")
		if err != nil {
			return err
		}
		ok := okw[0]
		if ready := ok & pending; ready != 0 {
			dout, err := d.Sim.OutputWords("dout")
			if err != nil {
				return err
			}
			n := (len(dout) + 7) / 8
			if cap(tx.buf) < n*len(blocks) {
				tx.buf = make([]byte, n*len(blocks))
			}
			outs := tx.buf[:n*len(blocks)]
			logic.UnpackLanes(outs, dout, ready)
			for ; ready != 0; ready &= ready - 1 {
				lane := bits.TrailingZeros64(ready)
				tx.Outs[lane] = outs[n*lane : n*(lane+1) : n*(lane+1)]
				tx.Latency[lane] = cycles
			}
		}
		pending &^= ok
		if pending == 0 || cycles >= d.Timeout {
			break
		}
		d.Sim.Step()
		cycles++
	}
	tx.Hung, tx.Cycles = pending, cycles
	return nil
}

// LaneErr returns lane's protocol verdict on tx: ErrTimeout when its
// data_ok never rose, ErrLatency when the latency assertion is armed and
// its data_ok rose at a cycle other than the block latency, else nil.
func (d *Driver) LaneErr(tx *Transaction, lane int) error {
	switch {
	case tx.Hung>>uint(lane)&1 != 0:
		return fmt.Errorf("%w: watchdog expired after %d cycles on %s",
			ErrTimeout, tx.Cycles, d.DUT.Name)
	case d.AssertLatency && d.DUT.BlockLatency > 0 && tx.Latency[lane] != d.DUT.BlockLatency:
		return fmt.Errorf("%w: data_ok after %d cycles, expected %d on %s",
			ErrLatency, tx.Latency[lane], d.DUT.BlockLatency, d.DUT.Name)
	}
	return nil
}

// Verdict returns the protocol verdict on the whole of tx: the lowest hung
// lane's ErrTimeout if any lane hung, else the first used lane's
// ErrLatency, else nil. A hung transaction has no usable outputs; an
// ErrLatency comes alongside (suspect) ones.
func (d *Driver) Verdict(tx *Transaction) error {
	if tx.Hung != 0 {
		return d.LaneErr(tx, bits.TrailingZeros64(tx.Hung))
	}
	for lane := range tx.Outs {
		if err := d.LaneErr(tx, lane); err != nil {
			return err
		}
	}
	return nil
}

// ProcessVector runs one transaction (see Transact) on a fresh record and
// returns the per-lane output blocks, which the caller owns, and the
// cycles from the wr_data edge to the last lane's data_ok. Its error is
// the Verdict: a hung lane fails the whole transaction with ErrTimeout and
// no outputs; otherwise the first lane that fails the latency assertion
// returns ErrLatency alongside the (suspect) outputs.
func (d *Driver) ProcessVector(blocks [][]byte, encrypt bool) ([][]byte, int, error) {
	var tx Transaction
	if err := d.Transact(&tx, blocks, encrypt); err != nil {
		return nil, 0, err
	}
	err := d.Verdict(&tx)
	if tx.Hung != 0 {
		return nil, tx.Cycles, err
	}
	return tx.Outs, tx.Cycles, err
}

// Process pushes one block through the device and waits for the result.
// It returns the output block and the latency in clock cycles from the
// wr_data edge to the first cycle data_ok is observed high.
func (d *Driver) Process(block []byte, encrypt bool) ([]byte, int, error) {
	outs, cycles, err := d.ProcessVector([][]byte{block}, encrypt)
	if outs == nil {
		return nil, cycles, err
	}
	return outs[0], cycles, err
}

// usedMask returns the lane mask with the low n lanes set.
func usedMask(n int) uint64 {
	if n >= Lanes {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
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

// checkKeyLen rejects a key whose length does not match the device's.
func checkKeyLen(device string, want, got int) error {
	if got != want {
		return fmt.Errorf("bfm: %s takes a %d-byte key, got %d bytes", device, want, got)
	}
	return nil
}

// KeyedFactory stamps out independent, identically-keyed drivers over
// fresh simulations of the same core. Each clone owns its own simulator
// state, so clones can process blocks concurrently from separate
// goroutines. Its only caller outside tests is the benchmark replica
// (_perfbench); the engine, the fault campaigns and the tools build and
// key their devices with faultcampaign.NewDevice.
type KeyedFactory struct {
	core *rijndael.Core
	key  []byte
}

// NewKeyedFactory validates the key against the core's key length (16
// bytes, or 32 for the AES-256 extension core) and returns a factory for
// keyed drivers of the core.
func NewKeyedFactory(core *rijndael.Core, key []byte) (*KeyedFactory, error) {
	if err := checkKeyLen(core.Design.Name, core.KeyBytes, len(key)); err != nil {
		return nil, err
	}
	return &KeyedFactory{core: core, key: append([]byte(nil), key...)}, nil
}

// CloneVectorSim runs the factory's key-load sequence over a caller-built
// simulation of the same core — a post-synthesis netlist simulator, a
// lockstep pair wrapping one, the RTL simulator or any other Sim — and
// returns the keyed driver with the key-setup cycles it spent. The package
// stays decoupled from any particular simulator implementation: the caller
// owns construction, the factory owns the bus protocol.
func (f *KeyedFactory) CloneVectorSim(sim Sim) (*Driver, int, error) {
	// The key is broadcast across all lanes, so any subset of lanes can
	// process blocks under it.
	d := NewPostSynthesis(f.core, sim)
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
