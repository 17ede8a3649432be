// Package rijndaelip is the public API of this repository: a full
// reproduction of "A Low Device Occupation IP to Implement Rijndael
// Algorithm" (Panato, Barcelos, Reis — DATE 2003).
//
// The package generates the paper's AES-128 soft IP in its three variants
// (encrypt-only, decrypt-only, combined), runs it through a complete
// synthesis flow built from scratch in this repository (AIG logic
// synthesis, priority-cut 4-LUT technology mapping, device fitting with
// register packing and embedded-memory allocation, static timing
// analysis), and simulates the resulting design cycle-accurately against a
// FIPS-197 software reference.
//
// Quick start:
//
//	impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
//	drv := impl.NewDriver()
//	drv.LoadKey(key)
//	ciphertext, cycles, err := drv.Encrypt(plaintext)
//	fmt.Println(impl.ThroughputMbps())
package rijndaelip

import (
	"fmt"

	"rijndaelip/internal/aes"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/faultcampaign"
	"rijndaelip/internal/fpga"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/place"
	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/route"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/techmap"
	"rijndaelip/internal/timing"
)

// Variant selects the device capabilities, re-exported from the core
// generator.
type Variant = rijndael.Variant

// Device variants (the paper's three implementations).
const (
	Encrypt = rijndael.Encrypt
	Decrypt = rijndael.Decrypt
	Both    = rijndael.Both
)

// Device is an FPGA model from the catalog.
type Device = fpga.Device

// Acex1K returns the paper's EP1K100FC484-1 device model.
func Acex1K() Device { return fpga.EP1K100() }

// Cyclone returns the paper's EP1C20F400C6 device model.
func Cyclone() Device { return fpga.EP1C20() }

// Apex20KE returns the Apex-class device model used for the Table 3
// high-performance comparisons.
func Apex20KE() Device { return fpga.EP20K400E() }

// Options tunes Build beyond the defaults.
type Options struct {
	// ROMStyle overrides the S-box realization. Left zero, Build picks the
	// paper's choice for the device: asynchronous EAB ROM when the device
	// supports it, LUT logic otherwise. Set rtl.ROMSync to build the
	// paper's future-work synchronous-ROM variant.
	ROMStyle *rtl.ROMStyle
}

// Implementation bundles everything the flow produced for one variant on
// one device: the generated core, the mapped netlist, the fit and the
// timing closure — i.e. one cell of the paper's Table 2.
type Implementation struct {
	Core    *rijndael.Core
	Device  Device
	Netlist NetlistInfo
	Fit     fpga.FitResult
	Timing  timing.Result
}

// NetlistInfo carries the mapped netlist together with summary counts.
type NetlistInfo struct {
	LUTs       int
	FFs        int
	ROMs       int
	MemoryBits int
	Pins       int

	nl *netlist.Netlist
}

// Raw exposes the underlying mapped netlist for tools that need it
// (waveform dumps, custom analyses).
func (n NetlistInfo) Raw() *netlist.Netlist { return n.nl }

// Build generates the requested variant, synthesizes it, fits it onto the
// device and runs timing analysis.
func Build(v Variant, dev Device, opts ...Options) (*Implementation, error) {
	style := styleFor(dev, opts)
	core, err := rijndael.New(rijndael.Config{Variant: v, ROMStyle: style})
	if err != nil {
		return nil, fmt.Errorf("rijndaelip: generate core: %w", err)
	}
	return buildImpl(core, dev)
}

// Build256 runs the flow for the AES-256 extension core (14 rounds,
// 70-cycle latency, two-beat key load) on a device.
func Build256(v Variant, dev Device, opts ...Options) (*Implementation, error) {
	style := styleFor(dev, opts)
	core, err := rijndael.New256(v, style)
	if err != nil {
		return nil, fmt.Errorf("rijndaelip: generate AES-256 core: %w", err)
	}
	return buildImpl(core, dev)
}

func styleFor(dev Device, opts []Options) rtl.ROMStyle {
	style := rtl.ROMAsync
	if !dev.SupportsAsyncROM {
		style = rtl.ROMLogic
	}
	for _, o := range opts {
		if o.ROMStyle != nil {
			style = *o.ROMStyle
		}
	}
	return style
}

func buildImpl(core *rijndael.Core, dev Device) (*Implementation, error) {
	nl, err := core.Design.Synthesize(techmap.Options{})
	if err != nil {
		return nil, fmt.Errorf("rijndaelip: synthesize: %w", err)
	}
	fit, err := fpga.Fit(nl, dev)
	if err != nil {
		return nil, fmt.Errorf("rijndaelip: fit: %w", err)
	}
	sta, err := timing.Analyze(nl, dev.Delay)
	if err != nil {
		return nil, fmt.Errorf("rijndaelip: timing: %w", err)
	}
	return &Implementation{
		Core:   core,
		Device: dev,
		Netlist: NetlistInfo{
			LUTs:       nl.NumLUTs(),
			FFs:        nl.NumFFs(),
			ROMs:       len(nl.ROMs),
			MemoryBits: nl.MemoryBits(),
			Pins:       nl.PinCount(),
			nl:         nl,
		},
		Fit:    fit,
		Timing: sta,
	}, nil
}

// ClockNS returns the minimum clock period in nanoseconds (the paper's
// "Clk" column).
func (im *Implementation) ClockNS() float64 { return im.Timing.Period }

// LatencyNS returns the block latency in nanoseconds: cycles times clock
// period (the paper's "Latency" column).
func (im *Implementation) LatencyNS() float64 {
	return im.Timing.Period * float64(im.Core.BlockLatency)
}

// ThroughputMbps returns 128 bits divided by the block latency (the
// paper's definition of throughput).
func (im *Implementation) ThroughputMbps() float64 {
	lat := im.LatencyNS()
	if lat == 0 {
		return 0
	}
	return 128 / lat * 1000
}

// NewDriver returns a bus-functional driver over a fresh cycle-accurate
// simulation of the generated core.
func (im *Implementation) NewDriver() *bfm.Driver { return bfm.New(im.Core) }

// NewCipher returns the from-scratch FIPS-197 software reference cipher
// (16/24/32-byte keys), the golden model the hardware is checked against.
func NewCipher(key []byte) (*aes.Cipher, error) { return aes.NewCipher(key) }

// NewPostSynthesisDriver returns a bus-functional driver over a gate-level
// simulation of the technology-mapped netlist (post-synthesis sign-off):
// the same Table 1 transactions run against the LUT/FF/ROM netlist that
// the fitter and timing analyzer saw.
func (im *Implementation) NewPostSynthesisDriver() (*bfm.Driver, error) {
	dev, err := faultcampaign.NewDevice(im.Core, im.Netlist.nl, false)
	if err != nil {
		return nil, err
	}
	return dev.Driver, nil
}

// PlacedResult is a placement-aware refinement of an implementation's
// timing: the netlist is placed on the device's LAB grid by simulated
// annealing and STA is rerun with per-net wirelength delays.
type PlacedResult struct {
	HPWL        float64
	InitialHPWL float64
	Timing      timing.Result
}

// PlaceAndTime places the mapped netlist on the device grid (deterministic
// under seed) and reruns timing with placement-aware routing delays.
func (im *Implementation) PlaceAndTime(seed uint64) (*PlacedResult, error) {
	grid := place.GridFor(im.Device.LogicElements, im.Device.LABSize)
	res, err := place.Place(im.Netlist.nl, grid, seed)
	if err != nil {
		return nil, err
	}
	sta, err := timing.AnalyzePlaced(im.Netlist.nl, im.Device.Delay, res.NetLength, im.Device.WirePitchNS)
	if err != nil {
		return nil, err
	}
	return &PlacedResult{HPWL: res.HPWL, InitialHPWL: res.InitialHPWL, Timing: sta}, nil
}

// PlaceRouteResult carries the full physical-implementation refinement:
// placement, negotiated-congestion routing, and STA over the routed
// wirelengths.
type PlaceRouteResult struct {
	Placement *place.Result
	Routing   *route.Result
	Timing    timing.Result
}

// PlaceRouteAndTime runs the complete back end on the mapped netlist:
// simulated-annealing placement on the device LAB grid, PathFinder global
// routing, and timing analysis using the routed per-net wirelengths.
func (im *Implementation) PlaceRouteAndTime(seed uint64) (*PlaceRouteResult, error) {
	grid := place.GridFor(im.Device.LogicElements, im.Device.LABSize)
	pl, err := place.Place(im.Netlist.nl, grid, seed)
	if err != nil {
		return nil, err
	}
	rt, err := route.Route(im.Netlist.nl, pl, route.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sta, err := timing.AnalyzePlaced(im.Netlist.nl, im.Device.Delay, rt.NetLength, im.Device.WirePitchNS)
	if err != nil {
		return nil, err
	}
	return &PlaceRouteResult{Placement: pl, Routing: rt, Timing: sta}, nil
}
