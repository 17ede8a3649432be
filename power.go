package rijndaelip

import (
	"rijndaelip/internal/faultcampaign"
	"rijndaelip/internal/power"
)

// PowerModelFor picks the switching-energy model matching a device family.
func PowerModelFor(dev Device) power.Model {
	if dev.Family == "Cyclone" {
		return power.CycloneModel()
	}
	return power.Acex1KModel()
}

// MeasurePower runs nBlocks encryptions (or decryptions for a
// decrypt-only core) through a monitored gate-level simulation and returns
// the power report at the implementation's timing-closed clock — the
// paper's §6 future-work power analysis.
func (im *Implementation) MeasurePower(key []byte, nBlocks int) (power.Report, error) {
	dev, err := faultcampaign.NewDevice(im.Core, im.Netlist.nl, false)
	if err != nil {
		return power.Report{}, err
	}
	sim := dev.Primary
	mon, err := power.NewMonitor(im.Netlist.nl, sim)
	if err != nil {
		return power.Report{}, err
	}
	// Key load (unmonitored warm-up) over the bus, which checks the key
	// length against the core's.
	if err := dev.Key(key); err != nil {
		return power.Report{}, err
	}
	if im.Core.Config.Variant == Both {
		sim.SetInput("encdec", 1)
	}
	// Monitored blocks: pseudo-random data derived from the key so the
	// activity is representative.
	block := make([]byte, 16)
	copy(block, key)
	sim.Eval()
	mon.Sample()
	mon.Reset()
	for b := 0; b < nBlocks; b++ {
		sim.SetInput("wr_data", 1)
		if err := sim.SetInputBits("din", block); err != nil {
			return power.Report{}, err
		}
		sim.Eval()
		mon.Sample()
		sim.Step()
		sim.SetInput("wr_data", 0)
		for c := 0; c < im.Core.BlockLatency; c++ {
			sim.Eval()
			mon.Sample()
			sim.Step()
		}
		sim.Eval()
		out, err := sim.OutputBits("dout")
		if err != nil {
			return power.Report{}, err
		}
		block = out // chain the ciphertext as the next plaintext
	}
	return mon.Report(PowerModelFor(im.Device), im.ClockNS()), nil
}
