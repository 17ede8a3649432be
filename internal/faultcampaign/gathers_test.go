package faultcampaign

import (
	"bytes"
	"math/rand"
	"testing"

	"rijndaelip/internal/aes"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/edac"
	"rijndaelip/internal/rtl"
)

// TestCountedGathersPerCycle pins the EDAC counted-gather contract on the
// Encrypt core: every asynchronous ROM is gathered once per Eval on a
// faulty store, so with a correctable error in every ROM word each Gather
// counts one corrected read per lane and the counters give the gathers
// per simulated cycle exactly. The driver's Eval-then-Step runs two Evals
// a cycle over eight ROMs: 16 on the RTL simulator. The lockstep device an
// engine shard runs (NewDevice) adds the comparator's Eval of both
// replicas after each Step: 48. Skipping a clean, unchanged gather never
// applies to a faulty store, so neither figure may drop. SECDED corrects
// every read, so the outputs stay right.
func TestCountedGathersPerCycle(t *testing.T) {
	core, nl := buildEncryptCore(t)
	r := rand.New(rand.NewSource(3))
	key := make([]byte, 16)
	r.Read(key)
	blocks := make([][]byte, bfm.Lanes)
	for i := range blocks {
		blocks[i] = make([]byte, 16)
		r.Read(blocks[i])
	}
	rtlDrv := bfm.New(core)
	if _, err := rtlDrv.LoadKey(key); err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(core, nl, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Key(key); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		drv    *bfm.Driver
		stores []*edac.ROM
		want   uint64
	}{
		{"rtl", rtlDrv, rtlDrv.Sim.(*rtl.Simulator).ROMStores(), 16},
		{"netlist lockstep", dev.Driver, append(dev.Primary.ROMStores(), dev.Shadow.ROMStores()...), 48},
	}
	for _, c := range cases {
		c.drv.AssertLatency = true
		// The key load ran above, so every counted read belongs to the
		// transaction.
		for _, st := range c.stores {
			for w := 0; w < edac.Words; w++ {
				st.FlipBit(w, 3)
			}
		}
		outs, cycles, err := c.drv.ProcessVector(blocks, true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for lane, blk := range blocks {
			want, err := aes.EncryptBlock(key, blk)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(outs[lane], want) {
				t.Fatalf("%s: lane %d: got %x, want %x", c.name, lane, outs[lane], want)
			}
		}
		var reads uint64
		for _, st := range c.stores {
			reads += st.Stats().CorrectedReads
		}
		// The transaction's cycles run from the wr_data edge; the load
		// edge before it is one more.
		edges := uint64(cycles) + 1
		if reads != c.want*edges*bfm.Lanes {
			t.Errorf("%s: %d corrected lane reads over %d cycles = %.3f gathers per cycle, want exactly %d",
				c.name, reads, edges, float64(reads)/bfm.Lanes/float64(edges), c.want)
		}
	}
}
