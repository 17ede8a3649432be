package faultcampaign

import (
	"bytes"
	"math/rand"
	"testing"

	"rijndaelip/internal/aes"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/edac"
	"rijndaelip/internal/netlist"
)

// TestCountedGathersPerCycle pins the EDAC counted-gather contract on the
// Encrypt core: every asynchronous ROM is gathered once per Eval on a
// faulty store, so with a correctable error in every ROM word each Gather
// counts one corrected read per lane and the counters give the gathers
// per simulated cycle exactly. The driver's Eval-then-Step runs two Evals
// a cycle over eight ROMs: 16 on the RTL simulator. A lockstep pair adds
// the comparator's Eval of both replicas after each Step: 48. Skipping a
// clean, unchanged gather never applies to a faulty store, so neither
// figure may drop. SECDED corrects every read, so the outputs stay right.
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
	rtlSim := core.Design.NewSimulator()
	var pair [2]*netlist.Simulator
	for i := range pair {
		s, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		pair[i] = s
	}
	cases := []struct {
		name   string
		sim    bfm.Sim
		stores []*edac.ROM
		want   uint64
	}{
		{"rtl", rtlSim, rtlSim.ROMStores(), 16},
		{"netlist lockstep", NewVectorLockstep(pair[0], pair[1]), append(pair[0].ROMStores(), pair[1].ROMStores()...), 48},
	}
	for _, c := range cases {
		f, err := bfm.NewKeyedFactory(core, key)
		if err != nil {
			t.Fatal(err)
		}
		drv, _, err := f.CloneVectorSim(c.sim)
		if err != nil {
			t.Fatal(err)
		}
		drv.AssertLatency = true
		// The key load ran above, so every counted read belongs to the
		// transaction.
		for _, st := range c.stores {
			for w := 0; w < edac.Words; w++ {
				st.FlipBit(w, 3)
			}
		}
		outs, cycles, err := drv.ProcessVector(blocks, true)
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
