package faultcampaign

import (
	"math/rand"
	"testing"

	"rijndaelip/internal/bfm"
	"rijndaelip/internal/netlist"
)

// TestLaneTransactionAllocs gates the allocations of one 64-lane
// ProcessVector of the Encrypt core, on the RTL simulator and on a
// VectorLockstep pair of netlist simulators. The lane boundary allocates
// only the transaction's result: the per-lane slice headers and the one
// array every lane's dout is de-transposed into. data_ok polling, the bulk
// dout read and the comparator's port reads use the simulators' own
// OutputWords buffers, and the din drive writes lane words in place.
// Allocation counts are deterministic, so the bound is exact work, not
// timing.
func TestLaneTransactionAllocs(t *testing.T) {
	const maxAllocs = 3
	core, nl := buildEncryptCore(t)
	r := rand.New(rand.NewSource(5))
	key := make([]byte, 16)
	r.Read(key)
	blocks := make([][]byte, bfm.Lanes)
	for i := range blocks {
		blocks[i] = make([]byte, 16)
		r.Read(blocks[i])
	}
	var pair [2]bfm.Sim
	for i := range pair {
		s, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		pair[i] = s
	}
	cases := []struct {
		name string
		sim  bfm.Sim
	}{
		{"rtl", core.Design.NewSimulator()},
		{"netlist lockstep", NewVectorLockstep(pair[0], pair[1])},
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
		var failed error
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := drv.ProcessVector(blocks, true); err != nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatalf("%s: %v", c.name, failed)
		}
		if allocs > maxAllocs {
			t.Errorf("%s: %.0f allocations per 64-lane transaction, want at most %d", c.name, allocs, maxAllocs)
		} else {
			t.Logf("%s: %.0f allocations per 64-lane transaction", c.name, allocs)
		}
	}
}
