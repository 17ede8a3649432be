package faultcampaign

import (
	"math/rand"
	"testing"

	"rijndaelip/internal/bfm"
)

// TestLaneTransactionAllocs gates the allocations of one 64-lane
// ProcessVector of the Encrypt core, on the RTL simulator and on the
// lockstep device an engine shard runs (NewDevice). The lane boundary
// allocates only the transaction's result: the per-lane slice headers and
// the one array every lane's dout is de-transposed into. data_ok polling,
// the bulk dout read and the comparator's port reads use the simulators'
// own OutputWords buffers, and the din drive writes lane words in place.
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
		name string
		drv  *bfm.Driver
	}{
		{"rtl", rtlDrv},
		{"netlist lockstep", dev.Driver},
	}
	for _, c := range cases {
		c.drv.AssertLatency = true
		var failed error
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := c.drv.ProcessVector(blocks, true); err != nil {
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
