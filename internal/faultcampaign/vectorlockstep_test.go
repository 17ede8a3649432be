package faultcampaign

import (
	"math/rand"
	"testing"

	"rijndaelip/internal/bfm"
)

// TestLockstepCompareCounts pins the comparator's work on one fault-free
// 64-lane Encrypt transaction of a lockstep Device: the compares run and
// the compares skipped because neither replica moved since the last one.
// Every pair Eval and Step either compares or skips, so the sum, 102, is
// what a comparator that compares after every Eval and Step runs. The
// driver's wait loop calls Eval, then Step, each cycle; the Step ends in
// a compare of its own Evals, so the next cycle's Eval finds neither
// replica moved and skips.
func TestLockstepCompareCounts(t *testing.T) {
	core, nl := buildEncryptCore(t)
	dev, err := NewDevice(core, nl, true)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	key := make([]byte, 16)
	r.Read(key)
	if err := dev.Key(key); err != nil {
		t.Fatal(err)
	}
	blocks := make([][]byte, bfm.Lanes)
	for i := range blocks {
		blocks[i] = make([]byte, 16)
		r.Read(blocks[i])
	}
	l := dev.Lockstep
	l.compares, l.skips = 0, 0
	if _, _, err := dev.Driver.ProcessVector(blocks, true); err != nil {
		t.Fatal(err)
	}
	if l.MismatchMask() != 0 {
		t.Fatalf("fault-free pair diverged on lanes %#x", l.MismatchMask())
	}
	if l.compares != 52 || l.skips != 50 {
		t.Errorf("the transaction ran %d compares and skipped %d, want 52 and 50", l.compares, l.skips)
	}
}
