package faultcampaign

import (
	"bytes"
	"math/rand"
	"testing"

	"rijndaelip/internal/aes"
	"rijndaelip/internal/bfm"
)

// BenchmarkVectorLockstep measures one supervised 64-lane transaction on
// a keyed lockstep device of the synthesized Encrypt core (NewDevice: a
// netlist simulator and its shadow twin under a VectorLockstep), 64
// divergent blocks per ProcessVector. This is the device a
// lockstep-supervised engine shard runs, without the engine around it.
// The first transaction is checked against internal/aes. It reports the
// comparator's compares run and skipped per transaction
// (TestLockstepCompareCounts pins them).
func BenchmarkVectorLockstep(b *testing.B) {
	core, nl := buildEncryptCore(b)
	dev, err := NewDevice(core, nl, true)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	key := make([]byte, 16)
	r.Read(key)
	if err := dev.Key(key); err != nil {
		b.Fatal(err)
	}
	drv := dev.Driver
	drv.AssertLatency = true
	blocks := make([][]byte, bfm.Lanes)
	for i := range blocks {
		blocks[i] = make([]byte, 16)
		r.Read(blocks[i])
	}
	outs, _, err := drv.ProcessVector(blocks, true)
	if err != nil {
		b.Fatal(err)
	}
	for lane, blk := range blocks {
		want, err := aes.EncryptBlock(key, blk)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(outs[lane], want) {
			b.Fatalf("lane %d: got %x, want %x", lane, outs[lane], want)
		}
	}
	lock := dev.Lockstep
	compares, skips := lock.compares, lock.skips
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := drv.ProcessVector(blocks, true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(lock.compares-compares)/float64(b.N), "compares/op")
	b.ReportMetric(float64(lock.skips-skips)/float64(b.N), "skips/op")
	if dev.Lockstep.MismatchMask() != 0 {
		b.Fatal("lockstep replicas diverged on a fault-free run")
	}
}
