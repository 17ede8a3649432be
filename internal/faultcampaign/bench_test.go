package faultcampaign

import (
	"bytes"
	"math/rand"
	"testing"

	"rijndaelip/internal/aes"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/netlist"
)

// BenchmarkVectorLockstep measures one supervised 64-lane transaction: a
// VectorLockstep of a netlist simulator of the synthesized Encrypt core and
// its shadow twin (netlist.NewShadow) under a keyed driver, 64 divergent
// blocks per ProcessVector. This is the pair a lockstep-supervised engine
// shard runs, without the engine around it. The first transaction is
// checked against internal/aes.
func BenchmarkVectorLockstep(b *testing.B) {
	core, nl := buildEncryptCore(b)
	main, err := netlist.NewSimulator(nl)
	if err != nil {
		b.Fatal(err)
	}
	shadow, err := netlist.NewShadow(main)
	if err != nil {
		b.Fatal(err)
	}
	lock := NewVectorLockstep(main, shadow)
	r := rand.New(rand.NewSource(1))
	key := make([]byte, 16)
	r.Read(key)
	f, err := bfm.NewKeyedFactory(core, key)
	if err != nil {
		b.Fatal(err)
	}
	drv, _, err := f.CloneVectorSim(lock)
	if err != nil {
		b.Fatal(err)
	}
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := drv.ProcessVector(blocks, true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if lock.MismatchMask() != 0 {
		b.Fatal("lockstep replicas diverged on a fault-free run")
	}
}
