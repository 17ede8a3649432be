package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"rijndaelip"
	"rijndaelip/internal/aes"
	"rijndaelip/internal/chaos"
	"rijndaelip/internal/netlist"
)

// Load shape shared by every workload: one process, two shards of 64
// lanes each, at most two client goroutines. Two of each because the
// benchmark host has two CPUs; more would measure the Go scheduler.
const (
	shards = 2
	// bulkBytes is the message size of the bulk workloads: 1024 blocks,
	// sixteen fully packed submissions per call.
	bulkBytes = 16 << 10
	// bulkMessages distinct seeded messages per caller are reused
	// cyclically, so the reference outputs are computed before timing.
	bulkMessages = 4
	// smallPerSize is how many requests of each size 1..4 blocks one
	// caller's pass holds, half of them decrypts. The seed orders that
	// fixed multiset and fills the blocks, so the blocks per submission,
	// and with them the simulated cycles per block, are the same for
	// every seed.
	smallPerSize = 16
	// strikePeriod is the mean number of submissions per shard between
	// transient upsets on supervised-faults: low enough that the default
	// transient budget (3 per 64 submissions) absorbs the strikes in
	// place instead of respawning shards.
	strikePeriod = 100
)

type callKind int

const (
	kindCTR     callKind = iota // Engine.CTR over a bulk message
	kindProcess                 // Engine.Process of 1..4 independent blocks
	kindECB                     // Engine.EncryptECB over a bulk message
)

// workload is one seeded closed-loop traffic mix.
type workload struct {
	name       string
	variant    rijndaelip.Variant
	kind       callKind
	callers    int
	supervised bool
}

var workloads = []workload{
	{name: "ctr-bulk", variant: rijndaelip.Encrypt, kind: kindCTR, callers: 1},
	{name: "small-requests", variant: rijndaelip.Both, kind: kindProcess, callers: 2},
	{name: "supervised-faults", variant: rijndaelip.Encrypt, kind: kindECB, callers: 1, supervised: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one call's input and the output internal/aes says it must
// produce.
type request struct {
	iv      []byte   // kindCTR only
	src     []byte   // concatenated input blocks (or the CTR message)
	blocks  [][]byte // src split into 16-byte blocks (kindProcess only)
	encrypt bool
	want    []byte
}

// nblocks is the number of 16-byte blocks the call delivers.
func (r *request) nblocks() int { return (len(r.src) + 15) / 16 }

// inputs is everything a run derives from its seed: the key, each
// caller's request list (one pass) and the strike-schedule seeds.
type inputs struct {
	key    []byte
	passes [][]request
	strike []int64 // per-shard injector seeds
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// generate derives a run's inputs from the seed and computes every
// reference output with internal/aes.
func (w workload) generate(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{key: randBytes(rng, 16)}
	ref, err := aes.NewCipher(in.key)
	if err != nil {
		return nil, err
	}
	for s := 0; s < shards; s++ {
		in.strike = append(in.strike, rng.Int63())
	}
	for c := 0; c < w.callers; c++ {
		var pass []request
		switch w.kind {
		case kindCTR, kindECB:
			for m := 0; m < bulkMessages; m++ {
				r := request{src: randBytes(rng, bulkBytes), encrypt: true}
				if w.kind == kindCTR {
					r.iv = randBytes(rng, 16)
					r.want = refCTR(ref, r.iv, r.src)
				} else {
					r.want = refBlocks(ref, r.src, true)
				}
				pass = append(pass, r)
			}
		case kindProcess:
			type shape struct {
				n       int
				encrypt bool
			}
			var shapes []shape
			for n := 1; n <= 4; n++ {
				for i := 0; i < smallPerSize; i++ {
					shapes = append(shapes, shape{n, i%2 == 0})
				}
			}
			rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
			for _, sh := range shapes {
				n := sh.n
				r := request{src: randBytes(rng, 16*n), encrypt: sh.encrypt}
				for b := 0; b < n; b++ {
					r.blocks = append(r.blocks, r.src[16*b:16*b+16])
				}
				r.want = refBlocks(ref, r.src, r.encrypt)
				pass = append(pass, r)
			}
		}
		in.passes = append(in.passes, pass)
	}
	return in, nil
}

// refBlocks is ECB through the software reference.
func refBlocks(c *aes.Cipher, src []byte, encrypt bool) []byte {
	out := make([]byte, len(src))
	for i := 0; i < len(src); i += 16 {
		if encrypt {
			c.Encrypt(out[i:i+16], src[i:i+16])
		} else {
			c.Decrypt(out[i:i+16], src[i:i+16])
		}
	}
	return out
}

// refCTR is counter mode through the software reference: the keystream
// is the encrypted counter, incremented big-endian over the whole block.
func refCTR(c *aes.Cipher, iv, src []byte) []byte {
	out := make([]byte, len(src))
	ctr := append([]byte(nil), iv...)
	ks := make([]byte, 16)
	for i := 0; i < len(src); i += 16 {
		c.Encrypt(ks, ctr)
		for j := 0; j < 16 && i+j < len(src); j++ {
			out[i+j] = src[i+j] ^ ks[j]
		}
		for k := 15; k >= 0; k-- {
			ctr[k]++
			if ctr[k] != 0 {
				break
			}
		}
	}
	return out
}

// engineOptions is the engine configuration of the workload. Each
// supervised shard gets its own seeded injector: a shard's Strike calls
// come from its own worker in submission order, so the strike schedule
// of every shard is fixed by the seed whatever the goroutine interleaving.
func (w workload) engineOptions(im *rijndaelip.Implementation, in *inputs, jitter func(shard, index int)) rijndaelip.EngineOptions {
	opts := rijndaelip.EngineOptions{Shards: shards, Jitter: jitter}
	if !w.supervised {
		return opts
	}
	inj := make([]*chaos.Injector, shards)
	for s := range inj {
		inj[s] = chaos.NewInjector(chaos.Config{Seed: in.strike[s], Period: strikePeriod}, im.Core.BlockLatency)
	}
	opts.Supervise = &rijndaelip.SupervisorOptions{
		Check: rijndaelip.CheckLockstep,
		Strike: func(shard int, sub uint64, sim *netlist.Simulator) {
			inj[shard].Strike(shard, sub, sim)
		},
	}
	return opts
}

// do runs one request the way a user of the engine would and reports
// whether the delivered output matches the reference. It allocates
// nothing itself, so the run's allocation count is the engine's.
func (w workload) do(ctx context.Context, eng *rijndaelip.Engine, r *request) (bool, error) {
	switch w.kind {
	case kindCTR:
		out, err := eng.CTR(ctx, r.iv, r.src)
		return err == nil && bytes.Equal(out, r.want), err
	case kindECB:
		out, err := eng.EncryptECB(ctx, r.src)
		return err == nil && bytes.Equal(out, r.want), err
	case kindProcess:
		outs, err := eng.Process(ctx, r.blocks, r.encrypt)
		return err == nil && matchBlocks(outs, r.want), err
	}
	return false, fmt.Errorf("perfbench: unknown call kind %d", w.kind)
}

// matchBlocks compares per-block outputs with the concatenated reference.
func matchBlocks(outs [][]byte, want []byte) bool {
	if len(outs)*16 != len(want) {
		return false
	}
	for i, o := range outs {
		if !bytes.Equal(o, want[16*i:16*i+16]) {
			return false
		}
	}
	return true
}
