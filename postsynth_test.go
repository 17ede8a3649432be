package rijndaelip_test

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"rijndaelip"
	"rijndaelip/internal/rtl"
)

// TestPostSynthesisSignoff runs full bus transactions against gate-level
// simulations of the technology-mapped netlists — every variant on both
// device styles — and demands bit-exact agreement with the software
// reference and the RTL latency. This is the strongest functional claim
// the flow makes: the netlist whose area and timing we report is the
// netlist that computes AES.
func TestPostSynthesisSignoff(t *testing.T) {
	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	pt, _ := hex.DecodeString("3243f6a8885a308d313198a2e0370734")
	ct, _ := hex.DecodeString("3925841d02dc09fbdc118597196a0b32")

	for _, v := range []rijndaelip.Variant{rijndaelip.Encrypt, rijndaelip.Decrypt, rijndaelip.Both} {
		for _, dev := range []rijndaelip.Device{rijndaelip.Acex1K(), rijndaelip.Cyclone()} {
			v, dev := v, dev
			t.Run(v.String()+"/"+dev.Family, func(t *testing.T) {
				impl, err := rijndaelip.Build(v, dev)
				if err != nil {
					t.Fatal(err)
				}
				drv, err := impl.NewPostSynthesisDriver()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := drv.LoadKey(key); err != nil {
					t.Fatal(err)
				}
				if v != rijndaelip.Decrypt {
					got, cycles, err := drv.Encrypt(pt)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, ct) {
						t.Fatalf("mapped netlist encrypt = %x, want %x", got, ct)
					}
					if cycles != impl.Core.BlockLatency {
						t.Errorf("mapped latency %d, want %d", cycles, impl.Core.BlockLatency)
					}
				}
				if v != rijndaelip.Encrypt {
					got, _, err := drv.Decrypt(ct)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, pt) {
						t.Fatalf("mapped netlist decrypt = %x, want %x", got, pt)
					}
				}
			})
		}
	}
}

// TestPostSynthesisRandomAgainstRTL runs random vectors through both the
// RTL and the mapped netlist of the sync-ROM variant (the trickiest
// timing) and cross-checks every result.
func TestPostSynthesisRandomAgainstRTL(t *testing.T) {
	style := rtl.ROMSync
	impl, err := rijndaelip.Build(rijndaelip.Both, rijndaelip.Cyclone(),
		rijndaelip.Options{ROMStyle: &style})
	if err != nil {
		t.Fatal(err)
	}
	rtlDrv := impl.NewDriver()
	mapDrv, err := impl.NewPostSynthesisDriver()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		key := make([]byte, 16)
		rng.Read(key)
		if _, err := rtlDrv.LoadKey(key); err != nil {
			t.Fatal(err)
		}
		if _, err := mapDrv.LoadKey(key); err != nil {
			t.Fatal(err)
		}
		for blk := 0; blk < 2; blk++ {
			data := make([]byte, 16)
			rng.Read(data)
			enc := rng.Intn(2) == 0
			a, _, err := rtlDrv.Process(data, enc)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := mapDrv.Process(data, enc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("RTL %x != mapped %x (enc=%v key=%x data=%x)", a, b, enc, key, data)
			}
		}
	}
}

// TestPostSynthesisLanesAgainstRTL is the 64-lane differential sign-off of
// the netlists the engine's shards run: every Acex1K variant, a few random
// keys, one full-width ProcessVector of random blocks per key and
// direction (both directions on the combined core). The mapped netlist
// must match the RTL block for block and cycle for cycle, and both must
// match the software reference. This is simulation coverage, not a proof.
func TestPostSynthesisLanesAgainstRTL(t *testing.T) {
	for _, v := range []rijndaelip.Variant{rijndaelip.Encrypt, rijndaelip.Decrypt, rijndaelip.Both} {
		t.Run(v.String(), func(t *testing.T) {
			impl, err := rijndaelip.Build(v, rijndaelip.Acex1K())
			if err != nil {
				t.Fatal(err)
			}
			rtlDrv := impl.NewDriver()
			mapDrv, err := impl.NewPostSynthesisDriver()
			if err != nil {
				t.Fatal(err)
			}
			var dirs []bool
			if v != rijndaelip.Decrypt {
				dirs = append(dirs, true)
			}
			if v != rijndaelip.Encrypt {
				dirs = append(dirs, false)
			}
			rng := rand.New(rand.NewSource(int64(v) + 7))
			blocks := make([][]byte, 64)
			for trial := 0; trial < 3; trial++ {
				key := make([]byte, 16)
				rng.Read(key)
				ref, err := rijndaelip.NewCipher(key)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rtlDrv.LoadKey(key); err != nil {
					t.Fatal(err)
				}
				if _, err := mapDrv.LoadKey(key); err != nil {
					t.Fatal(err)
				}
				for _, enc := range dirs {
					for i := range blocks {
						blocks[i] = make([]byte, 16)
						rng.Read(blocks[i])
					}
					want, wantCycles, err := rtlDrv.ProcessVector(blocks, enc)
					if err != nil {
						t.Fatal(err)
					}
					got, gotCycles, err := mapDrv.ProcessVector(blocks, enc)
					if err != nil {
						t.Fatal(err)
					}
					if gotCycles != wantCycles {
						t.Errorf("key %x enc=%v: mapped took %d cycles, RTL %d", key, enc, gotCycles, wantCycles)
					}
					sw := make([]byte, 16)
					for i := range blocks {
						if enc {
							ref.Encrypt(sw, blocks[i])
						} else {
							ref.Decrypt(sw, blocks[i])
						}
						if !bytes.Equal(got[i], want[i]) || !bytes.Equal(want[i], sw) {
							t.Fatalf("key %x enc=%v lane %d: mapped %x, RTL %x, reference %x",
								key, enc, i, got[i], want[i], sw)
						}
					}
				}
			}
		})
	}
}
