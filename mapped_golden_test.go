package rijndaelip_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rijndaelip"
	"rijndaelip/internal/netlist"
)

// mappedGolden pins the LUT cover every Build and Build256 flow maps, on
// both devices: the SHA-256 of the netlist's BLIF, its LUT count and its
// LUT depth. The Table 2 occupation, the timing closure, the netlist tape
// and its generated kernel are all derived from this cover, so a change to
// the mapper that is meant to be a pure speed-up must leave every entry
// unchanged: same LUTs, leaves, masks and order.
var mappedGolden = map[string]struct {
	digest string
	luts   int
	depth  int
}{
	"encrypt/128/acex":    {"e794c604991061bcb78e92cd2200ad28a4de856e1ea1413dbbb60c65f1f29bdd", 1285, 4},
	"encrypt/128/cyclone": {"9ba590db6a6145c228aefeebee46464866b0402dcaa7cbf9f3529171a3fe377b", 3173, 8},
	"encrypt/256/acex":    {"cfb612dc4aa111925c903db770dc902263a51c0169685272317f2400bcb5ffe2", 1443, 4},
	"encrypt/256/cyclone": {"19d85296d9926dd30db1fb0b2a73b46be8e16112f35731ae0a4f6a39b9687b25", 3385, 8},
	"decrypt/128/acex":    {"98ac6d1c5865777338c05ec362a8dae938af8273e02762b2b029ce2828dacd35", 1945, 6},
	"decrypt/128/cyclone": {"3cea367c0f61bc1bf31594a5dcdb008af1de63a19d628819acbd9285cc3da48c", 3901, 9},
	"decrypt/256/acex":    {"ec201af78bb4c2b4a66a3512ccc8f13870cac87d09bf4cda58f27c16717431db", 2454, 7},
	"decrypt/256/cyclone": {"fb614fffdfe58856d519601e2dafac84576e83ed33c7cba7268a256d36767855", 4540, 10},
	"both/128/acex":       {"f08aba4992be55ee17ca15e3bae49b6236be8c517a8c85bb6433197dc3302530", 2875, 6},
	"both/128/cyclone":    {"ed570ce95fa72a297ea1b41f156f663f8c2891cd649961fa73516602f29b80b3", 6598, 9},
	"both/256/acex":       {"dd76fc5850d94a595ba7e81db3d56222897ec1399571931fc52b24d66d075b63", 3371, 8},
	"both/256/cyclone":    {"64a8b16881664b32c666127345a5e57f8229d2ba5c3463eabcfec951e554970f", 6365, 11},
}

// lutDepth returns the longest chain of LUTs between sequential elements,
// ROM outputs or primary inputs: the mapped depth of the cover. LUTs are
// emitted in topological order, so one forward pass suffices.
func lutDepth(nl *netlist.Netlist) int {
	depth := make([]int, nl.NumNets())
	worst := 0
	for _, l := range nl.LUTs {
		d := 0
		for _, in := range l.Inputs {
			if in >= 0 {
				d = max(d, depth[in])
			}
		}
		depth[l.Out] = d + 1
		worst = max(worst, d+1)
	}
	return worst
}

func TestMappedNetlistGolden(t *testing.T) {
	builds := []struct {
		name  string
		build func(rijndaelip.Variant, rijndaelip.Device, ...rijndaelip.Options) (*rijndaelip.Implementation, error)
	}{
		{"128", rijndaelip.Build},
		{"256", rijndaelip.Build256},
	}
	devices := []struct {
		name string
		dev  rijndaelip.Device
	}{
		{"acex", rijndaelip.Acex1K()},
		{"cyclone", rijndaelip.Cyclone()},
	}
	for _, v := range []rijndaelip.Variant{rijndaelip.Encrypt, rijndaelip.Decrypt, rijndaelip.Both} {
		for _, b := range builds {
			for _, d := range devices {
				name := v.String() + "/" + b.name + "/" + d.name
				t.Run(name, func(t *testing.T) {
					impl, err := b.build(v, d.dev)
					if err != nil {
						t.Fatal(err)
					}
					nl := impl.Netlist.Raw()
					h := sha256.New()
					if err := nl.WriteBLIF(h); err != nil {
						t.Fatal(err)
					}
					digest := hex.EncodeToString(h.Sum(nil))
					luts, depth := nl.NumLUTs(), lutDepth(nl)
					want, ok := mappedGolden[name]
					if !ok {
						t.Fatalf("no golden entry; got %q: {%q, %d, %d}", name, digest, luts, depth)
					}
					if digest != want.digest || luts != want.luts || depth != want.depth {
						t.Errorf("mapped cover drifted:\n got  %q, %d LUTs, depth %d\n want %q, %d LUTs, depth %d",
							digest, luts, depth, want.digest, want.luts, want.depth)
					}
				})
			}
		}
	}
}
