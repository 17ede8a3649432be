package rijndael_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"rijndaelip/internal/logic"
	"rijndaelip/internal/rtl"
)

// goldenDigests pins the elaborated structure of every AES-128 core. The
// RTL tape, the netlist tape and the Table 2 figures are all derived from
// this structure, so a refactor of the elaborator must leave each digest
// unchanged: same AIG node for node, same registers, ROMs and ports.
var goldenDigests = map[string]string{
	"encrypt/async": "07afca14c4ca47b9ea53b53b833e4b824d02da0c4f772d340429c6b4c14076c1",
	"encrypt/logic": "c4f00a2cc26129d325091be945e5279d71a5e4e3749e543d0694607de2fb3007",
	"encrypt/sync":  "5a52f616fcf76d84662d815193f59e13729009d4ee8336c0e7109531812d26d0",
	"decrypt/async": "ea26829e468ce76ee2afe0119dc487c1252edb95430ddef7a7832dd13b6ae274",
	"decrypt/logic": "1960ce8cba19b8523487f3145985ba395825f6677c54367b0545ce10cfe90371",
	"decrypt/sync":  "dec0bbf89df543dd7e0ba47b5df1f8de16fdc6d0eb3043fb41087cffd79285e0",
	"both/async":    "5deb176d0e78741d100d6595507154b017498c13a29b2051810ce6e3ec8e0f42",
	"both/logic":    "0d349c9c2af4c85d4c5596451339075eab61d48c8e657da400094571d03d1ab2",
	"both/sync":     "db736b5d595984c3d17c73455d432e57c69ed0d0decc7263015ca66a2ada998c",
}

// designDigest hashes a design's complete structural view: every AIG node
// (input name or fanin pair, in node order), the input order, each
// register's name, width, init, next and enable literals, each ROM macro's
// name, style, address, outputs and contents, the ports, and the
// pre-mapping size statistics.
func designDigest(d *rtl.Design) string {
	v := d.LintView()
	h := sha256.New()
	put := func(xs ...uint64) {
		var buf [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	bus := func(b rtl.Bus) {
		put(uint64(len(b)))
		for _, l := range b {
			put(uint64(l))
		}
	}
	aig := v.AIG
	put(uint64(aig.NumNodes()), uint64(aig.NumInputs()))
	for id := uint32(1); id < uint32(aig.NumNodes()); id++ {
		if aig.IsInput(logic.Lit(id << 1)) {
			str(aig.InputName(id))
			continue
		}
		f0, f1 := aig.Fanins(id)
		put(uint64(f0), uint64(f1))
	}
	for i := 0; i < aig.NumInputs(); i++ {
		str(aig.InputName(aig.InputLit(i).Node()))
	}
	ports := func(ps []rtl.LintPort) {
		put(uint64(len(ps)))
		for _, p := range ps {
			str(p.Name)
			bus(p.Bus)
		}
	}
	ports(v.Inputs)
	ports(v.Outputs)
	put(uint64(len(v.Regs)))
	for _, r := range v.Regs {
		str(r.Name)
		bus(r.Q)
		bus(r.Next)
		put(uint64(r.En))
		for _, b := range r.Init {
			put(boolBit(b))
		}
	}
	put(uint64(len(v.ROMs)))
	for _, r := range v.ROMs {
		str(r.Name)
		put(uint64(r.Style))
		bus(r.Addr)
		bus(r.Out)
		h.Write(r.Contents[:])
	}
	st := d.Stats()
	put(uint64(st.AndNodes), uint64(st.Inputs), uint64(st.RegBits), uint64(st.ROMs), uint64(st.Depth))
	return hex.EncodeToString(h.Sum(nil))
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestAES128GoldenStructure elaborates all nine AES-128 configurations and
// compares their structural digests with the pinned values. Elaborating
// twice also proves the elaborator deterministic.
func TestAES128GoldenStructure(t *testing.T) {
	for _, v := range allVariants {
		for _, style := range allStyles {
			key := fmt.Sprintf("%s/%s", v, style)
			got := designDigest(newCore(t, v, style).Design)
			if again := designDigest(newCore(t, v, style).Design); again != got {
				t.Errorf("%s: elaboration is not deterministic: %s then %s", key, got, again)
			}
			if want := goldenDigests[key]; got != want {
				t.Errorf("%s: structural digest %s, want %s", key, got, want)
			}
		}
	}
}
