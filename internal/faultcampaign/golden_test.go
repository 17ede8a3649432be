package faultcampaign

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"testing"

	"rijndaelip/internal/bfm"
	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/techmap"
)

// buildCore elaborates and maps one AES-128 core variant (asynchronous
// ROMs, the campaigns' default) and returns a campaign config over it.
func buildCore(t testing.TB, v rijndael.Variant) *Config {
	t.Helper()
	core, err := rijndael.New(rijndael.Config{Variant: v, ROMStyle: rtl.ROMAsync})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := core.Design.Synthesize(techmap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &Config{Netlist: nl, Core: core, Decrypt: v == rijndael.Decrypt}
}

// sentinel names the driver sentinel a trial's error wraps.
func sentinel(err error) byte {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, bfm.ErrTimeout):
		return 1
	case errors.Is(err, bfm.ErrLatency):
		return 2
	}
	return 3
}

// digest hashes every trial's fault, outcome, persistence verdict and
// error sentinel, in trial order.
func digest(res *Result) string {
	h := sha256.New()
	put := func(h hash.Hash, v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	for _, tr := range res.Trials {
		put(h, tr.Fault.Cycle)
		put(h, len(tr.Fault.FFs))
		for _, ff := range tr.Fault.FFs {
			put(h, ff)
		}
		if tr.ROM != nil {
			put(h, tr.ROM.ROM)
			put(h, tr.ROM.Word)
			put(h, tr.ROM.Bit)
		} else {
			put(h, -1)
		}
		persistent := 0
		if tr.Persistent {
			persistent = 1
		}
		h.Write([]byte{byte(tr.Outcome), byte(persistent), sentinel(tr.Err)})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCampaignGoldenDigests pins the classification of every trial of the
// exhaustive sweeps (lockstep with and without the latency assertion, and
// the plain sweep with the triage retry), a multi-bit sample and a
// stuck-at ROM campaign. Any change to the transaction loop, the lockstep
// divergence window, the latency check or the triage retry that moves a
// single trial changes a digest.
func TestCampaignGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps")
	}
	encCfg := buildCore(t, rijndael.Encrypt)
	decCfg := buildCore(t, rijndael.Decrypt)
	bothCfg := buildCore(t, rijndael.Both)
	bothCfg.Decrypt = true
	with := func(c *Config, f func(*Config)) Config {
		cp := *c
		f(&cp)
		return cp
	}
	cases := []struct {
		name   string
		run    func() (*Result, error)
		trials int
		want   string
	}{
		{"encrypt-lockstep-latency", func() (*Result, error) {
			return Sweep(with(encCfg, func(c *Config) { c.Lockstep, c.AssertLatency = true, true }))
		}, 32950, "790bcf8f570d93b256e515afe579674f9116686effedd4783347747ac37125af"},
		{"encrypt-plain-persistence", func() (*Result, error) {
			return Sweep(with(encCfg, func(c *Config) { c.ClassifyPersistence = true }))
		}, 32950, "dae69435a8d773ee01b39becced2706d1705e706a492c9794631761b477500cb"},
		{"decrypt-lockstep", func() (*Result, error) {
			return Sweep(with(decCfg, func(c *Config) { c.Lockstep = true }))
		}, 33200, "b247fe960db6a2c988696a9f462eef3e368dee71113a371561926dee5a002801"},
		{"both-decrypt-lockstep", func() (*Result, error) {
			return Sweep(with(bothCfg, func(c *Config) { c.Lockstep = true }))
		}, 39700, "f7098962557857705145f77787b0e97ab4a4774d0b06014dc15f6f00ce4dbc09"},
		{"encrypt-multibit3", func() (*Result, error) {
			return Run(with(encCfg, func(c *Config) {
				c.Trials, c.Seed, c.MultiBit, c.AssertLatency, c.ClassifyPersistence = 500, 11, 3, true, true
			}))
		}, 500, "c3460925ef37816c971be488238ac9ad5a2c04c710537ec2ca7e097977721b1e"},
		{"encrypt-stuck-at", func() (*Result, error) {
			return RunStuckAt(*encCfg, []ROMFault{
				{ROM: 0, Word: 0x53, Bit: 3},
				{ROM: 1, Word: 0x00, Bit: 12},
				{ROM: 7, Word: 0xff, Bit: 0},
				{ROM: 2, Word: 0x7c, Bit: 8},
			})
		}, 4, "94e9bc9547454fc9723b313546191a83223d18d63b571b507beb4a54cf5fbef5"},
	}
	for _, tc := range cases {
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Trials) != tc.trials {
			t.Errorf("%s: %d trials, want %d", tc.name, len(res.Trials), tc.trials)
		}
		if got := digest(res); got != tc.want {
			t.Errorf("%s: digest %s, want %s (%v)", tc.name, got, tc.want, res)
		}
	}
}
