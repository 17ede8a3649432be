package rijndaelip_test

import (
	"bytes"
	stdcipher "crypto/cipher"
	"testing"

	"rijndaelip"
	"rijndaelip/internal/modes"
)

// TestHardwareBlockGCM validates a full authenticated-encryption protocol
// (GCM) where every block operation is a 50-cycle bus transaction against
// the cycle-accurate simulation of the combined core, cross-checked
// against the Go standard library's GCM over the software reference.
func TestHardwareBlockGCM(t *testing.T) {
	impl, err := rijndaelip.Build(rijndaelip.Both, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("gcm-over-fpga-ip")
	hw, err := impl.NewHardwareBlock(key)
	if err != nil {
		t.Fatal(err)
	}
	g, err := modes.NewGCM(hw)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("0123456789ab")
	pt := []byte("backbone traffic protected by the low-occupation IP")
	aad := []byte("hdr")

	sealed, err := g.Seal(nonce, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	if hw.Err() != nil {
		t.Fatal(hw.Err())
	}
	if hw.Cycles == 0 {
		t.Fatal("hardware block recorded no cycles")
	}

	// Reference: stdlib GCM over our software cipher.
	sw, err := rijndaelip.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := stdcipher.NewGCM(sw)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Seal(nil, nonce, pt, aad)
	if !bytes.Equal(sealed, want) {
		t.Fatalf("hardware-backed GCM %x != reference %x", sealed, want)
	}

	back, err := g.Open(nonce, sealed, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("hardware-backed GCM round trip failed")
	}
}

// TestHardwareBlockCMAC runs the RFC 4493 first vector through the
// simulated hardware.
func TestHardwareBlockCMAC(t *testing.T) {
	impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	hw, err := impl.NewHardwareBlock(key)
	if err != nil {
		t.Fatal(err)
	}
	mac, err := modes.CMAC(hw, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28,
		0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75, 0x67, 0x46}
	if !bytes.Equal(mac, want) {
		t.Fatalf("hardware CMAC = %x, want %x", mac, want)
	}
}

// TestHardwareBlockShortBuffers checks the block adapter's buffer
// validation: a src or dst shorter than one block must be recorded as a
// proper error (and the reachable output zeroed), never a panic or a
// silent truncation — and the error must not poison unrelated state.
func TestHardwareBlockShortBuffers(t *testing.T) {
	impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	hw, err := impl.NewHardwareBlock([]byte("short-buffer-key"))
	if err != nil {
		t.Fatal(err)
	}
	dst := bytes.Repeat([]byte{0xFF}, 8)
	hw.Encrypt(dst, make([]byte, 16)) // dst too short
	if hw.Err() == nil {
		t.Fatal("short dst not recorded as error")
	}
	if !bytes.Equal(dst, make([]byte, 8)) {
		t.Errorf("short dst not zeroed: %x", dst)
	}

	hw2, err := impl.NewHardwareBlock([]byte("short-buffer-key"))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 16)
	hw2.Encrypt(out, make([]byte, 15)) // src too short
	if hw2.Err() == nil {
		t.Fatal("short src not recorded as error")
	}
	if !bytes.Equal(out, make([]byte, 16)) {
		t.Errorf("output not zeroed on short src: %x", out)
	}
	// Once poisoned, later full-size calls keep reporting the first error.
	hw2.Encrypt(out, make([]byte, 16))
	if hw2.Err() == nil {
		t.Error("first error not sticky")
	}
}

// TestHardenFlow measures the TMR cost through the full flow: 3x the
// registers plus one voter LUT each, still fitting the device, still
// meeting a reasonable clock, and the functional campaign is covered by
// internal/tmr.
func TestHardenFlow(t *testing.T) {
	impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	hard, err := impl.Harden()
	if err != nil {
		t.Fatal(err)
	}
	if hard.Stats.FFsAfter != 3*hard.Stats.FFsBefore {
		t.Errorf("FF triplication wrong: %+v", hard.Stats)
	}
	if hard.Fit.LogicCells <= impl.Fit.LogicCells {
		t.Error("hardening should cost logic cells")
	}
	if hard.ClockNS() < impl.ClockNS() {
		t.Error("hardening should not speed the clock up")
	}
	if hard.ThroughputMbps() <= 0 {
		t.Error("hardened throughput not computed")
	}
}

// TestMeasurePower exercises the §6 power analysis across variants: the
// combined core must draw more than the encryptor, and the report must
// carry a sensible breakdown.
func TestMeasurePower(t *testing.T) {
	key := []byte("power-meas-key!!")
	enc, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	encRep, err := enc.MeasurePower(key, 2)
	if err != nil {
		t.Fatal(err)
	}
	if encRep.PowerMW <= encRep.Model.LeakageMW {
		t.Fatalf("no dynamic power recorded: %+v", encRep)
	}
	if encRep.MemoryNJ <= 0 {
		t.Error("EAB reads recorded no energy")
	}

	both, err := rijndaelip.Build(rijndaelip.Both, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	bothRep, err := both.MeasurePower(key, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bothRep.DynamicEnergyNJ <= encRep.DynamicEnergyNJ {
		t.Errorf("combined core dynamic energy %.2f nJ not above encryptor %.2f nJ",
			bothRep.DynamicEnergyNJ, encRep.DynamicEnergyNJ)
	}

	// The AES-256 core loads its 32-byte key in two bus beats and rejects
	// a 16-byte one instead of measuring a half-loaded core.
	enc256, err := rijndaelip.Build256(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	rep256, err := enc256.MeasurePower(append(key, key...), 2)
	if err != nil {
		t.Fatalf("AES-256 core rejected a 32-byte key: %v", err)
	}
	if rep256.PowerMW <= rep256.Model.LeakageMW {
		t.Errorf("AES-256 core recorded no dynamic power: %+v", rep256)
	}
	if _, err := enc256.MeasurePower(key, 2); err == nil {
		t.Error("AES-256 core accepted a 16-byte key")
	}
	if _, err := enc.MeasurePower(append(key, key...), 2); err == nil {
		t.Error("AES-128 core accepted a 32-byte key")
	}
}

// TestPlaceAndTime exercises the placement-aware timing refinement through
// the public API.
func TestPlaceAndTime(t *testing.T) {
	impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	placed, err := impl.PlaceAndTime(7)
	if err != nil {
		t.Fatal(err)
	}
	if placed.HPWL <= 0 || placed.HPWL >= placed.InitialHPWL {
		t.Errorf("placement quality: %.0f -> %.0f", placed.InitialHPWL, placed.HPWL)
	}
	if placed.Timing.Period <= impl.ClockNS() {
		t.Errorf("placed period %.2f should exceed the wire-free estimate %.2f",
			placed.Timing.Period, impl.ClockNS())
	}
	if placed.Timing.Period > 2.5*impl.ClockNS() {
		t.Errorf("placed period %.2f implausible vs estimate %.2f",
			placed.Timing.Period, impl.ClockNS())
	}
}

// TestPlaceRouteAndTime runs the complete back end through the public API:
// place, route to convergence, and routed-wirelength timing.
func TestPlaceRouteAndTime(t *testing.T) {
	if testing.Short() {
		t.Skip("full P&R skipped in -short mode")
	}
	impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := impl.PlaceRouteAndTime(2003)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Routing.Converged {
		t.Errorf("routing did not converge (max channel use %d)", pr.Routing.MaxChannelUse)
	}
	if float64(pr.Routing.TotalWirelength) < pr.Placement.HPWL {
		t.Errorf("routed length %d below the HPWL lower bound %.0f",
			pr.Routing.TotalWirelength, pr.Placement.HPWL)
	}
	if pr.Timing.Period <= impl.ClockNS() || pr.Timing.Period > 2.5*impl.ClockNS() {
		t.Errorf("routed period %.2f vs estimate %.2f out of band",
			pr.Timing.Period, impl.ClockNS())
	}
}

// TestBuild256Flow runs the AES-256 extension through the whole flow: fit,
// timing and a functional check, comparing its cost against the AES-128
// encryptor.
func TestBuild256Flow(t *testing.T) {
	impl256, err := rijndaelip.Build256(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	impl128, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	if impl256.Core.BlockLatency != 70 {
		t.Errorf("AES-256 latency %d cycles, want 70", impl256.Core.BlockLatency)
	}
	if impl256.Fit.MemoryBits != impl128.Fit.MemoryBits {
		t.Errorf("AES-256 memory %d, want the same 16 Kbit as AES-128", impl256.Fit.MemoryBits)
	}
	// The wider key window costs extra registers and muxing.
	if impl256.Fit.LogicCells <= impl128.Fit.LogicCells {
		t.Errorf("AES-256 LCs %d not above AES-128's %d", impl256.Fit.LogicCells, impl128.Fit.LogicCells)
	}
	// Throughput drops by roughly the 50/70 cycle ratio.
	ratio := impl256.ThroughputMbps() / impl128.ThroughputMbps()
	if ratio < 0.5 || ratio > 0.85 {
		t.Errorf("AES-256/AES-128 throughput ratio %.2f outside the 50/70-cycle band", ratio)
	}
	// Functional check through the driver.
	drv := impl256.NewDriver()
	key := make([]byte, 32)
	if _, err := drv.LoadKey(key); err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, 16)
	got, _, err := drv.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := rijndaelip.NewCipher(key)
	want := make([]byte, 16)
	ref.Encrypt(want, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("AES-256 flow encrypt = %x, want %x", got, want)
	}
}
