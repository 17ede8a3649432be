package modes

import (
	"bytes"
	stdcipher "crypto/cipher"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"rijndaelip/internal/aes"
)

func testCipher(t testing.TB, key []byte) *aes.Cipher {
	c, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestPKCS7(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i + 1)
		}
		padded := PadPKCS7(data, 16)
		if len(padded)%16 != 0 || len(padded) <= len(data)-1 {
			t.Fatalf("n=%d: padded length %d", n, len(padded))
		}
		back, err := UnpadPKCS7(padded, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("n=%d: round trip failed", n)
		}
	}
	// Corrupt padding must be rejected.
	bad := PadPKCS7([]byte("abc"), 16)
	bad[len(bad)-2] ^= 1
	if _, err := UnpadPKCS7(bad, 16); err == nil {
		t.Error("corrupt padding accepted")
	}
	if _, err := UnpadPKCS7(nil, 16); err == nil {
		t.Error("empty input accepted")
	}
	zero := make([]byte, 16)
	if _, err := UnpadPKCS7(zero, 16); err == nil {
		t.Error("zero padding byte accepted")
	}
}

// TestUnpadBlockSizeValidation pins the unpad path's argument checking:
// an invalid block size must come back as an error, never a panic (the
// historical bug divided by blockSize before validating it).
func TestUnpadBlockSizeValidation(t *testing.T) {
	for _, bs := range []int{0, -1, 256, 1000} {
		out, err := UnpadPKCS7([]byte("0123456789abcdef"), bs)
		if err == nil {
			t.Errorf("blockSize=%d: accepted (returned %q)", bs, out)
		}
	}
}

// TestUnpadConstantTimeSemantics pins the all-bytes-examined contract of
// the padding check: the verdict is a function of the whole final block
// with no data-dependent early exit. Observable consequences tested here:
// (1) every corruption inside the pad region yields the one identical
// sentinel error, carrying no positional information; (2) no byte outside
// the pad region influences the verdict; (3) the length byte itself is
// covered by the same accumulated check.
func TestUnpadConstantTimeSemantics(t *testing.T) {
	for padLen := 1; padLen <= 16; padLen++ {
		data := make([]byte, 32)
		for i := range data {
			data[i] = 0xC3
		}
		for i := 32 - padLen; i < 32; i++ {
			data[i] = byte(padLen)
		}
		want, err := UnpadPKCS7(data, 16)
		if err != nil || len(want) != 32-padLen {
			t.Fatalf("padLen=%d: valid padding rejected: %v", padLen, err)
		}
		// (1) Corrupt each pad filler byte in turn: always the same sentinel.
		for i := 32 - padLen; i < 31; i++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x01
			if _, err := UnpadPKCS7(bad, 16); err != ErrBadPadding {
				t.Errorf("padLen=%d corrupt@%d: got %v, want ErrBadPadding", padLen, i, err)
			}
		}
		// (3) Corrupt the length byte to an out-of-range value: same sentinel.
		bad := append([]byte(nil), data...)
		bad[31] = 17
		if _, err := UnpadPKCS7(bad, 16); err != ErrBadPadding {
			t.Errorf("padLen=%d bad length byte: got %v, want ErrBadPadding", padLen, err)
		}
		// (2) Bytes outside the pad never affect the verdict.
		for i := 0; i < 32-padLen; i++ {
			ok := append([]byte(nil), data...)
			ok[i] ^= 0xFF
			out, err := UnpadPKCS7(ok, 16)
			if err != nil || len(out) != 32-padLen {
				t.Errorf("padLen=%d flip@%d outside pad changed verdict: %v", padLen, i, err)
			}
		}
	}
	// pkcs7Verify itself walks the entire block even when the very first
	// byte it logically needs (the length byte) already settles the
	// verdict — a short block sliced from a larger buffer must never read
	// beyond its bounds, which the range discipline of the loop guarantees
	// and the race/bounds checker would catch here.
	if n, ok := pkcs7Verify([]byte{2, 2}); !ok || n != 2 {
		t.Errorf("pkcs7Verify minimal block: n=%d ok=%v", n, ok)
	}
}

// batchSpy wraps a scalar cipher in the BatchBlock interface, recording
// batch calls so the tests can prove the mode helpers route independent
// blocks through the batch path.
type batchSpy struct {
	*aes.Cipher
	encBatches, decBatches int
	blocks                 int
}

func (s *batchSpy) EncryptBlocks(dst, src []byte) error {
	s.encBatches++
	for i := 0; i+16 <= len(src); i += 16 {
		s.Cipher.Encrypt(dst[i:], src[i:])
		s.blocks++
	}
	return nil
}

func (s *batchSpy) DecryptBlocks(dst, src []byte) error {
	s.decBatches++
	for i := 0; i+16 <= len(src); i += 16 {
		s.Cipher.Decrypt(dst[i:], src[i:])
		s.blocks++
	}
	return nil
}

// TestBatchBlockFastPaths cross-checks every batch-capable entry point
// against the scalar implementation and asserts the independent-block
// modes issue exactly one batch call, while chained CBC encryption stays
// scalar.
func TestBatchBlockFastPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	key := randBytes(rng, 16)
	iv := randBytes(rng, 16)
	src := randBytes(rng, 7*16)
	c := testCipher(t, key)
	spy := &batchSpy{Cipher: c}

	ecbWant, _ := EncryptECB(c, src)
	ecbGot, err := EncryptECB(spy, src)
	if err != nil || !bytes.Equal(ecbGot, ecbWant) {
		t.Fatalf("batch ECB encrypt diverged: %v", err)
	}
	if spy.encBatches != 1 {
		t.Errorf("ECB encrypt used %d batch calls, want 1", spy.encBatches)
	}
	back, err := DecryptECB(spy, ecbGot)
	if err != nil || !bytes.Equal(back, src) {
		t.Fatalf("batch ECB decrypt diverged: %v", err)
	}

	ctrWant, _ := CTRStream(c, iv, src[:100]) // partial final block
	ctrGot, err := CTRStream(spy, iv, src[:100])
	if err != nil || !bytes.Equal(ctrGot, ctrWant) {
		t.Fatalf("batch CTR diverged: %v", err)
	}
	ctr32Want, _ := CTRStream32(c, iv, src)
	ctr32Got, err := CTRStream32(spy, iv, src)
	if err != nil || !bytes.Equal(ctr32Got, ctr32Want) {
		t.Fatalf("batch CTR32 diverged: %v", err)
	}

	cbcCT, _ := EncryptCBC(c, iv, src)
	spy.decBatches = 0
	cbcPT, err := DecryptCBC(spy, iv, cbcCT)
	if err != nil || !bytes.Equal(cbcPT, src) {
		t.Fatalf("batch CBC decrypt diverged: %v", err)
	}
	if spy.decBatches != 1 {
		t.Errorf("CBC decrypt used %d batch calls, want 1", spy.decBatches)
	}

	// CBC encryption is chained: it must produce the scalar result even on
	// a batch-capable cipher, going block by block.
	spy.encBatches = 0
	cbcGot, err := EncryptCBC(spy, iv, src)
	if err != nil || !bytes.Equal(cbcGot, cbcCT) {
		t.Fatalf("CBC encrypt over batch cipher diverged: %v", err)
	}
	if spy.encBatches != 0 {
		t.Errorf("chained CBC encrypt took the batch path (%d calls)", spy.encBatches)
	}

	// GCM's keystream rides CTRStream32, so sealing over a batch cipher
	// must match sealing over the scalar cipher bit for bit.
	gScalar, err := NewGCM(c)
	if err != nil {
		t.Fatal(err)
	}
	gBatch, err := NewGCM(spy)
	if err != nil {
		t.Fatal(err)
	}
	nonce := randBytes(rng, NonceSize)
	sWant, err := gScalar.Seal(nonce, src, []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	sGot, err := gBatch.Seal(nonce, src, []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sWant, sGot) {
		t.Error("GCM over batch cipher diverged from scalar GCM")
	}
}

func TestECBRoundTripAndStructure(t *testing.T) {
	c := testCipher(t, make([]byte, 16))
	// Two identical plaintext blocks give two identical ciphertext blocks:
	// the well-known ECB leak.
	src := bytes.Repeat([]byte{0xAB}, 32)
	ct, err := EncryptECB(c, src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct[:16], ct[16:]) {
		t.Error("ECB should repeat identical blocks")
	}
	back, err := DecryptECB(c, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Error("ECB round trip failed")
	}
	if _, err := EncryptECB(c, make([]byte, 15)); err == nil {
		t.Error("partial block accepted")
	}
}

func TestCBCAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key := randBytes(rng, 16)
	c := testCipher(t, key)
	for trial := 0; trial < 20; trial++ {
		iv := randBytes(rng, 16)
		src := randBytes(rng, 16*(1+rng.Intn(8)))
		got, err := EncryptCBC(c, iv, src)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(src))
		stdcipher.NewCBCEncrypter(c, iv).CryptBlocks(want, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("CBC encrypt mismatch")
		}
		back, err := DecryptCBC(c, iv, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, src) {
			t.Fatal("CBC round trip failed")
		}
	}
	if _, err := EncryptCBC(c, make([]byte, 8), make([]byte, 16)); err == nil {
		t.Error("short iv accepted")
	}
}

func TestCTRAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	key := randBytes(rng, 16)
	c := testCipher(t, key)
	for trial := 0; trial < 20; trial++ {
		iv := randBytes(rng, 16)
		src := randBytes(rng, 1+rng.Intn(100))
		got, err := CTRStream(c, iv, src)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(src))
		stdcipher.NewCTR(c, iv).XORKeyStream(want, src)
		if !bytes.Equal(got, want) {
			t.Fatal("CTR mismatch vs stdlib")
		}
		back, err := CTRStream(c, iv, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, src) {
			t.Fatal("CTR round trip failed")
		}
	}
}

func TestCTRCounterCarry(t *testing.T) {
	// An IV of all 0xFF must wrap cleanly across the whole block.
	key := make([]byte, 16)
	c := testCipher(t, key)
	iv := bytes.Repeat([]byte{0xFF}, 16)
	src := make([]byte, 48)
	got, err := CTRStream(c, iv, src)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(src))
	stdcipher.NewCTR(c, iv).XORKeyStream(want, src)
	if !bytes.Equal(got, want) {
		t.Fatal("CTR carry mismatch vs stdlib")
	}
}

func TestOFBAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	key := randBytes(rng, 16)
	c := testCipher(t, key)
	for trial := 0; trial < 10; trial++ {
		iv := randBytes(rng, 16)
		src := randBytes(rng, 1+rng.Intn(80))
		got, err := OFBStream(c, iv, src)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(src))
		//lint:ignore SA1019 cross-checking our implementation against the reference
		stdcipher.NewOFB(c, iv).XORKeyStream(want, src)
		if !bytes.Equal(got, want) {
			t.Fatal("OFB mismatch vs stdlib")
		}
	}
}

func TestCFBAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	key := randBytes(rng, 16)
	c := testCipher(t, key)
	for trial := 0; trial < 10; trial++ {
		iv := randBytes(rng, 16)
		src := randBytes(rng, 1+rng.Intn(80))
		got, err := EncryptCFB(c, iv, src)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(src))
		//lint:ignore SA1019 cross-checking our implementation against the reference
		stdcipher.NewCFBEncrypter(c, iv).XORKeyStream(want, src)
		if !bytes.Equal(got, want) {
			t.Fatal("CFB mismatch vs stdlib")
		}
		back, err := DecryptCFB(c, iv, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, src) {
			t.Fatal("CFB round trip failed")
		}
	}
}

// TestCFBDecryptBatch decrypts CFB through a BatchBlock wrapper at
// lengths around the block boundary: the keystream must come from exactly
// one batch call (none for empty input) and match crypto/cipher.
func TestCFBDecryptBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := testCipher(t, randBytes(rng, 16))
	iv := randBytes(rng, 16)
	for _, n := range []int{0, 1, 15, 16, 17, 100} {
		pt := randBytes(rng, n)
		ct := make([]byte, n)
		//lint:ignore SA1019 cross-checking our implementation against the reference
		stdcipher.NewCFBEncrypter(c, iv).XORKeyStream(ct, pt)
		want := make([]byte, n)
		//lint:ignore SA1019 cross-checking our implementation against the reference
		stdcipher.NewCFBDecrypter(c, iv).XORKeyStream(want, ct)
		spy := &batchSpy{Cipher: c}
		got, err := DecryptCFB(spy, iv, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, pt) {
			t.Errorf("len %d: batch CFB decrypt diverged from crypto/cipher", n)
		}
		wantBatches := 1
		if n == 0 {
			wantBatches = 0
		}
		if spy.encBatches != wantBatches || spy.decBatches != 0 || spy.blocks != (n+15)/16 {
			t.Errorf("len %d: %d encrypt and %d decrypt batches over %d blocks, want %d/0/%d",
				n, spy.encBatches, spy.decBatches, spy.blocks, wantBatches, (n+15)/16)
		}
	}
}

// TestCMACRFC4493 checks the four official AES-128 CMAC vectors.
func TestCMACRFC4493(t *testing.T) {
	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	c := testCipher(t, key)
	msgFull, _ := hex.DecodeString("6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710")
	cases := []struct {
		n    int
		want string
	}{
		{0, "bb1d6929e9593728" + "7fa37d129b756746"},
		{16, "070a16b46b4d4144" + "f79bdd9dd04a287c"},
		{40, "dfa66747de9ae630" + "30ca32611497c827"},
		{64, "51f0bebf7e3b9d92" + "fc49741779363cfe"},
	}
	for _, cse := range cases {
		mac, err := CMAC(c, msgFull[:cse.n])
		if err != nil {
			t.Fatal(err)
		}
		want, _ := hex.DecodeString(cse.want)
		if !bytes.Equal(mac, want) {
			t.Errorf("CMAC(%d bytes) = %x, want %x", cse.n, mac, want)
		}
		okv, err := VerifyCMAC(c, msgFull[:cse.n], mac)
		if err != nil || !okv {
			t.Errorf("VerifyCMAC rejected a valid MAC")
		}
		mac[0] ^= 1
		okv, _ = VerifyCMAC(c, msgFull[:cse.n], mac)
		if okv {
			t.Error("VerifyCMAC accepted a corrupt MAC")
		}
	}
}

func TestCMACRequires128(t *testing.T) {
	key := make([]byte, 24)
	c := testCipher(t, key)
	if _, err := CMAC(c, nil); err != nil {
		t.Fatal("AES-192 still has a 128-bit block; CMAC should work:", err)
	}
}

func TestGCMAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		key := randBytes(rng, 16)
		c := testCipher(t, key)
		g, err := NewGCM(c)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdcipher.NewGCM(c)
		if err != nil {
			t.Fatal(err)
		}
		nonce := randBytes(rng, NonceSize)
		pt := randBytes(rng, rng.Intn(90))
		aad := randBytes(rng, rng.Intn(40))

		got, err := g.Seal(nonce, pt, aad)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Seal(nil, nonce, pt, aad)
		if !bytes.Equal(got, want) {
			t.Fatalf("GCM seal mismatch:\n got %x\nwant %x", got, want)
		}
		back, err := g.Open(nonce, got, aad)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, pt) {
			t.Fatal("GCM open round trip failed")
		}
		// Tampering must be rejected.
		got[rng.Intn(len(got))] ^= 1
		if _, err := g.Open(nonce, got, aad); err == nil {
			t.Fatal("GCM accepted a tampered message")
		}
	}
}

func TestGCMKnownVector(t *testing.T) {
	// NIST GCM test case 3 (AES-128).
	key, _ := hex.DecodeString("feffe9928665731c6d6a8f9467308308")
	nonce, _ := hex.DecodeString("cafebabefacedbaddecaf888")
	pt, _ := hex.DecodeString("d9313225f88406e5a55909c5aff5269a" +
		"86a7a9531534f7da2e4c303d8a318a72" +
		"1c3c0c95956809532fcf0e2449a6b525" +
		"b16aedf5aa0de657ba637b391aafd255")
	wantCT, _ := hex.DecodeString("42831ec2217774244b7221b784d0d49c" +
		"e3aa212f2c02a4e035c17e2329aca12e" +
		"21d514b25466931c7d8f6a5aac84aa05" +
		"1ba30b396a0aac973d58e091473f5985")
	wantTag, _ := hex.DecodeString("4d5c2af327cd64a62cf35abd2ba6fab4")
	c := testCipher(t, key)
	g, err := NewGCM(c)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := g.Seal(nonce, pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sealed[:len(pt)], wantCT) {
		t.Fatalf("GCM ciphertext mismatch:\n got %x\nwant %x", sealed[:len(pt)], wantCT)
	}
	if !bytes.Equal(sealed[len(pt):], wantTag) {
		t.Fatalf("GCM tag = %x, want %x", sealed[len(pt):], wantTag)
	}
}

func TestGCMErrors(t *testing.T) {
	c := testCipher(t, make([]byte, 16))
	g, _ := NewGCM(c)
	if _, err := g.Seal(make([]byte, 5), nil, nil); err == nil {
		t.Error("bad nonce accepted")
	}
	if _, err := g.Open(make([]byte, 12), make([]byte, 4), nil); err == nil {
		t.Error("short message accepted")
	}
}

// TestGHASHLinearity: GHASH over a fixed key is GF(2)-linear in the data.
func TestGHASHLinearity(t *testing.T) {
	c := testCipher(t, []byte("0123456789abcdef"))
	g, _ := NewGCM(c)
	f := func(a, b [16]byte) bool {
		ha := g.ghash(nil, a[:])
		hb := g.ghash(nil, b[:])
		var ab [16]byte
		for i := range ab {
			ab[i] = a[i] ^ b[i]
		}
		hab := g.ghash(nil, ab[:])
		// ghash includes the length block, which is identical for all three
		// inputs; linearity holds after cancelling it: H(a)^H(b)^H(a^b) =
		// H(0) (the ghash of the zero block).
		var zero [16]byte
		h0 := g.ghash(nil, zero[:])
		for i := range hab {
			if hab[i] != ha[i]^hb[i]^h0[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDbl(t *testing.T) {
	// RFC 4493 subkey example: K = 2b7e..., L = 7df76b0c1ab899b33e42f047b91b546f,
	// K1 = fbeed618357133667c85e08f7236a8de.
	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	c := testCipher(t, key)
	l := make([]byte, 16)
	c.Encrypt(l, l)
	wantL, _ := hex.DecodeString("7df76b0c1ab899b33e42f047b91b546f")
	if !bytes.Equal(l, wantL) {
		t.Fatalf("L = %x", l)
	}
	k1 := dbl(l)
	wantK1, _ := hex.DecodeString("fbeed618357133667c85e08f7236a8de")
	if !bytes.Equal(k1, wantK1) {
		t.Fatalf("K1 = %x, want %x", k1, wantK1)
	}
}

func BenchmarkGCMSeal(b *testing.B) {
	c := testCipher(b, make([]byte, 16))
	g, _ := NewGCM(c)
	nonce := make([]byte, 12)
	pt := make([]byte, 1024)
	b.SetBytes(int64(len(pt)))
	for i := 0; i < b.N; i++ {
		if _, err := g.Seal(nonce, pt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCMAC(b *testing.B) {
	c := testCipher(b, make([]byte, 16))
	msg := make([]byte, 1024)
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		if _, err := CMAC(c, msg); err != nil {
			b.Fatal(err)
		}
	}
}
