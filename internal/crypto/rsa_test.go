package crypto

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// testKeyBits keeps RSA tests fast; the math is size-independent.
const testKeyBits = 512

func testKey(t *testing.T) *RSAPrivateKey {
	t.Helper()
	key, err := GenerateRSA(testKeyBits, nil)
	if err != nil {
		t.Fatalf("GenerateRSA: %v", err)
	}
	return key
}

func TestRSAEncryptDecrypt(t *testing.T) {
	key := testKey(t)
	for _, msg := range [][]byte{
		[]byte("k"),
		[]byte("a fresh conventional key K"),
		{0, 0, 0, 1},
		{},
	} {
		ct, err := key.RSAPublicKey.Encrypt(nil, msg)
		if err != nil {
			t.Fatalf("Encrypt(%q): %v", msg, err)
		}
		pt, err := key.Decrypt(ct)
		if err != nil {
			t.Fatalf("Decrypt(%q): %v", msg, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("round trip: got %q want %q", pt, msg)
		}
	}
}

func TestRSAEncryptionIsRandomized(t *testing.T) {
	key := testKey(t)
	msg := []byte("same plaintext")
	a, err := key.RSAPublicKey.Encrypt(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := key.RSAPublicKey.Encrypt(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two encryptions of the same plaintext were identical")
	}
}

func TestRSAMessageTooLong(t *testing.T) {
	key := testKey(t)
	for _, n := range []int{testKeyBits / 8, testKeyBits/8 - 10} {
		if _, err := key.RSAPublicKey.Encrypt(nil, make([]byte, n)); err != ErrMessageTooLong {
			t.Fatalf("%d bytes: want ErrMessageTooLong, got %v", n, err)
		}
	}
	// The longest that fits leaves room for 0x00 0x02, 8 random bytes
	// and the 0x00 separator.
	msg := bytes.Repeat([]byte{0xA5}, testKeyBits/8-11)
	ct, err := key.RSAPublicKey.Encrypt(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := key.Decrypt(ct); err != nil || !bytes.Equal(pt, msg) {
		t.Fatalf("round trip of %d bytes: %x, %v", len(msg), pt, err)
	}
}

func TestRSASignVerify(t *testing.T) {
	key := testKey(t)
	digest := sha256.Sum256([]byte("the reply containing K and the reverse key"))
	sig, err := key.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !key.RSAPublicKey.Verify(digest[:], sig) {
		t.Fatal("valid signature rejected")
	}
	other := sha256.Sum256([]byte("different message"))
	if key.RSAPublicKey.Verify(other[:], sig) {
		t.Fatal("signature verified against wrong digest")
	}
	sig[3] ^= 1
	if key.RSAPublicKey.Verify(digest[:], sig) {
		t.Fatal("tampered signature verified")
	}
}

func TestRSAVerifyWrongKey(t *testing.T) {
	a, b := testKey(t), testKey(t)
	digest := sha256.Sum256([]byte("msg"))
	sig, err := a.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if b.RSAPublicKey.Verify(digest[:], sig) {
		t.Fatal("signature verified under an unrelated key")
	}
}

func TestRSADecryptGarbage(t *testing.T) {
	key := testKey(t)
	if _, err := key.Decrypt(make([]byte, testKeyBits/8)); err == nil {
		t.Fatal("decrypting all-zeros succeeded")
	}
	huge := bytes.Repeat([]byte{0xff}, testKeyBits/8)
	if _, err := key.Decrypt(huge); err == nil {
		t.Fatal("ciphertext ≥ modulus accepted")
	}
}

func TestRSAMinimumKeySize(t *testing.T) {
	if _, err := GenerateRSA(64, nil); err == nil {
		t.Fatal("GenerateRSA accepted a 64-bit modulus")
	}
}

func TestRSAPublicKeyEqual(t *testing.T) {
	a, b := testKey(t), testKey(t)
	if !a.RSAPublicKey.Equal(&a.RSAPublicKey) {
		t.Error("key not equal to itself")
	}
	if a.RSAPublicKey.Equal(&b.RSAPublicKey) {
		t.Error("distinct keys compared equal")
	}
	if a.RSAPublicKey.Equal(nil) {
		t.Error("Equal(nil) = true")
	}
}
