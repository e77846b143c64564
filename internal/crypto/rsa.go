package crypto

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// The §2.4 bootstrap handshake needs exactly two public-key operations:
// encrypt-to-a-public-key (a client sends a fresh conventional key K to
// the file server under the server's public key) and
// sign-with-a-private-key (the server's reply is transformed "with the
// inverse of F's public key" so anyone can verify it came from the key
// owner). Textbook RSA over math/big provides both. Key sizes are a
// parameter; tests use small keys for speed, the daemon defaults to
// 2048 bits.

// RSAPublicKey is an RSA public key (N, E).
type RSAPublicKey struct {
	N *big.Int
	E *big.Int
}

// RSAPrivateKey is an RSA key pair.
type RSAPrivateKey struct {
	RSAPublicKey
	D *big.Int
}

// ErrMessageTooLong is returned when a plaintext does not fit under the
// modulus.
var ErrMessageTooLong = errors.New("crypto: RSA message too long for modulus")

// GenerateRSA produces an RSA key pair with a modulus of the given bit
// length (minimum 128 for this library; real deployments use ≥ 2048).
// Randomness is drawn from r, or crypto/rand if r is nil.
func GenerateRSA(bitsLen int, r io.Reader) (*RSAPrivateKey, error) {
	if bitsLen < 128 {
		return nil, fmt.Errorf("crypto: RSA modulus must be at least 128 bits, got %d", bitsLen)
	}
	if r == nil {
		r = rand.Reader
	}
	e := big.NewInt(65537)
	one := big.NewInt(1)
	for {
		p, err := rand.Prime(r, bitsLen/2)
		if err != nil {
			return nil, fmt.Errorf("crypto: generating RSA prime: %w", err)
		}
		q, err := rand.Prime(r, bitsLen-bitsLen/2)
		if err != nil {
			return nil, fmt.Errorf("crypto: generating RSA prime: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue // e not invertible mod phi; re-draw primes
		}
		return &RSAPrivateKey{
			RSAPublicKey: RSAPublicKey{N: n, E: new(big.Int).Set(e)},
			D:            d,
		}, nil
	}
}

// Encrypt encrypts msg to the public key. msg must be at least 11
// bytes shorter than the modulus; the library's callers encrypt short
// symmetric keys and nonces only. The padding is PKCS #1 v1.5's
// (not OAEP): 0x00 0x02, at least 8 random non-zero bytes, 0x00, msg.
// So equal plaintexts encrypt differently across calls, bar odds of
// 255^-8.
func (pub *RSAPublicKey) Encrypt(r io.Reader, msg []byte) ([]byte, error) {
	if r == nil {
		r = rand.Reader
	}
	k := (pub.N.BitLen() + 7) / 8
	if len(msg) > k-3-minPad {
		return nil, ErrMessageTooLong
	}
	em := make([]byte, k)
	em[1] = 2
	pad := em[2 : k-len(msg)-1]
	if _, err := io.ReadFull(r, pad); err != nil {
		return nil, fmt.Errorf("crypto: RSA padding: %w", err)
	}
	for i := range pad {
		for pad[i] == 0 {
			if _, err := io.ReadFull(r, pad[i:i+1]); err != nil {
				return nil, fmt.Errorf("crypto: RSA padding: %w", err)
			}
		}
	}
	copy(em[k-len(msg):], msg)
	m := new(big.Int).SetBytes(em)
	c := new(big.Int).Exp(m, pub.E, pub.N)
	return c.FillBytes(make([]byte, k)), nil
}

// minPad is the fewest random bytes Encrypt pads with.
const minPad = 8

// Decrypt inverts Encrypt.
func (priv *RSAPrivateKey) Decrypt(ct []byte) ([]byte, error) {
	c := new(big.Int).SetBytes(ct)
	if c.Cmp(priv.N) >= 0 {
		return nil, errors.New("crypto: RSA ciphertext out of range")
	}
	m := new(big.Int).Exp(c, priv.D, priv.N)
	em := m.FillBytes(make([]byte, (priv.N.BitLen()+7)/8))
	// 0x00 0x02, the random bytes, the 0x00 separator: anything else is
	// a garbage ciphertext, and fails cleanly.
	sep := bytes.IndexByte(em[2:], 0)
	if em[0] != 0 || em[1] != 2 || sep < minPad {
		return nil, errors.New("crypto: RSA decryption failed (bad padding)")
	}
	return bytes.Clone(em[2+sep+1:]), nil
}

// Sign produces a signature over digest: the RSA private operation on
// the digest (which must be shorter than the modulus). Callers hash
// first; the bootstrap protocol signs SHA-256 digests.
func (priv *RSAPrivateKey) Sign(digest []byte) ([]byte, error) {
	k := (priv.N.BitLen() + 7) / 8
	if len(digest) > k-1 {
		return nil, ErrMessageTooLong
	}
	m := new(big.Int).SetBytes(digest)
	s := new(big.Int).Exp(m, priv.D, priv.N)
	return s.FillBytes(make([]byte, k)), nil
}

// Verify checks a signature produced by Sign against the digest.
func (pub *RSAPublicKey) Verify(digest, sig []byte) bool {
	s := new(big.Int).SetBytes(sig)
	if s.Cmp(pub.N) >= 0 {
		return false
	}
	m := new(big.Int).Exp(s, pub.E, pub.N)
	return m.Cmp(new(big.Int).SetBytes(digest)) == 0
}

// Equal reports whether two public keys are the same key.
func (pub *RSAPublicKey) Equal(other *RSAPublicKey) bool {
	return pub != nil && other != nil && pub.N.Cmp(other.N) == 0 && pub.E.Cmp(other.E) == 0
}
