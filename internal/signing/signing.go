// Package signing implements the integrity option of the DVM
// architecture (paper §2): "In some environments, the integrity of the
// transformed applications cannot be guaranteed between the server and
// the clients ... digital signatures attached by the static service
// components can ensure that the checks are inseparable from
// applications, and clients can be instructed to redirect incorrectly
// signed or unsigned code to the centralized services."
//
// The paper used MD5/RSA; this implementation uses stdlib SHA-256 HMAC,
// which preserves the property that matters to the architecture — checks
// riding with the code, unforgeable without the service key.
package signing

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"hash"
	"sync"

	"dvm/internal/classfile"
	"dvm/internal/rewrite"
)

// AttrSignature is the class attribute carrying the service signature.
const AttrSignature = classfile.AttrDVMSignature

// ErrUnsigned marks classes with no signature attribute; clients
// configured to require signatures redirect these back to the proxy.
var ErrUnsigned = errors.New("signing: class carries no service signature")

// ErrBadSignature marks tampered or foreign-key signatures.
var ErrBadSignature = errors.New("signing: signature verification failed")

// Signer holds the static services' signing key, as a pool of keyed MAC
// states: hmac.New hashes the key into its inner and outer pads, and a
// pooled state's Reset restores them from the copy it saved, so a MAC
// costs the message, not the key schedule and its allocations.
type Signer struct {
	macs sync.Pool // of *keyedMAC
}

// keyedMAC is one pooled MAC state and the buffer its sum lands in.
type keyedMAC struct {
	h   hash.Hash
	sum [sha256.Size]byte
}

// NewSigner creates a signer over a shared service key.
func NewSigner(key []byte) *Signer {
	key = append([]byte(nil), key...)
	s := &Signer{}
	s.macs.New = func() any { return &keyedMAC{h: hmac.New(sha256.New, key)} }
	return s
}

// mac computes the service MAC over prefix‖msg into a pooled state's
// sum, which is the caller's until it hands the state back with
// s.macs.Put. Reset comes first, so no state carries one message into
// the next.
func (s *Signer) mac(prefix, msg []byte) *keyedMAC {
	m := s.macs.Get().(*keyedMAC)
	m.h.Reset()
	m.h.Write(prefix)
	m.h.Write(msg)
	m.h.Sum(m.sum[:0])
	return m
}

// sum returns the MAC over prefix‖msg as a fresh 32-byte slice, for a
// caller that keeps it.
func (s *Signer) sum(prefix, msg []byte) []byte {
	m := s.mac(prefix, msg)
	out := append([]byte(nil), m.sum[:]...)
	s.macs.Put(m)
	return out
}

// digest computes the MAC over the class serialized WITHOUT its
// signature attribute, so signing is idempotent and verification can
// recompute the same bytes. It encodes a shallow view with a filtered
// attribute slice and never mutates cf: proxies verify classes straight
// out of a shared cache, concurrently, so this must be side-effect-free.
func (s *Signer) digest(cf *classfile.ClassFile) ([]byte, error) {
	view := *cf
	view.Attributes = make([]*classfile.Attribute, 0, len(cf.Attributes))
	for _, a := range cf.Attributes {
		if cf.AttrName(a) != AttrSignature {
			view.Attributes = append(view.Attributes, a)
		}
	}
	// The view's attribute list no longer matches the parsed bytes, so
	// the zero-copy encoder must not splice the original attribute range.
	view.MarkAttrsDirty()
	data, err := view.Encode()
	if err != nil {
		return nil, err
	}
	return s.sum(nil, data), nil
}

// Sign attaches (or replaces) the signature attribute on the class.
func (s *Signer) Sign(cf *classfile.ClassFile) error {
	// Intern the attribute name before digesting: attaching the
	// signature afterwards must not change the constant pool (and hence
	// the signed bytes).
	cf.Pool.AddUtf8(AttrSignature)
	cf.RemoveAttribute(AttrSignature)
	sum, err := s.digest(cf)
	if err != nil {
		return err
	}
	cf.AddAttribute(AttrSignature, sum)
	return nil
}

// Verify checks a parsed class's signature. It is read-only: safe to
// call concurrently on one instance, including one shared with readers.
func (s *Signer) Verify(cf *classfile.ClassFile) error {
	a := cf.FindAttr(cf.Attributes, AttrSignature)
	if a == nil {
		return ErrUnsigned
	}
	sum, err := s.digest(cf)
	if err != nil {
		return err
	}
	if !hmac.Equal(a.Info, sum) {
		return ErrBadSignature
	}
	return nil
}

// sealDomain separates detached seals from class-attribute signatures
// computed under the same service key.
var sealDomain = []byte("dvm-seal-v1\x00")

// SealBytes returns the service MAC over an arbitrary message — the
// detached form used for attestation records, where the sealed object
// is metadata about class bytes rather than the class itself. The seal is
// a fresh 32-byte slice: its caller keeps it.
func (s *Signer) SealBytes(msg []byte) []byte { return s.sum(sealDomain, msg) }

// VerifySeal reports whether mac is this service's seal over msg. It
// compares in constant time and allocates nothing.
func (s *Signer) VerifySeal(msg, mac []byte) bool {
	m := s.mac(sealDomain, msg)
	ok := hmac.Equal(m.sum[:], mac)
	s.macs.Put(m)
	return ok
}

// VerifyBytes parses and verifies serialized class bytes.
func (s *Signer) VerifyBytes(data []byte) error {
	cf, err := classfile.Parse(data)
	if err != nil {
		return err
	}
	return s.Verify(cf)
}

// Filter returns the signing step as the final pipeline filter: it signs
// whatever the preceding static services produced.
func (s *Signer) Filter() rewrite.Filter {
	return rewrite.FilterFunc{FilterName: "signer", Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
		return s.Sign(cf)
	}}
}
