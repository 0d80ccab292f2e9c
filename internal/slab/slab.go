// Package slab is the bump allocator behind every store that lives with
// one class and is recycled at ClassFile.Release: the constant pool's
// member and attribute tables, the rewriting engine's arena of decoded
// method bodies. It also holds the switch that makes those stores poison
// what they recycle, so that a use after Release reads values no parser
// or decoder produces.
package slab

import (
	"sync/atomic"
	"unsafe"
)

// Slab is a bump allocator over one chunk of T. Take carves the next n
// elements off the chunk; when the chunk is exhausted a larger one
// replaces it and the old one lives on only through the slices already
// handed out, so nothing a caller holds ever moves. Reset makes the whole
// chunk available again. Every slice comes back with its capacity capped
// at what was asked for: an append past it copies out to the heap instead
// of running into a neighbour.
type Slab[T any] struct {
	buf []T // the current chunk; len(buf) elements of it are handed out
}

// minChunk is the smallest chunk a slab takes, in elements. It is small
// because not every slab is recycled: a class parsed and never released
// (a client's) keeps the chunks of its store, and at 16 a one-method
// class's cold parse costs some 2 KB more than exact-size tables, where
// 64 cost 8 KB more. A recycled slab keeps its grown chunk, so the bound
// matters only to the first class a slab serves.
const minChunk = 16

// Take returns the next n elements. Their contents are unspecified unless
// the slab's owner wipes on Reset.
func (s *Slab[T]) Take(n int) []T {
	if n > cap(s.buf)-len(s.buf) {
		s.buf = make([]T, 0, max(2*cap(s.buf), n, minChunk))
	}
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	return s.buf[off : off+n : off+n]
}

// Grow returns v with room for n more elements, v being a slice this slab
// handed out (or nil). The newest allocation is extended where it lies;
// anything else moves to the end of the chunk with a quarter of its length
// to spare, and the space it leaves is not reused before Reset.
func (s *Slab[T]) Grow(v []T, n int) []T {
	c := cap(v)
	need := n - (c - len(v))
	if need <= 0 {
		return v
	}
	if end := len(s.buf); c > 0 && c <= end && &s.buf[end-c] == &v[:c][0] && need <= cap(s.buf)-end {
		s.buf = s.buf[:end+need]
		return s.buf[end-c : end-c+len(v) : end+need]
	}
	moved := s.Take(len(v) + n + len(v)/4)[:len(v)]
	copy(moved, v)
	return moved
}

// Mark and Release bracket scratch that dies with the function that took
// it: Release hands back everything taken since the Mark.
func (s *Slab[T]) Mark() int { return len(s.buf) }

// Release undoes the Takes since mark. If the chunk was replaced in
// between, the mark belongs to the old chunk and the new one keeps what it
// handed out until Reset.
func (s *Slab[T]) Release(mark int) {
	if mark <= len(s.buf) {
		s.buf = s.buf[:mark]
	}
}

// Cap returns the size of the current chunk, in elements.
func (s *Slab[T]) Cap() int { return cap(s.buf) }

// Bytes returns the size of the current chunk, in bytes.
func (s *Slab[T]) Bytes() int {
	var zero T
	return cap(s.buf) * int(unsafe.Sizeof(zero))
}

// Used returns the handed-out part of the current chunk.
func (s *Slab[T]) Used() []T { return s.buf }

// Reset makes the chunk available again, or drops it when it holds more
// than retain elements, so that one outsized class does not stay pinned
// behind every later one. It does not wipe: an owner whose T carries
// pointers clears Used first.
func (s *Slab[T]) Reset(retain int) {
	if cap(s.buf) > retain {
		s.buf = nil
		return
	}
	s.buf = s.buf[:0]
}

// Fill sets every element of s to v.
func Fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// poisonOnReset makes the per-class stores scribble over what a class
// used when they recycle it, instead of merely unlinking it.
var poisonOnReset atomic.Bool

// PoisonOnReset switches poisoning and returns the previous setting. It is
// a test hook: the pipeline's golden and determinism tests run once with
// it on, which turns a use after ClassFile.Release into a wrong artifact
// instead of a latent one.
func PoisonOnReset(on bool) (was bool) { return poisonOnReset.Swap(on) }

// Poisoning reports whether PoisonOnReset is on.
func Poisoning() bool { return poisonOnReset.Load() }
