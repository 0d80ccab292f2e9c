package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// calibrate times a fixed piece of standard-library-only work: SHA-256
// over 16 MiB, a sort of 256 Ki integers, and 256 Ki map inserts and
// deletes, about 50 ms on the sizing host. It runs between slices and is reported
// (bench.calib_ms, bench.calib_spread, and the info line of an end-to-end
// run) so that a run the host disturbed is recognisable. No metric is ever
// rescaled by it.
func calibrate() time.Duration {
	t0 := time.Now()
	block := make([]byte, 64<<10)
	for i := 0; i < 256; i++ {
		sum := sha256.Sum256(block)
		copy(block, sum[:])
	}
	ints := make([]int, 1<<18)
	x := uint32(block[0])
	for i := range ints {
		x = x*1664525 + 1013904223
		ints[i] = int(x >> 8)
	}
	sort.Ints(ints)
	m := map[int]int{}
	for i, v := range ints {
		m[v] = i
		if i >= 1<<10 {
			delete(m, ints[i-(1<<10)])
		}
	}
	return time.Since(t0)
}
