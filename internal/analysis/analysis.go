// Package analysis provides the post-processing primitives the attack
// experiments use to quantify extraction quality: Hamming distances,
// block-granular error profiles (Figure 10), bit-balance statistics
// (Figure 3), and pattern searches over memory images (§6.1 step 4,
// §7.1.2's "grep the i-cache").
package analysis

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// HammingDistance returns the number of differing bits between two
// equal-length byte slices. It panics on length mismatch: comparing
// images of different sizes is always a caller bug.
//
// The count runs 8 bytes at a time with a 64-bit population count; the
// sub-word tail falls back to the byte path.
func HammingDistance(a, b []byte) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("analysis: length mismatch %d vs %d", len(a), len(b)))
	}
	d := 0
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d += bits.OnesCount64(binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < len(a); i++ {
		d += bits.OnesCount8(a[i] ^ b[i])
	}
	return d
}

// FractionalHD returns the Hamming distance normalized by total bits —
// the metric Table 1 reports. Two unrelated random images score ≈0.5;
// identical images score 0.
func FractionalHD(a, b []byte) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(HammingDistance(a, b)) / float64(len(a)*8)
}

// RetentionAccuracy returns 1 − FractionalHD: the fraction of bits
// retained, the headline number of §7 ("100% accuracy").
func RetentionAccuracy(stored, extracted []byte) float64 {
	return 1 - FractionalHD(stored, extracted)
}

// FractionOnes returns the fraction of set bits — Figure 3's observation
// that a freshly powered SRAM is ≈50% ones. Counted in 8-byte chunks
// with a trailing byte loop.
func FractionOnes(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	ones := 0
	i := 0
	for ; i+8 <= len(data); i += 8 {
		ones += bits.OnesCount64(binary.LittleEndian.Uint64(data[i:]))
	}
	for ; i < len(data); i++ {
		ones += bits.OnesCount8(data[i])
	}
	return float64(ones) / float64(len(data)*8)
}

// BlockHDProfile computes the Hamming distance between a and b over
// consecutive blocks of blockBits bits — the Figure 10 analysis that
// localizes the i.MX53 boot ROM's scratchpad. A trailing partial block is
// included. blockBits must be a positive multiple of 8.
func BlockHDProfile(a, b []byte, blockBits int) []int {
	if len(a) != len(b) {
		panic("analysis: length mismatch")
	}
	if blockBits <= 0 || blockBits%8 != 0 {
		panic("analysis: blockBits must be a positive multiple of 8")
	}
	blockBytes := blockBits / 8
	n := (len(a) + blockBytes - 1) / blockBytes
	out := make([]int, n)
	for i := 0; i < n; i++ {
		lo := i * blockBytes
		hi := lo + blockBytes
		if hi > len(a) {
			hi = len(a)
		}
		out[i] = HammingDistance(a[lo:hi], b[lo:hi])
	}
	return out
}

// ErrorClusters summarizes a block HD profile into contiguous runs of
// blocks whose error exceeds threshold bits — "the location of the error
// is clustered around the beginning and end of the iRAM" rendered as
// data.
type ErrorCluster struct {
	// FirstBlock and LastBlock are inclusive block indices.
	FirstBlock, LastBlock int
	// TotalBits is the summed Hamming distance across the run.
	TotalBits int
}

// FindErrorClusters groups consecutive above-threshold blocks.
func FindErrorClusters(profile []int, threshold int) []ErrorCluster {
	var out []ErrorCluster
	open := false
	for i, v := range profile {
		if v > threshold {
			if !open {
				out = append(out, ErrorCluster{FirstBlock: i, LastBlock: i})
				open = true
			}
			out[len(out)-1].LastBlock = i
			out[len(out)-1].TotalBits += v
		} else {
			open = false
		}
	}
	return out
}

// FindPattern returns the byte offsets at which needle occurs in
// haystack. The §7.1.2 experiment greps extracted i-cache images for the
// victim program's machine code.
func FindPattern(haystack, needle []byte) []int {
	if len(needle) == 0 || len(needle) > len(haystack) {
		return nil
	}
	var out []int
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			out = append(out, i)
		}
	}
	return out
}

// CountAlignedOccurrences counts how many aligned elemSize-byte elements
// of image equal elem — the Table 4 measurement ("an element of the array
// is present only when the entire 8-byte element is in the cache").
func CountAlignedOccurrences(image []byte, elem []byte) int {
	if len(elem) == 0 || len(image) < len(elem) {
		return 0
	}
	n := 0
	for i := 0; i+len(elem) <= len(image); i += len(elem) {
		match := true
		for j := range elem {
			if image[i+j] != elem[j] {
				match = false
				break
			}
		}
		if match {
			n++
		}
	}
	return n
}

// AlignedElementSet is the set of distinct aligned elemSize-byte elements
// of an image, built once so that membership queries over many candidate
// elements cost O(1) each instead of rescanning the image. For a query
// element e, Contains(e) == (CountAlignedOccurrences(image, e) > 0) by
// construction — Table 4's inner loop asks exactly that question for
// thousands of candidate elements against the same dump, which made the
// rescan quadratic.
type AlignedElementSet struct {
	elemSize int
	set      map[string]struct{}
}

// NewAlignedElementSet indexes the aligned elemSize-byte elements of
// image. A trailing partial element is ignored, mirroring
// CountAlignedOccurrences's loop bound.
func NewAlignedElementSet(image []byte, elemSize int) *AlignedElementSet {
	s := &AlignedElementSet{elemSize: elemSize}
	if elemSize <= 0 || len(image) < elemSize {
		return s
	}
	s.set = make(map[string]struct{}, len(image)/elemSize)
	for i := 0; i+elemSize <= len(image); i += elemSize {
		s.set[string(image[i:i+elemSize])] = struct{}{}
	}
	return s
}

// Contains reports whether elem appears at any aligned offset of the
// indexed image. elem must have the set's element size.
func (s *AlignedElementSet) Contains(elem []byte) bool {
	if len(elem) != s.elemSize || s.set == nil {
		return false
	}
	_, ok := s.set[string(elem)] // no allocation: map lookup special case
	return ok
}

// ShannonEntropy returns the byte-level entropy of data in bits per byte
// (0–8). Uninitialized SRAM scores near 8; a NOP sled scores near 0.
func ShannonEntropy(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var hist [256]int
	for _, b := range data {
		hist[b]++
	}
	h := 0.0
	n := float64(len(data))
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
