// Package vimg renders memory images as bitmaps, reproducing the visual
// figures of the paper (Figures 3, 7, 8, 9): binary PBM files where each
// memory bit is a pixel, plus compact ASCII density maps for terminal
// output, and a deterministic test-pattern generator standing in for the
// 512×512 bitmap the i.MX53 experiment stores in iRAM.
package vimg

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bitmap is a 1-bit-per-pixel image backed by packed bytes, row-major,
// MSB-first within a byte (the PBM P4 convention).
type Bitmap struct {
	Width, Height int
	// rows[y] holds ceil(Width/8) bytes.
	rows [][]byte
}

// NewBitmap allocates a zeroed bitmap.
func NewBitmap(width, height int) *Bitmap {
	if width <= 0 || height <= 0 {
		panic("vimg: non-positive dimensions")
	}
	b := &Bitmap{Width: width, Height: height, rows: make([][]byte, height)}
	stride := (width + 7) / 8
	for y := range b.rows {
		b.rows[y] = make([]byte, stride)
	}
	return b
}

// FromBits builds a bitmap of the given width from a memory image, one
// pixel per bit in little-endian bit order within each source byte (bit 0
// of byte 0 is pixel (0,0)). Height is derived from the data length;
// partial final rows are dropped.
func FromBits(data []byte, width int) *Bitmap {
	if width <= 0 {
		panic("vimg: non-positive width")
	}
	totalBits := len(data) * 8
	height := totalBits / width
	if height == 0 {
		panic("vimg: image narrower than one row")
	}
	b := NewBitmap(width, height)
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			i := y*width + x
			if data[i/8]>>(uint(i)%8)&1 == 1 {
				b.Set(x, y, true)
			}
		}
	}
	return b
}

// Set writes one pixel.
func (b *Bitmap) Set(x, y int, v bool) {
	if x < 0 || x >= b.Width || y < 0 || y >= b.Height {
		panic(fmt.Sprintf("vimg: pixel (%d,%d) out of %dx%d", x, y, b.Width, b.Height))
	}
	mask := byte(0x80) >> (uint(x) % 8)
	if v {
		b.rows[y][x/8] |= mask
	} else {
		b.rows[y][x/8] &^= mask
	}
}

// Get reads one pixel.
func (b *Bitmap) Get(x, y int) bool {
	if x < 0 || x >= b.Width || y < 0 || y >= b.Height {
		panic(fmt.Sprintf("vimg: pixel (%d,%d) out of %dx%d", x, y, b.Width, b.Height))
	}
	return b.rows[y][x/8]&(0x80>>(uint(x)%8)) != 0
}

// PBM serializes the bitmap as a binary PBM (P4) file.
func (b *Bitmap) PBM() []byte {
	header := fmt.Sprintf("P4\n%d %d\n", b.Width, b.Height)
	out := make([]byte, 0, len(header)+b.Height*len(b.rows[0]))
	out = append(out, header...)
	for _, row := range b.rows {
		out = append(out, row...)
	}
	return out
}

// ToBytes flattens the bitmap back to a little-endian-bit memory image,
// the inverse of FromBits.
func (b *Bitmap) ToBytes() []byte {
	out := make([]byte, b.Width*b.Height/8)
	for y := 0; y < b.Height; y++ {
		for x := 0; x < b.Width; x++ {
			if b.Get(x, y) {
				i := y*b.Width + x
				out[i/8] |= 1 << (uint(i) % 8)
			}
		}
	}
	return out
}

// densityRamp maps a 0..1 set-bit density to a display rune, dark to
// light.
var densityRamp = []rune(" .:-=+*#%@")

// ASCIIDensity renders a memory image as a rows×cols character grid where
// each cell's rune encodes the set-bit density of its chunk of the image.
// It is the terminal stand-in for the paper's grayscale cache snapshots:
// uniform mid-density noise reads as uninitialized SRAM, solid blocks as
// retained patterns.
func ASCIIDensity(data []byte, cols, rows int) string {
	if cols <= 0 || rows <= 0 {
		panic("vimg: non-positive grid")
	}
	var sb strings.Builder
	n := len(data)
	cells := cols * rows
	if cells > n {
		cells = n
	}
	chunk := n / (cols * rows)
	if chunk == 0 {
		chunk = 1
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			lo := (r*cols + c) * chunk
			if lo >= n {
				sb.WriteRune(' ')
				continue
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			ones := 0
			for _, by := range data[lo:hi] {
				ones += bits.OnesCount8(by)
			}
			density := float64(ones) / float64((hi-lo)*8)
			idx := int(density * float64(len(densityRamp)-1))
			sb.WriteRune(densityRamp[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestPattern512 generates the deterministic 512×512 1-bit test image
// (32 KB) the iRAM experiment stores: concentric rings and a diagonal
// grid, visually distinctive so retained regions are obvious and
// clobbered regions stand out. Four copies tile the i.MX53's 128 KB iRAM
// like the paper's four bitmap quadrants.
func TestPattern512() []byte {
	const w = 512
	b := NewBitmap(w, w)
	cx, cy := w/2, w/2
	for y := 0; y < w; y++ {
		for x := 0; x < w; x++ {
			dx, dy := x-cx, y-cy
			d2 := dx*dx + dy*dy
			ring := (d2/4096)%2 == 0
			grid := (x+y)%64 < 8 || (x-y+w)%64 < 8
			b.Set(x, y, ring != grid) // xor of the two patterns
		}
	}
	return b.ToBytes()
}

// SparklineProfile renders an integer profile (e.g. a block Hamming
// distance series) as a fixed-width sparkline string, used to print the
// Figure 10 curve in a terminal.
func SparklineProfile(profile []int, width int) string {
	if len(profile) == 0 || width <= 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	max := 0
	for _, v := range profile {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for c := 0; c < width; c++ {
		lo := c * len(profile) / width
		hi := (c + 1) * len(profile) / width
		if hi <= lo {
			hi = lo + 1
		}
		if lo >= len(profile) {
			break
		}
		if hi > len(profile) {
			hi = len(profile)
		}
		peak := 0
		for _, v := range profile[lo:hi] {
			if v > peak {
				peak = v
			}
		}
		if max == 0 {
			sb.WriteRune(ramp[0])
			continue
		}
		idx := peak * (len(ramp) - 1) / max
		sb.WriteRune(ramp[idx])
	}
	return sb.String()
}
