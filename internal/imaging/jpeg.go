// Copyright 2011 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// This file is a reworked copy of the baseline writer in Go's image/jpeg
// (writer.go), cut down to the *image.RGBA input every pipeline frame
// is. Its output is byte-identical to image/jpeg.Encode, which stays the
// reference (FuzzEncodeJPEG); only the way the bytes are made differs:
//   - A block whose 64 samples are equal skips the DCT, and a 16x16 MCU
//     of one colour also skips the colour conversion.
//   - Quantisation multiplies by a per-table reciprocal instead of
//     dividing.
//   - MCUs convert to YCbCr straight from Pix, with no per-pixel edge
//     clamps: an MCU that crosses the frame's edge is copied out padded
//     first.
//   - Bits collect in a 64-bit word and go to a []byte; 0xFF stuffing
//     and the final 1-bit padding happen in one pass at the end.
//   - A tall frame is cut into strips of whole MCU rows that are coded
//     at once and merged into one scan (encodeRGBAJPEG).

package imaging

import (
	"bytes"
	"encoding/binary"
	"errors"
	"image"
	"math/bits"
	"runtime"
	"sync"
)

const blockSize = 64 // A DCT block is 8x8.

// block holds 64 samples in natural (not zig-zag) order.
type block [blockSize]int32

// unzig maps from the zig-zag ordering to the natural ordering.
var unzig = [blockSize]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

const (
	sof0Marker = 0xc0 // Start Of Frame (Baseline Sequential).
	dhtMarker  = 0xc4 // Define Huffman Table.
	dqtMarker  = 0xdb // Define Quantization Table.
)

type quantIndex int

const (
	quantIndexLuminance quantIndex = iota
	quantIndexChrominance
	nQuantIndex
)

// unscaledQuant are the unscaled quantization tables in zig-zag order. Each
// encoder copies and scales the tables according to its quality parameter.
// The values are derived from section K.1 of the spec, after converting from
// natural to zig-zag order.
var unscaledQuant = [nQuantIndex][blockSize]byte{
	// Luminance.
	{
		16, 11, 12, 14, 12, 10, 16, 14,
		13, 14, 18, 17, 16, 19, 24, 40,
		26, 24, 22, 22, 24, 49, 35, 37,
		29, 40, 58, 51, 61, 60, 57, 51,
		56, 55, 64, 72, 92, 78, 64, 68,
		87, 69, 55, 56, 80, 109, 81, 87,
		95, 98, 103, 104, 103, 62, 77, 113,
		121, 112, 100, 120, 92, 101, 103, 99,
	},
	// Chrominance.
	{
		17, 18, 18, 24, 21, 24, 47, 26,
		26, 47, 99, 66, 56, 66, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
	},
}

type huffIndex int

const (
	huffIndexLuminanceDC huffIndex = iota
	huffIndexLuminanceAC
	huffIndexChrominanceDC
	huffIndexChrominanceAC
	nHuffIndex
)

// huffmanSpec specifies a Huffman encoding.
type huffmanSpec struct {
	// count[i] is the number of codes of length i+1 bits.
	count [16]byte
	// value[i] is the decoded value of the i'th codeword.
	value []byte
}

// theHuffmanSpec is the Huffman encoding specifications.
//
// This encoder uses the same Huffman encoding for all images. It is also the
// same Huffman encoding used by section K.3 of the spec.
//
// The DC tables have 12 decoded values, called categories.
//
// The AC tables have 162 decoded values: bytes that pack a 4-bit Run and a
// 4-bit Size. There are 16 valid Runs and 10 valid Sizes, plus two special R|S
// cases: 0|0 (meaning EOB) and F|0 (meaning ZRL).
var theHuffmanSpec = [nHuffIndex]huffmanSpec{
	// Luminance DC.
	{
		[16]byte{0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0},
		[]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	},
	// Luminance AC.
	{
		[16]byte{0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125},
		[]byte{
			0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
			0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
			0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08,
			0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0,
			0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16,
			0x17, 0x18, 0x19, 0x1a, 0x25, 0x26, 0x27, 0x28,
			0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
			0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
			0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
			0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
			0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
			0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
			0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
			0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7,
			0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
			0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5,
			0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4,
			0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2,
			0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea,
			0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
			0xf9, 0xfa,
		},
	},
	// Chrominance DC.
	{
		[16]byte{0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0},
		[]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	},
	// Chrominance AC.
	{
		[16]byte{0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119},
		[]byte{
			0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
			0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
			0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
			0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0,
			0x15, 0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34,
			0xe1, 0x25, 0xf1, 0x17, 0x18, 0x19, 0x1a, 0x26,
			0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38,
			0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
			0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
			0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
			0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
			0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
			0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96,
			0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5,
			0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
			0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3,
			0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2,
			0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda,
			0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9,
			0xea, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
			0xf9, 0xfa,
		},
	},
}

// huffmanLUT is a compiled look-up table representation of a huffmanSpec.
// Each value maps to a uint32 of which the 8 most significant bits hold the
// codeword size in bits and the 24 least significant bits hold the codeword.
// The maximum codeword size is 16 bits. Indexing by a byte needs no bounds
// check.
type huffmanLUT [256]uint32

func (h *huffmanLUT) init(s huffmanSpec) {
	code, k := uint32(0), 0
	for i := 0; i < len(s.count); i++ {
		nBits := uint32(i+1) << 24
		for j := uint8(0); j < s.count[i]; j++ {
			(*h)[s.value[k]] = nBits | code
			code++
			k++
		}
		code <<= 1
	}
}

// theHuffmanLUT are compiled representations of theHuffmanSpec.
var theHuffmanLUT [4]huffmanLUT

// flatDC[v] is fdct's DC output for a block whose 64 samples all equal
// v. Every AC output of such a block is zero, so quantFlat needs only
// this entry to reproduce what the DCT path would quantise.
var flatDC [256]int32

func init() {
	for i, s := range theHuffmanSpec {
		theHuffmanLUT[i].init(s)
	}
	for v := range flatDC {
		var b block
		for i := range b {
			b[i] = int32(v)
		}
		fdct(&b)
		flatDC[v] = b[0]
	}
}

// jpegHeaderLen is the length of appendHeader's output, which does not
// depend on the quality or the frame size.
var jpegHeaderLen = len(appendHeader(nil, new(encoder), image.Point{}))

// encoder holds one encode's quantisation tables. It is read-only once
// built, so every strip of the frame shares it.
type encoder struct {
	// quant is the scaled quantization tables, in zig-zag order.
	quant [nQuantIndex][blockSize]byte
	// recip[q][zig] is ceil(2^32/d) and half[q][zig] is d/2 for the
	// divisor d = 8*quant[q][zig] (see quantise).
	recip, half [nQuantIndex][blockSize]uint64
}

// newEncoder scales the quantisation tables for quality, which the
// caller has clipped to [1, 100].
func newEncoder(quality int) *encoder {
	e := new(encoder)
	// Convert from a quality rating to a scaling factor.
	var scale int
	if quality < 50 {
		scale = 5000 / quality
	} else {
		scale = 200 - quality*2
	}
	for i := range e.quant {
		for j := range e.quant[i] {
			x := int(unscaledQuant[i][j])
			x = (x*scale + 50) / 100
			if x < 1 {
				x = 1
			} else if x > 255 {
				x = 255
			}
			e.quant[i][j] = uint8(x)
			d := uint64(8 * x)
			e.recip[i][j] = (1<<32 + d - 1) / d
			e.half[i][j] = d >> 1
		}
	}
	return e
}

// quantise returns a/d rounded to the nearest integer, halves away from
// zero, given recip = ceil(2^32/d) and half = d/2. That is image/jpeg's
// div(a, d) without a branch or a divide. It is exact while
// (|a|+half)*(recip*d-2^32) < 2^32, which holds with room to spare for
// fdct's outputs (|a| < 2^15) and the encoder's divisors (d <= 2040);
// TestQuantiseMatchesDiv checks every such pair.
func quantise(a int32, recip, half uint64) int32 {
	s := a >> 31 // 0 or -1
	n := uint64((a^s)-s) + half
	v := int32(n * recip >> 32)
	return (v ^ s) - s
}

// qblock is one quantised block in zig-zag order. Bit zig of nz is set
// when c[zig] is a non-zero AC coefficient; the DC bit is always clear.
type qblock struct {
	c  [blockSize]int32
	nz uint64
}

// quantBlock transforms b, in natural order, and quantises it into out.
// A flat block skips the DCT: its only non-zero output is flatDC.
func (e *encoder) quantBlock(b *block, q quantIndex, out *qblock) {
	if b.flat() {
		e.quantFlat(b[0], q, out)
		return
	}
	fdct(b)
	recip, half := &e.recip[q], &e.half[q]
	var nz uint64
	for zig := 0; zig < blockSize; zig++ {
		v := quantise(b[unzig[zig]&63], recip[zig], half[zig])
		out.c[zig] = v
		nz |= uint64((v|-v)>>31&1) << zig // 1 when v != 0, without a branch
	}
	out.nz = nz &^ 1
}

// quantFlat quantises a block whose 64 samples all equal v (0-255).
func (e *encoder) quantFlat(v int32, q quantIndex, out *qblock) {
	out.c[0] = quantise(flatDC[v], e.recip[q][0], e.half[q][0])
	out.nz = 0
}

// flat reports whether all 64 samples of b are equal.
func (b *block) flat() bool {
	v := b[0]
	for _, s := range b[1:] {
		if s != v {
			return false
		}
	}
	return true
}

// ycbcr is color.RGBToYCbCr's integer formula on int32 samples, short
// enough to inline. For 8-bit inputs Cb and Cr never go negative and
// pass 255 only at pure blue and pure red, where min clamps them.
func ycbcr(r, g, b int32) (int32, int32, int32) {
	y := (19595*r + 38470*g + 7471*b + 1<<15) >> 16
	cb := min((-11056*r-21712*g+32768*b+257<<15)>>16, 255)
	cr := min((32768*r-27440*g-5328*b+257<<15)>>16, 255)
	return y, cb, cr
}

// mcuPixels returns the 16x16 MCU of m at (x, y) as pixel rows stride
// bytes apart: a view into m when the MCU lies wholly inside it, else a
// copy in s.pad that replicates m's last column and row past its edge,
// as image/jpeg does.
func (s *strip) mcuPixels(m *image.RGBA, x, y int) (pix []uint8, stride int) {
	b := m.Bounds()
	if x+16 <= b.Max.X && y+16 <= b.Max.Y {
		return m.Pix[m.PixOffset(x, y):], m.Stride
	}
	n := min(16, b.Max.X-x) // pixels of each row inside m
	for j := 0; j < 16; j++ {
		row := s.pad[64*j : 64*j+64 : 64*j+64]
		off := m.PixOffset(x, min(y+j, b.Max.Y-1))
		copy(row, m.Pix[off:off+4*n])
		for i := n; i < 16; i++ {
			copy(row[4*i:4*i+4], row[4*n-4:4*n])
		}
	}
	return s.pad[:], 64
}

// mcuToYCbCr converts an MCU's pixel rows, stride bytes apart, to its
// four 8x8 Y blocks and its Cb and Cr blocks, each chroma sample the
// rounded mean of a 2x2 square, in one pass over two rows at a time.
func mcuToYCbCr(pix []uint8, stride int, yb *[4]block, cb, cr *block) {
	for j := 0; j < 16; j += 2 {
		r0 := pix[j*stride : j*stride+16*4 : j*stride+16*4]
		r1 := pix[(j+1)*stride : (j+1)*stride+16*4 : (j+1)*stride+16*4]
		o, c := (j&7)*8, j/2*8
		for h := 0; h < 2; h++ {
			k := (j>>3)*2 + h
			y0, y1 := yb[k][o:o+8:o+8], yb[k][o+8:o+16:o+16]
			cbr, crr := cb[c+4*h:c+4*h+4:c+4*h+4], cr[c+4*h:c+4*h+4:c+4*h+4]
			p0, p1 := r0[32*h:32*h+32:32*h+32], r1[32*h:32*h+32:32*h+32]
			for i := 0; i < 4; i++ {
				ya, cba, cra := ycbcr(int32(p0[8*i]), int32(p0[8*i+1]), int32(p0[8*i+2]))
				yb, cbb, crb := ycbcr(int32(p0[8*i+4]), int32(p0[8*i+5]), int32(p0[8*i+6]))
				yc, cbc, crc := ycbcr(int32(p1[8*i]), int32(p1[8*i+1]), int32(p1[8*i+2]))
				yd, cbd, crd := ycbcr(int32(p1[8*i+4]), int32(p1[8*i+5]), int32(p1[8*i+6]))
				y0[2*i], y0[2*i+1], y1[2*i], y1[2*i+1] = ya, yb, yc, yd
				cbr[i] = (cba + cbb + cbc + cbd + 2) >> 2
				crr[i] = (cra + crb + crc + crd + 2) >> 2
			}
		}
	}
}

// flatMCU reports whether an MCU's pixel rows, stride bytes apart, are
// all one colour, returning that pixel. It compares all four channels,
// eight bytes at a time.
func flatMCU(pix []uint8, stride int) ([]uint8, bool) {
	px := pix[:4:4]
	want := uint64(binary.LittleEndian.Uint32(px)) * 0x1_0000_0001
	for j := 0; j < 16; j++ {
		row := pix[j*stride : j*stride+16*4 : j*stride+16*4]
		var diff uint64
		for i := 0; i < len(row); i += 8 {
			diff |= binary.LittleEndian.Uint64(row[i:i+8:i+8]) ^ want
		}
		if diff != 0 {
			return nil, false
		}
	}
	return px, true
}

// bitWriter collects entropy-coded bits with no 0xFF stuffing: whole
// 32-bit words go to buf, and the low n < 32 bits of acc wait for more.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint32
}

// emit appends the low n bits of v; v < 1<<n and n <= 32.
func (w *bitWriter) emit(v, n uint32) {
	w.acc = w.acc<<n | uint64(v)
	w.n += n
	if w.n >= 32 {
		w.n -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>w.n))
	}
}

// emitHuff emits value's code from Huffman table h.
func (w *bitWriter) emitHuff(h huffIndex, value uint8) {
	x := theHuffmanLUT[h][value]
	w.emit(x&(1<<24-1), x>>24)
}

// emitHuffRLE emits the code for a run of runLength zeros ending in
// value, then value's magnitude bits, as one write of at most 27 bits.
func (w *bitWriter) emitHuffRLE(h huffIndex, runLength, value int32) {
	a, b := value, value
	if a < 0 {
		a, b = -value, value-1
	}
	nBits := uint32(bits.Len32(uint32(a)))
	x := theHuffmanLUT[h][uint8(runLength<<4)|uint8(nBits)]
	w.emit((x&(1<<24-1))<<nBits|uint32(b)&(1<<nBits-1), x>>24+nBits)
}

// emitBlock emits a quantised block with the tables of q, delta-coding
// its DC against prevDC, and returns its DC.
func (w *bitWriter) emitBlock(b *qblock, q quantIndex, prevDC int32) int32 {
	dc := b.c[0]
	w.emitHuffRLE(huffIndex(2*q+0), 0, dc-prevDC)
	// Walk the non-zero ACs; the zeros between them are run lengths.
	h, prev := huffIndex(2*q+1), 0
	for nz := b.nz; nz != 0; nz &= nz - 1 {
		zig := bits.TrailingZeros64(nz)
		runLength := int32(zig - prev - 1)
		for runLength > 15 {
			w.emitHuff(h, 0xf0)
			runLength -= 16
		}
		w.emitHuffRLE(h, runLength, b.c[zig&63])
		prev = zig
	}
	if prev < blockSize-1 {
		w.emitHuff(h, 0x00) // end of block
	}
	return dc
}

// emitMCU emits an MCU's four Y blocks, then its Cb and Cr blocks,
// delta-coding each DC against the predictors dc, and returns the new
// predictors.
func (w *bitWriter) emitMCU(m *[6]qblock, dc [3]int32) [3]int32 {
	for i := 0; i < 4; i++ {
		dc[0] = w.emitBlock(&m[i], quantIndexLuminance, dc[0])
	}
	dc[1] = w.emitBlock(&m[4], quantIndexChrominance, dc[1])
	dc[2] = w.emitBlock(&m[5], quantIndexChrominance, dc[2])
	return dc
}

// appendBits appends every bit src holds.
func (w *bitWriter) appendBits(src *bitWriter) {
	for p := src.buf; len(p) >= 4; p = p[4:] {
		w.emit(binary.BigEndian.Uint32(p), 32)
	}
	w.emit(uint32(src.acc)&(1<<src.n-1), src.n)
}

// flush pads the bits to a byte boundary with 1s, as the end of a scan
// needs, and moves them all to buf.
func (w *bitWriter) flush() {
	if pad := -w.n & 7; pad > 0 {
		w.emit(1<<pad-1, pad)
	}
	for w.n > 0 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.acc>>w.n))
	}
}

// scanBufs recycles the bit buffers that strips and merges code into.
var scanBufs sync.Pool

func getScanBuf() []byte {
	if p, ok := scanBufs.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return nil
}

func putScanBuf(b []byte) { scanBufs.Put(&b) }

// strip is a band of whole MCU rows that one goroutine codes. The
// strip's first MCU is kept quantised, not coded, because its DC deltas
// depend on the strip above: the merge codes it.
type strip struct {
	y0, y1 int       // pixel rows [y0, y1)
	first  [6]qblock // the first MCU, quantised
	w      bitWriter // every MCU after the first
	dc     [3]int32  // the DC predictors after the strip's last MCU

	// Scratch for one MCU: its pixels when it crosses the frame's edge,
	// its Y blocks and its subsampled chroma.
	mcu    [6]qblock
	pad    [16 * 16 * 4]uint8
	yb     [4]block
	cb, cr block
}

// codeStrip quantises s's first MCU and codes the rest into s.w.
func (e *encoder) codeStrip(m *image.RGBA, s *strip) {
	b := m.Bounds()
	out := &s.first
	for y := s.y0; y < s.y1; y += 16 {
		for x := b.Min.X; x < b.Max.X; x += 16 {
			e.quantMCU(m, x, y, s, out)
			if out == &s.first {
				s.dc = [3]int32{s.first[3].c[0], s.first[4].c[0], s.first[5].c[0]}
				out = &s.mcu
				continue
			}
			s.dc = s.w.emitMCU(out, s.dc)
		}
	}
}

// quantMCU converts the 16x16 MCU of m at (x, y) to YCbCr and quantises
// its four Y blocks and two subsampled chroma blocks into out, using s's
// scratch blocks.
func (e *encoder) quantMCU(m *image.RGBA, x, y int, s *strip, out *[6]qblock) {
	pix, stride := s.mcuPixels(m, x, y)
	if px, ok := flatMCU(pix, stride); ok {
		yy, cb, cr := ycbcr(int32(px[0]), int32(px[1]), int32(px[2]))
		for i := 0; i < 4; i++ {
			e.quantFlat(yy, quantIndexLuminance, &out[i])
		}
		e.quantFlat(cb, quantIndexChrominance, &out[4])
		e.quantFlat(cr, quantIndexChrominance, &out[5])
		return
	}
	mcuToYCbCr(pix, stride, &s.yb, &s.cb, &s.cr)
	for i := range s.yb {
		e.quantBlock(&s.yb[i], quantIndexLuminance, &out[i])
	}
	e.quantBlock(&s.cb, quantIndexChrominance, &out[4])
	e.quantBlock(&s.cr, quantIndexChrominance, &out[5])
}

// minStripRows is the fewest MCU rows a strip holds. It keeps the
// goroutine and the merge's bit shifting small next to a strip's coding,
// and leaves a 460-pixel-wide snapshot (17 rows) whole.
const minStripRows = 16

// stripCount is how many strips a frame of rows MCU rows is cut into:
// one per core, each of at least minStripRows rows.
func stripCount(rows int) int {
	return max(1, min(runtime.GOMAXPROCS(0), rows/minStripRows))
}

// encodeRGBAJPEG returns m in JPEG 4:2:0 baseline format at the given
// quality, which the caller has clipped to [1, 100]. The frame is cut
// into nStrips strips of whole MCU rows (at most one per row), coded at
// once; one strip is the serial case.
func encodeRGBAJPEG(m *image.RGBA, quality, nStrips int) ([]byte, error) {
	b := m.Bounds()
	if b.Dx() >= 1<<16 || b.Dy() >= 1<<16 {
		return nil, errors.New("jpeg: image is too large to encode")
	}
	e := newEncoder(quality)
	rows := (b.Dy() + 15) / 16
	if b.Empty() {
		rows = 0
	}
	strips := make([]strip, max(0, min(nStrips, rows)))
	var wg sync.WaitGroup
	for i := range strips {
		s := &strips[i]
		s.y0 = b.Min.Y + 16*(i*rows/len(strips))
		s.y1 = b.Min.Y + 16*((i+1)*rows/len(strips))
		s.w.buf = getScanBuf()
		if i > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.codeStrip(m, s)
			}()
		}
	}
	if len(strips) > 0 {
		e.codeStrip(m, &strips[0])
	}
	wg.Wait()

	// Merge: code each strip's first MCU against the predictors the
	// strip above ended with, then append the strip's own bits.
	scan := bitWriter{buf: getScanBuf()}
	var dc [3]int32
	for i := range strips {
		s := &strips[i]
		scan.emitMCU(&s.first, dc)
		scan.appendBits(&s.w)
		dc = s.dc
		putScanBuf(s.w.buf)
	}
	scan.flush()

	size := jpegHeaderLen + len(scan.buf) + bytes.Count(scan.buf, []byte{0xff}) + 2
	out := appendHeader(make([]byte, 0, size), e, b.Size())
	out = appendStuffed(out, scan.buf)
	out = append(out, 0xff, 0xd9) // End Of Image
	putScanBuf(scan.buf)
	return out, nil
}

// appendStuffed appends scan to dst with a 0x00 after every 0xFF, so
// that no coded byte reads as a marker.
func appendStuffed(dst, scan []byte) []byte {
	for {
		i := bytes.IndexByte(scan, 0xff)
		if i < 0 {
			return append(dst, scan...)
		}
		dst = append(dst, scan[:i+1]...)
		dst = append(dst, 0x00)
		scan = scan[i+1:]
	}
}

// sosHeaderYCbCr is the SOS marker "\xff\xda" followed by 12 bytes:
//   - the marker length "\x00\x0c",
//   - the number of components "\x03",
//   - component 1 uses DC table 0 and AC table 0 "\x01\x00",
//   - component 2 uses DC table 1 and AC table 1 "\x02\x11",
//   - component 3 uses DC table 1 and AC table 1 "\x03\x11",
//   - the bytes "\x00\x3f\x00". Section B.2.3 of the spec says that for
//     sequential DCTs, those bytes (8-bit Ss, 8-bit Se, 4-bit Ah, 4-bit Al)
//     should be 0x00, 0x3f, 0x00<<4 | 0x00.
var sosHeaderYCbCr = []byte{
	0xff, 0xda, 0x00, 0x0c, 0x03, 0x01, 0x00, 0x02,
	0x11, 0x03, 0x11, 0x00, 0x3f, 0x00,
}

// appendHeader appends everything before the scan data: the Start Of
// Image marker, the quantisation tables, the frame header for three
// components with 4:2:0 chroma subsampling, the Huffman tables and the
// Start Of Scan header.
func appendHeader(dst []byte, e *encoder, size image.Point) []byte {
	dst = append(dst, 0xff, 0xd8)
	// Define Quantization Table.
	dst = appendMarkerHeader(dst, dqtMarker, 2+int(nQuantIndex)*(1+blockSize))
	for i := range e.quant {
		dst = append(dst, uint8(i))
		dst = append(dst, e.quant[i][:]...)
	}
	// Start Of Frame (Baseline Sequential).
	const nComponent = 3
	dst = appendMarkerHeader(dst, sof0Marker, 8+3*nComponent)
	dst = append(dst, 8, // 8-bit color.
		uint8(size.Y>>8), uint8(size.Y), uint8(size.X>>8), uint8(size.X), nComponent)
	for i := 0; i < nComponent; i++ {
		dst = append(dst, uint8(i+1), "\x22\x11\x11"[i], "\x00\x01\x01"[i])
	}
	// Define Huffman Table.
	markerlen := 2
	for _, s := range theHuffmanSpec {
		markerlen += 1 + 16 + len(s.value)
	}
	dst = appendMarkerHeader(dst, dhtMarker, markerlen)
	for i, s := range theHuffmanSpec {
		dst = append(dst, "\x00\x10\x01\x11"[i])
		dst = append(dst, s.count[:]...)
		dst = append(dst, s.value...)
	}
	return append(dst, sosHeaderYCbCr...)
}

// appendMarkerHeader appends the header for a marker with the given length.
func appendMarkerHeader(dst []byte, marker uint8, markerlen int) []byte {
	return append(dst, 0xff, marker, uint8(markerlen>>8), uint8(markerlen))
}
