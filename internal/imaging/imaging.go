// Package imaging is the image post-processor of the m.Site pipeline
// (§3.3 "Image fidelity"): scaling, cropping, and fidelity-ladder
// encoding that turns a ~600 KB full-page PNG snapshot into the 25–50 KB
// JPEG a mobile client actually downloads.
package imaging

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	_ "image/gif" // registered for Decode: origin sites serve GIFs
	"image/jpeg"
	"image/png"
	"sync"
)

// Fidelity selects an output encoding/quality point on the ladder the
// attribute system exposes to the site administrator.
type Fidelity int

// Fidelity levels, ordered from largest to smallest output.
const (
	// FidelityHigh is lossless PNG at full resolution.
	FidelityHigh Fidelity = iota + 1
	// FidelityMedium is JPEG quality 75.
	FidelityMedium
	// FidelityLow is JPEG quality 40 — the paper's "reduced-fidelity jpg".
	FidelityLow
	// FidelityThumb is a quarter-scale JPEG quality 50 thumbnail.
	FidelityThumb
)

// String names the fidelity level.
func (f Fidelity) String() string {
	switch f {
	case FidelityHigh:
		return "high"
	case FidelityMedium:
		return "medium"
	case FidelityLow:
		return "low"
	case FidelityThumb:
		return "thumb"
	default:
		return "unknown"
	}
}

// MIME returns the encoded content type for the level.
func (f Fidelity) MIME() string {
	if f == FidelityHigh {
		return "image/png"
	}
	return "image/jpeg"
}

// Ext returns the conventional file extension for the level.
func (f Fidelity) Ext() string {
	if f == FidelityHigh {
		return ".png"
	}
	return ".jpg"
}

// Encode encodes img at the given fidelity level.
func Encode(img image.Image, f Fidelity) ([]byte, error) {
	switch f {
	case FidelityHigh:
		return EncodePNG(img)
	case FidelityMedium:
		return EncodeJPEG(img, 75)
	case FidelityLow:
		return EncodeJPEG(img, 40)
	case FidelityThumb:
		b := img.Bounds()
		thumb := Scale(img, b.Dx()/4, b.Dy()/4)
		defer PutRGBA(thumb)
		return EncodeJPEG(thumb, 50)
	default:
		return nil, fmt.Errorf("imaging: unknown fidelity %d", f)
	}
}

// encBufPool recycles the scratch buffers the encoders grow into. A
// full-page PNG repeatedly doubles its buffer to hundreds of kilobytes;
// reusing that capacity across snapshot renders removes the dominant
// encode-side allocation from the cold-adaptation tail (BENCH_PR2's
// serialized-tail ceiling). The encoded bytes are copied out before the
// buffer returns to the pool, so callers own their slices as before.
var encBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// encodeWith runs enc against a pooled buffer and copies the result out.
func encodeWith(enc func(*bytes.Buffer) error, kind string) ([]byte, error) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := enc(buf); err != nil {
		encBufPool.Put(buf)
		return nil, fmt.Errorf("imaging: encoding %s: %w", kind, err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	encBufPool.Put(buf)
	return out, nil
}

// EncodePNG encodes img as PNG.
func EncodePNG(img image.Image) ([]byte, error) {
	return encodeWith(func(buf *bytes.Buffer) error {
		return png.Encode(buf, img)
	}, "png")
}

// EncodeJPEG encodes img as JPEG at the given quality (1-100). An
// *image.RGBA, which every rendered frame is, goes through this
// package's writer (jpeg.go), which codes a tall frame in strips on
// every core; any other image type goes to image/jpeg. Both produce the
// same bytes.
func EncodeJPEG(img image.Image, quality int) ([]byte, error) {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	if m, ok := img.(*image.RGBA); ok {
		out, err := encodeRGBAJPEG(m, quality, stripCount((m.Rect.Dy()+15)/16))
		if err != nil {
			return nil, fmt.Errorf("imaging: encoding jpeg: %w", err)
		}
		return out, nil
	}
	return encodeWith(func(buf *bytes.Buffer) error {
		return jpeg.Encode(buf, img, &jpeg.Options{Quality: quality})
	}, "jpeg")
}

// pixPool recycles RGBA backing arrays for short-lived frames: the
// rasterizer's framebuffers, pre-scaled replaced-element images, and the
// progressive renderer's coarse accumulator. Get returns an image whose
// every pixel the caller is expected to overwrite (pooled memory is NOT
// zeroed); Put recycles it. Images built on a caller-provided or
// non-recyclable buffer are simply dropped.
var pixPool = sync.Pool{
	New: func() any { return []uint8(nil) },
}

// GetRGBA returns a w×h RGBA whose backing array may be recycled from an
// earlier PutRGBA. The pixel contents are undefined: the caller must
// paint every pixel (the rasterizer's full-frame background fill, the
// scalers' every-pixel writes).
func GetRGBA(w, h int) *image.RGBA {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	need := 4 * w * h
	buf := pixPool.Get().([]uint8)
	if cap(buf) < need {
		buf = make([]uint8, need)
	}
	// Keep the full capacity: a small image drawn from a large recycled
	// array hands all of it back on PutRGBA. Nothing appends to Pix.
	return &image.RGBA{
		Pix:    buf[:need],
		Stride: 4 * w,
		Rect:   image.Rect(0, 0, w, h),
	}
}

// PutRGBA recycles an image obtained from GetRGBA (nil-safe). The caller
// must not touch img afterwards. Sub-image views must not be returned —
// only the original full allocation.
func PutRGBA(img *image.RGBA) {
	if img == nil || img.Rect.Min != (image.Point{}) {
		return
	}
	pixPool.Put(img.Pix[:0:cap(img.Pix)]) //nolint:staticcheck // slice header reuse is the point
}

// Decode decodes PNG, JPEG, or GIF bytes.
func Decode(data []byte) (image.Image, error) {
	img, _, err := image.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("imaging: decoding image: %w", err)
	}
	return img, nil
}

// Scale resizes img to w x h using box sampling for minification and
// bilinear interpolation for magnification. Dimensions are clamped to 1.
// The result's backing array may come from the pixel pool; a caller
// done with it can hand it back with PutRGBA.
func Scale(img image.Image, w, h int) *image.RGBA {
	out := GetRGBA(w, h)
	if img.Bounds().Empty() {
		clear(out.Pix) // ScaleInto writes nothing for an empty source
	}
	ScaleInto(out, img)
	return out
}

// ScaleInto resizes img to fill dst (whose bounds must be zero-anchored),
// box sampling for minification and bilinear for magnification. It
// writes every destination pixel, so dst may come from GetRGBA without
// clearing. An empty source leaves dst zero-filled only if the caller
// cleared it; sources are non-empty on every pipeline path.
func ScaleInto(dst *image.RGBA, img image.Image) {
	w, h := dst.Rect.Dx(), dst.Rect.Dy()
	src := img.Bounds()
	sw, sh := src.Dx(), src.Dy()
	if sw == 0 || sh == 0 {
		return
	}
	if w < sw || h < sh {
		boxScale(dst, img, w, h)
		return
	}
	bilinearScale(dst, img, w, h)
}

// ScaleToWidth resizes preserving aspect ratio.
func ScaleToWidth(img image.Image, w int) *image.RGBA {
	b := img.Bounds()
	if b.Dx() == 0 {
		return image.NewRGBA(image.Rect(0, 0, 1, 1))
	}
	h := int(float64(w) * float64(b.Dy()) / float64(b.Dx()))
	return Scale(img, w, h)
}

// ScaleFactor resizes by a multiplicative factor.
func ScaleFactor(img image.Image, factor float64) *image.RGBA {
	b := img.Bounds()
	return Scale(img, int(float64(b.Dx())*factor), int(float64(b.Dy())*factor))
}

// boxScale averages all source pixels covered by each destination pixel —
// the right filter for the strong minification snapshots need.
func boxScale(out *image.RGBA, img image.Image, w, h int) {
	src := img.Bounds()
	sw, sh := src.Dx(), src.Dy()
	rgba, _ := img.(*image.RGBA)
	for dy := 0; dy < h; dy++ {
		sy0 := src.Min.Y + dy*sh/h
		sy1 := src.Min.Y + (dy+1)*sh/h
		if sy1 <= sy0 {
			sy1 = sy0 + 1
		}
		row := out.Pix[dy*out.Stride:]
		for dx := 0; dx < w; dx++ {
			sx0 := src.Min.X + dx*sw/w
			sx1 := src.Min.X + (dx+1)*sw/w
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			var s [4]uint64
			if rgba != nil {
				s = boxSumRGBA(rgba, sx0, sy0, sx1, sy1)
			} else {
				s = boxSum(img, sx0, sy0, sx1, sy1)
			}
			n := uint64((sx1 - sx0) * (sy1 - sy0))
			px := row[4*dx : 4*dx+4 : 4*dx+4]
			for c := range px {
				px[c] = uint8(s[c] / n >> 8)
			}
		}
	}
}

// boxSum adds the 16-bit channels of every pixel in [x0,x1)×[y0,y1).
func boxSum(img image.Image, x0, y0, x1, y1 int) [4]uint64 {
	var s [4]uint64
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			r, g, b, a := img.At(x, y).RGBA()
			s[0] += uint64(r)
			s[1] += uint64(g)
			s[2] += uint64(b)
			s[3] += uint64(a)
		}
	}
	return s
}

// boxSumRGBA is boxSum read straight from Pix: color.RGBA widens each
// 8-bit channel v to v*0x101, so the sums are the same.
func boxSumRGBA(m *image.RGBA, x0, y0, x1, y1 int) [4]uint64 {
	var s [4]uint64
	for y := y0; y < y1; y++ {
		off := m.PixOffset(x0, y)
		row := m.Pix[off : off+4*(x1-x0)]
		for i := 0; i < len(row); i += 4 {
			s[0] += uint64(row[i])
			s[1] += uint64(row[i+1])
			s[2] += uint64(row[i+2])
			s[3] += uint64(row[i+3])
		}
	}
	for c := range s {
		s[c] *= 0x101
	}
	return s
}

func bilinearScale(out *image.RGBA, img image.Image, w, h int) {
	src := img.Bounds()
	sw, sh := src.Dx(), src.Dy()
	for dy := 0; dy < h; dy++ {
		fy := (float64(dy) + 0.5) * float64(sh) / float64(h)
		sy := int(fy - 0.5)
		ty := fy - 0.5 - float64(sy)
		if sy < 0 {
			sy, ty = 0, 0
		}
		if sy >= sh-1 {
			sy, ty = sh-2, 1
			if sy < 0 {
				sy, ty = 0, 0
			}
		}
		for dx := 0; dx < w; dx++ {
			fx := (float64(dx) + 0.5) * float64(sw) / float64(w)
			sx := int(fx - 0.5)
			tx := fx - 0.5 - float64(sx)
			if sx < 0 {
				sx, tx = 0, 0
			}
			if sx >= sw-1 {
				sx, tx = sw-2, 1
				if sx < 0 {
					sx, tx = 0, 0
				}
			}
			out.SetRGBA(dx, dy, lerpPixels(img, src, sx, sy, tx, ty))
		}
	}
}

func lerpPixels(img image.Image, src image.Rectangle, sx, sy int, tx, ty float64) color.RGBA {
	at := func(x, y int) (float64, float64, float64, float64) {
		if x > src.Dx()-1 {
			x = src.Dx() - 1
		}
		if y > src.Dy()-1 {
			y = src.Dy() - 1
		}
		r, g, b, a := img.At(src.Min.X+x, src.Min.Y+y).RGBA()
		return float64(r), float64(g), float64(b), float64(a)
	}
	r00, g00, b00, a00 := at(sx, sy)
	r10, g10, b10, a10 := at(sx+1, sy)
	r01, g01, b01, a01 := at(sx, sy+1)
	r11, g11, b11, a11 := at(sx+1, sy+1)
	lerp2 := func(v00, v10, v01, v11 float64) uint8 {
		top := v00*(1-tx) + v10*tx
		bot := v01*(1-tx) + v11*tx
		return uint8(uint32(top*(1-ty)+bot*ty) >> 8)
	}
	return color.RGBA{
		R: lerp2(r00, r10, r01, r11),
		G: lerp2(g00, g10, g01, g11),
		B: lerp2(b00, b10, b01, b11),
		A: lerp2(a00, a10, a01, a11),
	}
}

// Crop returns the sub-image of img covering r, copied into a new RGBA.
func Crop(img image.Image, r image.Rectangle) *image.RGBA {
	r = r.Intersect(img.Bounds())
	out := image.NewRGBA(image.Rect(0, 0, r.Dx(), r.Dy()))
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			out.Set(x-r.Min.X, y-r.Min.Y, img.At(x, y))
		}
	}
	return out
}
