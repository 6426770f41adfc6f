package imaging

import (
	"bytes"
	"image"
	"image/color"
	"image/jpeg"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// tiled builds a w×h RGBA view at origin (ox, oy) of a larger canvas,
// cut into tile×tile squares measured from the view's corner. Each
// tile is one random colour or per-pixel noise, as mask's bits pick.
// Flat tiles with vary set also vary alpha per pixel, which the encoder
// ignores but the flat-MCU check compares.
func tiled(w, h, ox, oy, tile int, mask uint64, seed int64, vary bool) *image.RGBA {
	rng := rand.New(rand.NewSource(seed))
	canvas := image.NewRGBA(image.Rect(0, 0, ox+w, oy+h))
	rng.Read(canvas.Pix) // the margins outside the view stay noise
	view := canvas.SubImage(image.Rect(ox, oy, ox+w, oy+h)).(*image.RGBA)
	cols := (w + tile - 1) / tile
	for ty := 0; ty*tile < h; ty++ {
		for tx := 0; tx*tile < w; tx++ {
			if mask>>(uint(ty*cols+tx)%64)&1 == 0 {
				continue // noise tile: keep the canvas bytes
			}
			c := color.RGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), 255}
			for y := ty * tile; y < min((ty+1)*tile, h); y++ {
				for x := tx * tile; x < min((tx+1)*tile, w); x++ {
					if vary {
						c.A = uint8(rng.Intn(256))
					}
					view.SetRGBA(ox+x, oy+y, c)
				}
			}
		}
	}
	return view
}

func stdlibJPEG(t testing.TB, img image.Image, quality int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, img, &jpeg.Options{Quality: quality}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzEncodeJPEG holds the *image.RGBA writer to image/jpeg's output
// byte for byte, over sizes that are and are not multiples of 16 (empty
// ones too), non-zero SubImage origins, mixes of flat and noisy tiles, every
// quality, and every way of cutting the frame into strips of MCU rows.
func FuzzEncodeJPEG(f *testing.F) {
	for _, s := range []struct {
		w, h, ox, oy, tile uint8
		mask               uint64
		quality            uint8
		vary               bool
		strips             uint8
	}{
		{0, 0, 0, 0, 8, 1, 40, false, 0},
		{0, 40, 3, 5, 8, 1, 40, false, 1},
		{1, 1, 0, 0, 8, 1, 40, false, 0},
		{16, 16, 0, 0, 16, 1, 40, false, 0},
		{64, 48, 0, 0, 16, 0xffff_ffff_ffff_ffff, 1, false, 2},
		{64, 48, 0, 0, 16, 0xffff_ffff_ffff_ffff, 100, false, 1},
		{47, 33, 5, 3, 16, 0xaaaa_5555_aaaa_5555, 40, false, 1},
		{100, 70, 9, 17, 8, 0x0f0f_f0f0_0f0f_f0f0, 50, false, 3},
		{96, 96, 0, 0, 24, 0x1234_5678_9abc_def0, 75, false, 5},
		{31, 129, 1, 0, 4, 0xdead_beef_cafe_f00d, 100, false, 3},
		{80, 80, 16, 16, 16, 0x7fff_ffff_ffff_fffe, 40, true, 4},
		{255, 17, 0, 200, 32, 0x5, 1, false, 1},
		{128, 64, 3, 3, 16, 0, 75, false, 0},
		{255, 255, 0, 0, 16, 0xffff_0000_ffff_0000, 40, false, 15},
	} {
		f.Add(s.w, s.h, s.ox, s.oy, s.tile, s.mask, int64(s.w)*int64(s.h), s.quality, s.vary, s.strips)
	}
	// Ten MCU rows in 2 to 10 strips (so rows%strips takes every value
	// from 0 to 4), with the last row 1 to 16 pixels tall and the view
	// at a different origin each time.
	for rem := uint8(0); rem < 16; rem++ {
		h := 144 + rem
		if rem == 0 {
			h = 160
		}
		f.Add(40+3*rem, h, rem, 3*rem, 8+rem, uint64(0x9e37_79b9_7f4a_7c15)*uint64(rem+1), int64(rem), 40+rem, rem%3 == 0, 1+rem%9)
	}
	f.Fuzz(func(t *testing.T, w, h, ox, oy, tile uint8, mask uint64, seed int64, quality uint8, vary bool, strips uint8) {
		ts := int(tile) % 41
		if ts == 0 {
			ts = 16
		}
		img := tiled(int(w), int(h), int(ox), int(oy), ts, mask, seed, vary)
		q := 1 + (int(quality)+99)%100 // 1..100, and 1 and 100 map to themselves
		n := 1 + int(strips)%max(1, (int(h)+15)/16)
		got, err := encodeRGBAJPEG(img, q, n)
		if err != nil {
			t.Fatal(err)
		}
		if want := stdlibJPEG(t, img, q); !bytes.Equal(got, want) {
			t.Fatalf("%dx%d at (%d,%d) tile %d q%d in %d strips: %d bytes, image/jpeg wrote %d",
				w, h, ox, oy, ts, q, n, len(got), len(want))
		}
	})
}

// TestEncodeJPEGConcurrent runs encodes of two frames, one cut into
// strips and one not, from parallel callers: each must get image/jpeg's
// bytes. Under -race it also shows that strips share nothing writable.
func TestEncodeJPEGConcurrent(t *testing.T) {
	tall := tiled(300, 16*40+5, 3, 7, 16, 0x5555_aaaa_0f0f_f0f0, 1, false)
	small := tiled(120, 90, 1, 2, 8, 0x0f0f_f0f0_0f0f_f0f0, 2, true)
	wantTall, wantSmall := stdlibJPEG(t, tall, 40), stdlibJPEG(t, small, 75)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, c := range []struct {
					img  *image.RGBA
					q    int
					want []byte
				}{{tall, 40, wantTall}, {small, 75, wantSmall}} {
					got, err := EncodeJPEG(c.img, c.q)
					if err != nil || !bytes.Equal(got, c.want) {
						t.Errorf("EncodeJPEG of %v: %d bytes (err %v), want %d", c.img.Rect, len(got), err, len(c.want))
					}
					got, err = encodeRGBAJPEG(c.img, c.q, 4)
					if err != nil || !bytes.Equal(got, c.want) {
						t.Errorf("4 strips of %v: %d bytes (err %v), want %d", c.img.Rect, len(got), err, len(c.want))
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestStripCount pins how frames are cut: one strip per core, each of at
// least minStripRows MCU rows, so the 17-row snapshot stays whole and the
// 162-row forums prerender gets a strip per core.
func TestStripCount(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ rows, want int }{
		{0, 1}, {1, 1}, {17, 1}, {2*minStripRows - 1, 1},
		{2 * minStripRows, min(procs, 2)}, {162, min(procs, 162/minStripRows)},
	} {
		if got := stripCount(c.rows); got != c.want {
			t.Errorf("stripCount(%d) = %d at GOMAXPROCS %d, want %d", c.rows, got, procs, c.want)
		}
	}
}

// div is image/jpeg's quantiser: a/b rounded to the nearest integer,
// halves away from zero.
func div(a, b int32) int32 {
	if a >= 0 {
		return (a + (b >> 1)) / b
	}
	return -((-a + (b >> 1)) / b)
}

// TestQuantiseMatchesDiv checks the reciprocal quantiser against div
// for every divisor up to 8*255 and every input of magnitude below 2^15.
func TestQuantiseMatchesDiv(t *testing.T) {
	for d := uint64(1); d <= 8*255; d++ {
		recip, half := (1<<32+d-1)/d, d>>1
		for a := int32(-1<<15 + 1); a < 1<<15; a++ {
			if got, want := quantise(a, recip, half), div(a, int32(d)); got != want {
				t.Fatalf("quantise(%d) by %d = %d, div = %d", a, d, got, want)
			}
		}
	}
}

// TestYCbCrMatchesColor checks the inlined conversion against
// color.RGBToYCbCr for every 24-bit colour.
func TestYCbCrMatchesColor(t *testing.T) {
	for c := 0; c < 1<<24; c++ {
		r, g, b := uint8(c>>16), uint8(c>>8), uint8(c)
		y, cb, cr := ycbcr(int32(r), int32(g), int32(b))
		wy, wcb, wcr := color.RGBToYCbCr(r, g, b)
		if y != int32(wy) || cb != int32(wcb) || cr != int32(wcr) {
			t.Fatalf("ycbcr(%d, %d, %d) = %d, %d, %d; color.RGBToYCbCr = %d, %d, %d", r, g, b, y, cb, cr, wy, wcb, wcr)
		}
	}
}

// TestFlatBlockTransform checks the fact the shortcut rests on: a block
// of 64 equal samples transforms to flatDC alone, every AC exactly zero.
func TestFlatBlockTransform(t *testing.T) {
	for v := 0; v < 256; v++ {
		var b block
		for i := range b {
			b[i] = int32(v)
		}
		fdct(&b)
		if b[0] != flatDC[v] {
			t.Fatalf("v=%d: DC %d, table %d", v, b[0], flatDC[v])
		}
		for i, ac := range b[1:] {
			if ac != 0 {
				t.Fatalf("v=%d: AC[%d] = %d", v, i+1, ac)
			}
		}
	}
}

// opaque hides an image's concrete type, forcing the generic At path.
type opaque struct{ image.Image }

func TestScaleFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		w, h := 1+rng.Intn(90), 1+rng.Intn(90)
		ox, oy := rng.Intn(20), rng.Intn(20)
		src := tiled(w, h, ox, oy, 1+rng.Intn(16), rng.Uint64(), rng.Int63(), rng.Intn(2) == 0)
		dw, dh := 1+rng.Intn(2*w), 1+rng.Intn(2*h)
		fast, slow := Scale(src, dw, dh), Scale(opaque{src}, dw, dh)
		if fast.Rect != slow.Rect || !bytes.Equal(fast.Pix, slow.Pix) {
			t.Fatalf("case %d: %dx%d at (%d,%d) -> %dx%d differs", i, w, h, ox, oy, dw, dh)
		}
		into := GetRGBA(dw, dh)
		ScaleInto(into, src)
		if !bytes.Equal(into.Pix, slow.Pix) {
			t.Fatalf("case %d: ScaleInto differs from the generic Scale", i)
		}
		PutRGBA(into)
		PutRGBA(fast)
	}
	// An empty source scales to zeroed pixels even from a reused buffer.
	dirty := GetRGBA(4, 4)
	for i := range dirty.Pix {
		dirty.Pix[i] = 0xff
	}
	PutRGBA(dirty)
	if out := Scale(image.NewRGBA(image.Rect(3, 3, 3, 9)), 4, 4); !bytes.Equal(out.Pix, make([]uint8, 4*4*4)) {
		t.Fatalf("empty source left %v", out.Pix)
	}
}
