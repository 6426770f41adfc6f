package imaging

import (
	"bytes"
	"image"
	"image/color"
	"image/jpeg"
	"math/rand"
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

// FuzzEncodeJPEG holds EncodeJPEG's *image.RGBA writer to image/jpeg's
// output byte for byte, over sizes that are and are not multiples of
// 16, non-zero SubImage origins, mixes of flat and noisy tiles, and
// every quality.
func FuzzEncodeJPEG(f *testing.F) {
	for _, s := range []struct {
		w, h, ox, oy, tile uint8
		mask               uint64
		quality            uint8
		vary               bool
	}{
		{1, 1, 0, 0, 8, 1, 40, false},
		{16, 16, 0, 0, 16, 1, 40, false},
		{64, 48, 0, 0, 16, 0xffff_ffff_ffff_ffff, 1, false},
		{64, 48, 0, 0, 16, 0xffff_ffff_ffff_ffff, 100, false},
		{47, 33, 5, 3, 16, 0xaaaa_5555_aaaa_5555, 40, false},
		{100, 70, 9, 17, 8, 0x0f0f_f0f0_0f0f_f0f0, 50, false},
		{96, 96, 0, 0, 24, 0x1234_5678_9abc_def0, 75, false},
		{31, 129, 1, 0, 4, 0xdead_beef_cafe_f00d, 100, false},
		{80, 80, 16, 16, 16, 0x7fff_ffff_ffff_fffe, 40, true},
		{255, 17, 0, 200, 32, 0x5, 1, false},
		{128, 64, 3, 3, 16, 0, 75, false},
	} {
		f.Add(s.w, s.h, s.ox, s.oy, s.tile, s.mask, int64(s.w)*int64(s.h), s.quality, s.vary)
	}
	f.Fuzz(func(t *testing.T, w, h, ox, oy, tile uint8, mask uint64, seed int64, quality uint8, vary bool) {
		if w == 0 || h == 0 {
			return
		}
		ts := int(tile) % 41
		if ts == 0 {
			ts = 16
		}
		img := tiled(int(w), int(h), int(ox), int(oy), ts, mask, seed, vary)
		q := 1 + (int(quality)+99)%100 // 1..100, and 1 and 100 map to themselves
		got, err := EncodeJPEG(img, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := stdlibJPEG(t, img, q); !bytes.Equal(got, want) {
			t.Fatalf("%dx%d at (%d,%d) tile %d q%d: %d bytes, image/jpeg wrote %d",
				w, h, ox, oy, ts, q, len(got), len(want))
		}
	})
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
