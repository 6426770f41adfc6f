package raster

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"math/rand"
	"testing"

	"msite/internal/css"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
)

// buildRandomPage builds a randomized page exercising every paint
// primitive: nested backgrounds, borders, replaced elements (with and
// without a decoded image), styled text with bold/italic/underline, and
// boxes that straddle arbitrary band boundaries.
func buildRandomPage(rng *rand.Rand) (string, map[string]image.Image) {
	var sb bytes.Buffer
	sb.WriteString(`<html><head><style>
.bordered{border:3px solid #334455;}
.bg0{background-color:#ffeedd;}
.bg1{background-color:#223344;color:#eeeeff;}
.bg2{background-color:#88cc44;}
em{font-style:italic;} strong{font-weight:bold;}
</style></head><body>`)
	images := make(map[string]image.Image)
	n := 8 + rng.Intn(8)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			fmt.Fprintf(&sb, `<div class="bg%d bordered"><p>block %d lorem ipsum dolor sit amet</p></div>`,
				rng.Intn(3), i)
		case 1:
			fmt.Fprintf(&sb, `<h%d>heading %d with <strong>bold</strong> and <em>italic</em></h%d>`,
				1+rng.Intn(3), i, 1+rng.Intn(3))
		case 2:
			src := fmt.Sprintf("img%d.png", i)
			w, h := 8+rng.Intn(40), 8+rng.Intn(40)
			if rng.Intn(2) == 0 {
				// Half the images decode; the rest paint placeholders.
				im := image.NewRGBA(image.Rect(0, 0, w, h))
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						im.SetRGBA(x, y, color.RGBA{uint8(x * 7), uint8(y * 5), uint8(i * 31), 255})
					}
				}
				images[src] = im
			}
			fmt.Fprintf(&sb, `<img src="%s" width="%d" height="%d">`, src, w, h)
		case 3:
			fmt.Fprintf(&sb, `<p>paragraph %d with <a href="/x">an underlined link</a> and trailing text</p>`, i)
		case 4:
			fmt.Fprintf(&sb, `<ul><li>item a %d</li><li>item b</li><li class="bg2">item c</li></ul>`, i)
		}
	}
	sb.WriteString("</body></html>")
	return sb.String(), images
}

func layoutRandomPage(t *testing.T, rng *rand.Rand) (*layout.Result, map[string]image.Image) {
	t.Helper()
	src, images := buildRandomPage(rng)
	doc := html.Tidy(src)
	styler := css.StylerForDocument(doc)
	res := layout.Layout(doc, styler, layout.Viewport{Width: 320 + rng.Intn(700)})
	return res, images
}

// TestPaintParallelMatchesSerial is the golden/property guard for the
// band-parallel rasterizer: for randomized layouts and every worker
// count, the parallel framebuffer must be byte-identical to the serial
// one.
func TestPaintParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		res, images := layoutRandomPage(t, rng)
		for _, antialias := range []bool{false, true} {
			base := Options{Images: images, Antialias: antialias, MinHeight: 64}
			serialOpts := base
			serialOpts.Workers = 1
			serial := Paint(res, serialOpts)
			for _, workers := range []int{2, 3, 4, 7, 16} {
				parOpts := base
				parOpts.Workers = workers
				parallel := Paint(res, parOpts)
				if serial.Bounds() != parallel.Bounds() {
					t.Fatalf("trial %d workers %d: bounds %v != %v",
						trial, workers, parallel.Bounds(), serial.Bounds())
				}
				if !bytes.Equal(serial.Pix, parallel.Pix) {
					diff := firstPixelDiff(serial, parallel)
					t.Fatalf("trial %d workers %d antialias %v: framebuffer differs at %v",
						trial, workers, antialias, diff)
				}
			}
		}
	}
}

// TestPaintParallelSkipText covers the partial-CSS (background-only)
// path used by §3.3 pre-rendering.
func TestPaintParallelSkipText(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	res, images := layoutRandomPage(t, rng)
	serial := Paint(res, Options{Images: images, SkipText: true, Workers: 1})
	parallel := Paint(res, Options{Images: images, SkipText: true, Workers: 8})
	if !bytes.Equal(serial.Pix, parallel.Pix) {
		t.Fatalf("SkipText framebuffer differs at %v", firstPixelDiff(serial, parallel))
	}
}

// TestPaintDefaultWorkersIdentical checks the default (Workers == 0,
// GOMAXPROCS bands) path — what the proxy actually runs — against
// serial.
func TestPaintDefaultWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	res, images := layoutRandomPage(t, rng)
	serial := Paint(res, Options{Images: images, Antialias: true, Workers: 1})
	def := Paint(res, Options{Images: images, Antialias: true})
	if !bytes.Equal(serial.Pix, def.Pix) {
		t.Fatalf("default-workers framebuffer differs at %v", firstPixelDiff(serial, def))
	}
}

func firstPixelDiff(a, b *image.RGBA) image.Point {
	bounds := a.Bounds()
	for y := bounds.Min.Y; y < bounds.Max.Y; y++ {
		for x := bounds.Min.X; x < bounds.Max.X; x++ {
			if a.RGBAAt(x, y) != b.RGBAAt(x, y) {
				return image.Pt(x, y)
			}
		}
	}
	return image.Pt(-1, -1)
}

// TestPaintRectMatchesCroppedPaint holds the thumbnail path to its
// reference: painting only a rectangle must give the bytes of cropping
// that rectangle out of the whole frame, with and without antialias
// jitter, at every worker count, for rectangles inside, straddling and
// outside the frame.
func TestPaintRectMatchesCroppedPaint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		res, images := layoutRandomPage(t, rng)
		for _, antialias := range []bool{false, true} {
			opts := Options{Images: images, Antialias: antialias, MinHeight: 64}
			full := Paint(res, opts)
			fb := full.Bounds()
			for i := 0; i < 6; i++ {
				x0, y0 := rng.Intn(fb.Dx()+40)-20, rng.Intn(fb.Dy()+40)-20
				r := image.Rect(x0, y0, x0+rng.Intn(fb.Dx()/2+1), y0+rng.Intn(fb.Dy()/2+1))
				want := imaging.Crop(full, r)
				for _, workers := range []int{1, 2, 16} {
					o := opts
					o.Workers = workers
					got := PaintRect(res, r, o)
					if got.Rect != want.Rect || !bytes.Equal(got.Pix, want.Pix) {
						t.Fatalf("trial %d antialias %v workers %d: rect %v of %v differs (got %v)",
							trial, antialias, workers, r, fb, got.Rect)
					}
					Release(got)
				}
			}
			Release(full)
		}
	}
}
