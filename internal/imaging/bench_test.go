package imaging_test

import (
	"image"
	"image/color"
	"math/rand"
	"net/http/httptest"
	"testing"

	"msite/internal/attr"
	"msite/internal/css"
	"msite/internal/fetch"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/origin"
	"msite/internal/raster"
	"msite/internal/spec"
)

// forumsFrame paints the forums listing of the default forum origin the
// way the pipeline's forums prerender does: stylesheets inlined, the
// #forums table split into its own subpage, laid out 1024 px wide. Its
// many single-colour MCUs are what the flat-block shortcut targets.
func forumsFrame(b *testing.B) *image.RGBA {
	b.Helper()
	srv := httptest.NewServer(origin.NewForum(origin.DefaultForumConfig()).Handler())
	defer srv.Close()
	f := fetch.New(nil)
	page, err := f.Get(srv.URL + "/")
	if err != nil {
		b.Fatal(err)
	}
	doc := html.Tidy(string(page.Body))
	if _, err := f.InlineStylesheets(doc, page.URL); err != nil {
		b.Fatal(err)
	}
	sp := &spec.Spec{Name: "bench", Origin: srv.URL + "/", ViewportWidth: 1024, Objects: []spec.Object{{
		Name: "forums", Selector: "#forums",
		Attributes: []spec.Attribute{{Type: spec.AttrSubpage, Params: map[string]string{"title": "Forums"}}},
	}}}
	res, err := (&attr.Applier{ViewportWidth: 1024}).Apply(sp, doc)
	if err != nil {
		b.Fatal(err)
	}
	sub, ok := res.FindSubpage("forums")
	if !ok {
		b.Fatal("no forums subpage")
	}
	lay := layout.Layout(sub.Doc, css.StylerForDocument(sub.Doc), layout.Viewport{Width: 1024})
	return raster.Paint(lay, raster.Options{})
}

// noiseFrame is per-pixel noise: no 8x8 block or MCU is flat, so it
// costs the flatness checks without ever taking the shortcut.
func noiseFrame(w, h int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	rand.New(rand.NewSource(1)).Read(img.Pix)
	return img
}

// BenchmarkEncodeJPEG encodes at the prerender's quality (FidelityLow,
// 40). Compare noise against image/jpeg.Encode of the same frame to see
// the cost of the flatness checks on input without the property.
func BenchmarkEncodeJPEG(b *testing.B) {
	for _, c := range []struct {
		name  string
		frame func(*testing.B) *image.RGBA
	}{
		{"forums", forumsFrame},
		{"noise", func(*testing.B) *image.RGBA { return noiseFrame(1024, 1024) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			img := c.frame(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := imaging.EncodeJPEG(img, 40); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// opaqueImage hides *image.RGBA so Scale takes its generic At path.
type opaqueImage struct{ image.Image }

// BenchmarkScale is the snapshot downscale: a 1024×576 main-page frame
// to 0.45 scale (460×259), through the Pix fast path and the generic
// path.
func BenchmarkScale(b *testing.B) {
	src := noiseFrame(1024, 576)
	for y := 0; y < 576; y += 3 { // some flat rows, like a page
		for x := 0; x < 1024; x++ {
			src.SetRGBA(x, y, color.RGBA{255, 255, 255, 255})
		}
	}
	for _, c := range []struct {
		name string
		img  image.Image
	}{
		{"rgba", src},
		{"generic", opaqueImage{src}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				imaging.PutRGBA(imaging.ScaleFactor(c.img, 0.45))
			}
		})
	}
}
