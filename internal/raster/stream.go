package raster

import (
	"image"
	"runtime"
	"sync"

	"msite/internal/layout"
)

// BandFunc consumes one painted horizontal band of the frame. The view
// is a clipped sub-image of the full frame: earlier bands' rows remain
// valid for the consumer (an incremental encoder can read back from the
// top of the frame), but rows below the view are still being painted and
// must not be touched.
type BandFunc func(view *image.RGBA)

// StreamPaint rasterizes like Paint but hands each horizontal band to
// onBand as soon as it is fully painted, in top-to-bottom order, while
// later bands are still being painted by the worker set. This is the
// interleaving stage of the progressive snapshot pipeline: the encoder
// consumes band N while the rasterizer paints band N+1, so encode time
// hides behind paint time instead of following it.
//
// The returned frame is byte-identical to Paint with the same Options —
// the band partition, clipped painting, and per-row antialias jitter are
// exactly Paint's (the parity property the streaming snapshot's
// full-fidelity upgrade depends on). A nil onBand degenerates to Paint.
func StreamPaint(res *layout.Result, opts Options, onBand BandFunc) *image.RGBA {
	if onBand == nil {
		return Paint(res, opts)
	}
	img := newFrame(res, opts, canvas(res, opts))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := img.Bounds()
	if workers > b.Dy() {
		workers = b.Dy()
	}
	if workers < 1 {
		workers = 1
	}

	var scaled map[*layout.Box]*image.RGBA
	if res.Root != nil {
		scaled = prescaleImages(res.Root, opts, b, nil)
	}

	// The same row partition as forEachBand: band i covers rows
	// [i*h/workers, (i+1)*h/workers).
	h := b.Dy()
	views := make([]*image.RGBA, workers)
	done := make([]chan struct{}, workers)
	for i := 0; i < workers; i++ {
		y0 := b.Min.Y + i*h/workers
		y1 := b.Min.Y + (i+1)*h/workers
		views[i] = img.SubImage(image.Rect(b.Min.X, y0, b.Max.X, y1)).(*image.RGBA)
		done[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			view := views[i]
			if res.Root != nil {
				paintBox(view, res.Root, opts, scaled)
			}
			if opts.Antialias {
				applyAntialiasJitter(view)
			}
			close(done[i])
		}(i)
	}
	// Deliver strictly in order: band i+1 may finish first, but the
	// consumer sees a top-to-bottom scanline stream.
	for i := 0; i < workers; i++ {
		<-done[i]
		onBand(views[i])
	}
	wg.Wait()
	releaseScaled(scaled)
	return img
}
