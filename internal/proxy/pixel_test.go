package proxy

import (
	"bytes"
	"context"
	"image"
	"image/jpeg"
	"testing"

	"msite/internal/fetch"
	"msite/internal/imaging"
	"msite/internal/raster"
	"msite/internal/spec"
)

// stdlibJPEG is the reference encoder the pipeline's JPEG writer must
// match byte for byte.
func stdlibJPEG(t *testing.T, img image.Image, quality int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, img, &jpeg.Options{Quality: quality}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildImagesMatchStdlibEncode repaints the frames behind a build's
// snapshot and forums.jpg for the default forum origin (seed 42) and
// checks the bytes the pipeline produced are image/jpeg.Encode's for
// those frames. Both are FidelityLow, JPEG quality 40.
func TestBuildImagesMatchStdlibEncode(t *testing.T) {
	ctx := context.Background()
	rig := newRig(t, nil)
	b, err := rig.p.buildAdaptation(ctx, fetch.New(nil))
	if err != nil {
		t.Fatal(err)
	}

	entry, err := rig.p.renderSnapshot(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	main := b.file("pages", "main.html")
	frame := raster.Paint(layoutForDoc(tidyDoc(string(main.data)), rig.p.width), raster.Options{Images: b.images})
	scaled := imaging.ScaleFactor(frame, rig.p.snapshotScale())
	if want := stdlibJPEG(t, scaled, 40); !bytes.Equal(entry.Data, want) {
		t.Fatalf("snapshot: %d bytes, image/jpeg wrote %d for the same frame", len(entry.Data), len(want))
	}

	// The same build with the forums prerender off keeps the subpage
	// document the prerender paints.
	plain := newRig(t, func(s *spec.Spec) {
		for i := range s.Objects {
			if s.Objects[i].Name == "forums" {
				s.Objects[i].Attributes[0].Params["prerender"] = "false"
			}
		}
	})
	pb, err := plain.p.buildAdaptation(ctx, fetch.New(nil))
	if err != nil {
		t.Fatal(err)
	}
	prerender := b.file("images", "forums.jpg")
	if prerender == nil {
		t.Fatal("build has no forums.jpg")
	}
	frame = raster.Paint(layoutForDoc(pb.subpages["forums"].Doc, plain.p.width), raster.Options{Images: pb.images})
	if b := frame.Bounds(); b.Dx() != 1024 || b.Dy() < 2000 {
		t.Fatalf("forums frame is %v; want the full 1024-wide listing", b)
	}
	if want := stdlibJPEG(t, frame, 40); !bytes.Equal(prerender.data, want) {
		t.Fatalf("forums.jpg: %d bytes, image/jpeg wrote %d for the same frame", len(prerender.data), len(want))
	}
}
