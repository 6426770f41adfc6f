package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/fetch"
	"msite/internal/imaging"
	"msite/internal/obs"
	"msite/internal/progressive"
	"msite/internal/raster"
	"msite/internal/session"
)

// coarseSnapshotName is the asset name of the coarse first rung of a
// progressive snapshot.
const coarseSnapshotName = "snapshot-coarse.jpg"

// snapState is one session's entry snapshot: the rungs its overlay
// references. A streaming entry publishes them from a background render
// the asset handler waits on; a buffered entry publishes a finished
// state holding the bytes it served.
type snapState struct {
	coarseOnce sync.Once
	// coarse closes once coarseFile is set, or once the render finished
	// without a coarse rung.
	coarse     chan struct{}
	coarseFile *buildFile
	// full closes when the render completed; fullFile and err are set
	// first.
	full     chan struct{}
	fullFile *buildFile
	err      error
}

func newSnapState() *snapState {
	return &snapState{coarse: make(chan struct{}), full: make(chan struct{})}
}

// publishCoarse sets the coarse rung and releases its waiters; only the
// first call counts, so publishCoarse(nil) after a render just closes.
func (st *snapState) publishCoarse(f *buildFile) {
	st.coarseOnce.Do(func() {
		st.coarseFile = f
		close(st.coarse)
	})
}

// setSnapshot records the snapshot a buffered entry just referenced, so
// the session's asset request serves exactly those bytes.
func (p *Proxy) setSnapshot(id string, snap *buildFile) {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if st := p.snaps[id]; st != nil && st.fullFile == snap {
		return
	}
	st := newSnapState()
	st.fullFile = snap
	st.publishCoarse(nil)
	close(st.full)
	p.snaps[id] = st
}

func flushNow(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// streamEntry serves the entry page flush-early: the overlay head (all
// statically-known markup, including the snapshot img reference) is on
// the wire before the origin fetch begins, above-the-fold image-map
// areas follow the attribute phase, and the snapshot renders on a
// background goroutine the asset handler waits on. Perceived latency
// (DRIVESHAFT's argument) tracks the first flush, not the pipeline.
func (p *Proxy) streamEntry(w http.ResponseWriter, r *http.Request, sess *session.Session, start time.Time) {
	site := p.cfg.Spec.Name
	ov := attr.Overlay{
		SnapshotURL: p.prefix + "/asset/" + p.snapshotName(),
		Scale:       p.snapshotScale(),
		Title:       site,
	}
	if p.cfg.SnapshotProgressive {
		// The overlay paints the coarse rung first and trades up to the
		// versioned full-fidelity URL once its encode completes.
		gen := p.snapGen.Add(1)
		ov.UpgradeURL = fmt.Sprintf("%s?v=%d", ov.SnapshotURL, gen)
		ov.SnapshotURL = p.prefix + "/asset/" + coarseSnapshotName
	}
	atfHeight := p.cfg.ATFHeight
	if atfHeight == 0 {
		atfHeight = DefaultATFHeight
	}

	// Commit the response and flush the head before any origin work:
	// TTFB decouples from the adaptation pipeline entirely.
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	frags := p.applier.BuildOverlayStream(ov, nil, atfHeight)
	_, _ = w.Write(frags.Head)
	flushNow(w)
	obs.TraceFrom(r.Context()).Annotate("stream", "head_flushed")

	b, err := p.ensureAdaptation(r.Context(), sess, r.URL.Query().Get("refresh") == "1")
	if err != nil {
		p.streamAbort(w, r, err)
		return
	}

	// Kick the snapshot render off now: it overlaps with the client
	// receiving and parsing the map fragments below.
	p.ensureSnapshotAsync(sess.ID, b)

	frags = p.applier.BuildOverlayStream(ov, b.ordered, atfHeight)
	_, _ = w.Write(frags.ATF)
	_, _ = io.WriteString(w, attr.ATFMarker)
	flushNow(w)
	p.obs.Histogram("msite_proxy_atf_seconds", "site", site, "mode", "streaming").
		ObserveDuration(time.Since(start))
	_, _ = w.Write(frags.BTF)
	_, _ = w.Write(frags.Tail)
}

// streamAbort degrades a streamed entry whose adaptation failed after
// the 200 and head were already on the wire: the document is closed
// in-band with a human-usable message (and an auth link for origin
// challenges) instead of a broken status.
func (p *Proxy) streamAbort(w http.ResponseWriter, r *http.Request, err error) {
	obs.TraceFrom(r.Context()).Annotate("error", err.Error())
	_ = p.degrade(r.Context(), "stream_entry", err)
	msg := "origin unavailable; retry shortly"
	var authErr *fetch.AuthRequiredError
	if errors.As(err, &authErr) {
		back := url.QueryEscape(r.URL.RequestURI())
		msg = fmt.Sprintf(`<a href="%s/auth?back=%s">authentication required</a>`, p.prefix, back)
	}
	fmt.Fprintf(w, "</map><p>%s</p></body></html>", msg)
}

// ensureSnapshotAsync starts (or joins) session id's background
// snapshot render of build b. A completed successful render is reused; a
// failed one is retried.
func (p *Proxy) ensureSnapshotAsync(id string, b *builtAdaptation) {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if st, ok := p.snaps[id]; ok {
		select {
		case <-st.full:
			if st.err == nil {
				return
			}
			// A failed render is retried below.
		default:
			return // in flight
		}
	}
	st := newSnapState()
	p.snaps[id] = st
	go p.runSnapshotAsync(b, st)
}

// runSnapshotAsync executes one background snapshot render. The context
// is detached deliberately: the render is shared, cached work, and a
// client disconnecting mid-stream must not abort it for the session's
// (or, through the shared cache, every session's) next request.
func (p *Proxy) runSnapshotAsync(b *builtAdaptation, st *snapState) {
	ctx := context.Background()
	var err error
	if p.cfg.SnapshotProgressive {
		st.fullFile, err = p.snapshotProgressive(ctx, b, st)
	} else {
		st.fullFile, _, _, err = p.snapshot(ctx, b)
	}
	st.err = err
	st.publishCoarse(nil)
	close(st.full)
}

// snapshotProgressive renders build b's snapshot as a temporal fidelity
// ladder: the coarse rung is published (to the session's snapState and
// the shared cache) the moment rasterization finishes, while the
// full-fidelity encode — byte-identical to the buffered path's — is
// still running. The full artifact lands in the shared cache under the
// same key the buffered path uses, so streaming and buffered proxies
// interoperate across restarts.
func (p *Proxy) snapshotProgressive(ctx context.Context, b *builtAdaptation, st *snapState) (*buildFile, error) {
	fid := snapshotFidelity(p.cfg.Spec)
	ttl := time.Duration(p.cfg.Spec.Snapshot.CacheTTLSeconds) * time.Second
	site := p.cfg.Spec.Name
	shared := p.cfg.Spec.Snapshot.Shared && ttl > 0
	publishCoarse := func(data []byte) {
		if shared {
			p.cfg.Cache.Put("snapshot-coarse:"+site, cache.Entry{Data: data, MIME: "image/jpeg"}, ttl)
		}
		st.publishCoarse(snapshotRung(coarseSnapshotName, data))
	}

	var filled atomic.Bool
	fill := func() (cache.Entry, error) {
		filled.Store(true)
		p.nSnapshotRenders.Add(1)
		p.obs.Counter("msite_proxy_snapshot_renders_total", "site", site).Inc()
		page := b.file("pages", "main.html")
		if page == nil {
			return cache.Entry{}, errNoMainPage
		}
		sp := obs.StartSpan(ctx, "layout")
		res := layoutForDoc(tidyDoc(string(page.data)), p.width)
		sp.End()
		// Raster and coarse encode interleave inside progressive.Render;
		// one span covers the ladder.
		sp = obs.StartSpan(ctx, "raster_encode")
		out, err := progressive.Render(res, progressive.Config{
			Raster:   raster.Options{Images: b.images, Workers: p.rasterWork},
			Fidelity: fid,
			Scale:    p.snapshotScale(),
			OnCoarse: func(a progressive.Artifact) { publishCoarse(a.Data) },
		})
		sp.End()
		if err != nil {
			return cache.Entry{}, err
		}
		return snapshotEntry(out.Full.Data, fid, out.Full.Width, out.Full.Height), nil
	}

	var entry cache.Entry
	var err error
	if shared {
		entry, err = p.cfg.Cache.GetOrFill("snapshot:"+site, ttl, fill)
		if err == nil && !filled.Load() {
			p.nSnapshotHits.Add(1)
			p.obs.Counter("msite_proxy_snapshot_hits_total", "site", site).Inc()
		}
	} else {
		entry, err = fill()
	}
	if err != nil {
		return nil, err
	}
	if !filled.Load() {
		// The full artifact came out of the shared cache, so this
		// session has no coarse rung yet. Reuse a cached one, or derive
		// it from the full bytes (cheap relative to a render).
		if e, ok := p.cfg.Cache.Get("snapshot-coarse:" + site); ok {
			st.publishCoarse(snapshotRung(coarseSnapshotName, e.Data))
		} else if data, derr := coarseFromFull(entry.Data); derr == nil {
			publishCoarse(data)
		}
	}
	return p.snapshotFile(entry.Data), nil
}

// coarseFromFull derives the coarse rung from an already-encoded full
// snapshot — the shared-cache-hit path, where no paint ran to feed the
// incremental accumulator.
func coarseFromFull(full []byte) ([]byte, error) {
	img, err := imaging.Decode(full)
	if err != nil {
		return nil, err
	}
	coarse := imaging.ScaleFactor(img, progressive.DefaultCoarseScale)
	data, err := imaging.EncodeJPEG(coarse, progressive.DefaultCoarseQuality)
	imaging.PutRGBA(coarse)
	return data, err
}

// awaitSnapshot returns session id's snapshot rung name, waiting for a
// background render still producing it, bounded by the request
// context. Nil when the session has no snapshot or the render produced
// no such rung.
func (p *Proxy) awaitSnapshot(r *http.Request, id, name string) *buildFile {
	p.snapMu.Lock()
	st := p.snaps[id]
	p.snapMu.Unlock()
	if st == nil {
		return nil
	}
	if name == coarseSnapshotName {
		select {
		case <-st.coarse:
			return st.coarseFile
		case <-r.Context().Done():
			return nil
		}
	}
	select {
	case <-st.full:
		return st.fullFile
	case <-r.Context().Done():
		return nil
	}
}
