package main

import (
	"context"
	"fmt"
	"image"
	"net/url"
	"strings"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/fetch"
	"msite/internal/filter"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/raster"
	"msite/internal/session"
	"msite/internal/store"
)

// layerOrder is the per-layer table, in print order, with units.
var layerOrder = []struct{ name, unit string }{
	{"proxy.entry_ms.p50", "ms"},
	{"proxy.asset_ms.p50", "ms"},
	{"proxy.subpage_ms.p50", "ms"},
	{"proxy.personal_entry_ms.p50", "ms"},
	{"proxy.entry_unattributed_ms", "ms"},
	{"proxy.revalidate_304_ratio", "ratio"},
	{"session.get_us", "us"},
	{"session.create_us", "us"},
	{"session.files_per_pageview", "count"},
	{"session.bytes_per_pageview", "B"},
	{"cache.hit_us", "us"},
	{"cache.snapshot_hit_ratio", "ratio"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.bundle_kb", "KB"},
	{"store.hit_ratio", "ratio"},
	{"fetch.origin_requests_per_build", "count"},
	{"fetch.origin_ms_per_build", "ms"},
	{"fetch.entry_get_ms", "ms"},
	{"fetch.origin_kb_per_pageview", "KB"},
	{"filter.apply_ms", "ms"},
	{"html.tidy_ms", "ms"},
	{"css.styler_ms", "ms"},
	{"attr.apply_ms", "ms"},
	{"attr.overlay_us", "us"},
	{"layout.layout_ms", "ms"},
	{"raster.paint_ms", "ms"},
	{"imaging.snapshot_encode_ms", "ms"},
	{"imaging.prerender_encode_ms", "ms"},
	{"admission.coalesced_per_build", "count"},
	{"stage.fetch_ms", "ms"},
	{"stage.filter_ms", "ms"},
	{"stage.subres_ms", "ms"},
	{"stage.attr_ms", "ms"},
	{"stage.absolutize_ms", "ms"},
	{"stage.subpage_split_ms", "ms"},
	{"stage.layout_ms", "ms"},
	{"stage.raster_ms", "ms"},
	{"stage.encode_ms", "ms"},
	{"stage.adapt_total_ms", "ms"},
	{"runtime.alloc_mb_per_pageview", "MB"},
	{"runtime.gc_per_pageview", "count"},
	{"runtime.rss_peak_mb", "MB"},
	{"disk.growth_kb_per_pageview", "KB"},
	{"disk.write_kb_per_pageview", "KB"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.pageview_p99_ms", "ms"},
	{"loadgen.cpu_steal_ratio", "ratio"},
	{"trace.overhead_ms", "ms"},
}

// stages are the program's msite_stage_seconds spans reported per build.
var stages = []string{"fetch", "filter", "subres", "attr", "absolutize", "subpage_split", "layout", "raster", "encode", "adapt_total"}

// perLayer computes the per-layer table of a traced window. untraced is
// the same workload's untraced window, for the tracing overhead.
func perLayer(ctx context.Context, sc scenario, w, untraced *window, tr *tracer) (map[string]float64, error) {
	st := sc.stack()
	n := float64(len(w.views))
	builds := w.delta("msite_proxy_adaptations_total")
	v := map[string]float64{}

	v["proxy.entry_ms.p50"] = median(tr.durMS("entry"))
	v["proxy.asset_ms.p50"] = median(append(tr.durMS("asset"), tr.durMS("asset.personal")...))
	v["proxy.subpage_ms.p50"] = median(append(tr.durMS("subpage"), tr.durMS("subpage.personal")...))
	v["proxy.personal_entry_ms.p50"] = median(tr.durMS("entry.personal"))
	var revisits, got304 float64
	for _, pv := range w.views {
		if pv.revisit {
			revisits++
			if pv.got304 {
				got304++
			}
		}
	}
	v["proxy.revalidate_304_ratio"] = ratio(got304, revisits)

	v["session.files_per_pageview"] = ratio(float64(w.sessFiles), n)
	v["session.bytes_per_pageview"] = ratio(float64(w.sessBytes), n)
	hits, renders := w.delta("msite_proxy_snapshot_hits_total"), w.delta("msite_proxy_snapshot_renders_total")
	v["cache.snapshot_hit_ratio"] = ratio(hits, hits+renders)
	shits, smisses := w.delta("msite_store_hits_total"), w.delta("msite_store_misses_total")
	v["store.hit_ratio"] = ratio(shits, shits+smisses)
	v["fetch.origin_requests_per_build"] = ratio(float64(w.originReqs), builds)
	v["fetch.origin_ms_per_build"] = ratio(ms(w.originBusy), builds)
	v["fetch.origin_kb_per_pageview"] = ratio(float64(w.originSent), n) / 1024
	v["admission.coalesced_per_build"] = ratio(w.delta("msite_admission_coalesced_total"), builds)
	for _, s := range stages {
		v["stage."+s+"_ms"] = w.stageMS(s)
	}
	v["runtime.alloc_mb_per_pageview"] = ratio(float64(w.after.alloc-w.before.alloc), n) / (1 << 20)
	v["runtime.gc_per_pageview"] = ratio(float64(w.after.gcs-w.before.gcs), n)
	v["runtime.rss_peak_mb"] = w.rssPeakMB
	v["disk.growth_kb_per_pageview"] = ratio(float64(w.bytes), n) / 1024
	v["disk.write_kb_per_pageview"] = ratio(float64(w.after.writeBytes-w.before.writeBytes), n) / 1024
	lateMS := make([]float64, len(w.late))
	for i, l := range w.late {
		lateMS[i] = ms(l)
	}
	v["loadgen.late_p99_ms"] = quantile(lateMS, 0.99)
	v["loadgen.pageview_p99_ms"] = quantile(w.latencies(), 0.99)
	v["loadgen.cpu_steal_ratio"] = stealShare(w.before, w.after)
	// Both p50s steal-adjusted, as the gated end-to-end times are.
	v["trace.overhead_ms"] = median(w.latencies())*(1-stealShare(w.before, w.after)) -
		median(untraced.latencies())*(1-stealShare(untraced.before, untraced.after))

	// Entry points of the layers the serve path calls, timed on the
	// live stack's own sessions, cache and store.
	s := st.sites[0]
	serve, err := serveLayers(st)
	if err != nil {
		return nil, err
	}
	for k, x := range serve {
		v[k] = x
	}
	doc, err := captureDocument(ctx, s)
	if err != nil {
		return nil, err
	}
	if builds > 0 {
		pipe, err := pipelineLayers(doc, s)
		if err != nil {
			return nil, err
		}
		for k, x := range pipe {
			v[k] = x
		}
	}
	v["attr.overlay_us"] = float64(timeCalls(25, 20, func() { doc.overlay() })) / 1e3

	// Entry time no measured layer accounts for: the entry p50 minus the
	// medians of the calls the entry path makes on this workload.
	entry := v["proxy.entry_ms.p50"]
	accounted := v["attr.overlay_us"] / 1000
	switch {
	case builds > 0:
		accounted += v["session.create_us"]/1000 + v["stage.adapt_total_ms"] + v["stage.layout_ms"] + v["stage.raster_ms"] + v["stage.encode_ms"]
	case w.delta("msite_proxy_bundle_reuses_total") > 0:
		accounted += v["session.create_us"]/1000 + v["cache.hit_us"]/1000
	default:
		accounted += v["session.get_us"]/1000 + v["cache.hit_us"]/1000
	}
	v["proxy.entry_unattributed_ms"] = entry - accounted
	return v, nil
}

// serveLayers times the session, cache and store entry points.
func serveLayers(st *stack) (map[string]float64, error) {
	v := map[string]float64{}
	var (
		sessions *session.Manager
		layer    cache.Layer
		disk     *store.Store
	)
	if st.single != nil {
		sessions, layer, disk = st.single.Sessions(), st.single.Cache(), st.single.Store()
	} else {
		sessions, disk = st.multi.Sessions(), st.multi.Store()
	}

	// Create a few sessions, time lookups on them, then drop them.
	var ids []string
	v["session.create_us"] = float64(timeCalls(50, 1, func() {
		if s, err := sessions.Create(); err == nil {
			ids = append(ids, s.ID)
		}
	})) / 1e3
	if len(ids) == 0 {
		return nil, fmt.Errorf("session layer: no session created")
	}
	i := 0
	v["session.get_us"] = float64(timeCalls(25, 200, func() {
		_, _ = sessions.Get(ids[i%len(ids)])
		i++
	})) / 1e3
	for _, id := range ids {
		_ = sessions.Delete(id)
	}

	if layer != nil {
		key := "snapshot:" + st.sites[0].name
		if _, ok := layer.Get(key); !ok {
			return nil, fmt.Errorf("cache layer: %s not cached", key)
		}
		v["cache.hit_us"] = float64(timeCalls(25, 200, func() { layer.Get(key) })) / 1e3
	}

	var bundle string
	for _, k := range disk.Keys() {
		if strings.HasPrefix(k, "bundle:") {
			bundle = k
			break
		}
	}
	data, mime, _, ok := disk.Get(bundle)
	if !ok {
		return nil, fmt.Errorf("store layer: no bundle stored")
	}
	v["store.bundle_kb"] = float64(len(data)) / 1024
	v["store.get_ms"] = ms(timeCalls(15, 1, func() { disk.Get(bundle) }))
	k := 0
	v["store.put_ms"] = ms(timeCalls(15, 1, func() {
		key := fmt.Sprintf("perfbench:probe:%d", k)
		k++
		_ = disk.Put(key, data, mime, time.Hour)
		_ = disk.Delete(key)
	}))
	return v, nil
}

// document is one origin entry page the workload served, carried
// through the adaptation steps the pipeline layers run.
type document struct {
	page    *fetch.Page
	src     string // after the filter phase
	inlined string // tidied, stylesheets inlined
	images  map[string]image.Image
	applier *attr.Applier
	result  *attr.Result
	scale   float64
	getMS   float64
}

func (d *document) overlay() []byte {
	return d.applier.BuildOverlayHTML(attr.Overlay{
		SnapshotURL: "/asset/snapshot.jpg", Width: 460, Height: 1200, Scale: d.scale, Title: "forum",
	}, d.result.Subpages)
}

// captureDocument fetches a site's origin entry page the way the
// pipeline does and runs it through filter, tidy and the attribute
// phase once.
func captureDocument(ctx context.Context, s *site) (*document, error) {
	f := fetch.New(nil, fetch.WithTimeout(30*time.Second))
	d := &document{scale: s.spec.Snapshot.Scale}
	var err error
	getMS := make([]float64, 5)
	for i := range getMS {
		start := time.Now()
		if d.page, err = f.GetContext(ctx, s.origin+"/"); err != nil {
			return nil, fmt.Errorf("fetch layer: %w", err)
		}
		getMS[i] = ms(time.Since(start))
	}
	d.getMS = median(getMS)
	if d.src, err = filter.Apply(string(d.page.Body), s.spec.Filters); err != nil {
		return nil, fmt.Errorf("filter layer: %w", err)
	}
	doc := html.Tidy(d.src)
	if _, err := f.InlineStylesheetsContext(ctx, doc, d.page.URL); err != nil {
		return nil, fmt.Errorf("fetch layer: stylesheets: %w", err)
	}
	d.inlined = html.Render(doc)
	d.images = fetchImages(ctx, f, doc, d.page.URL)
	d.applier = &attr.Applier{ViewportWidth: s.spec.ViewportWidth, Images: d.images}
	if d.result, err = d.applier.Apply(s.spec, doc); err != nil {
		return nil, fmt.Errorf("attr layer: %w", err)
	}
	return d, nil
}

// fetchImages downloads and decodes the <img> sources of doc, keyed as
// the rasterizer looks them up.
func fetchImages(ctx context.Context, f *fetch.Fetcher, doc *dom.Node, base string) map[string]image.Image {
	baseURL, err := url.Parse(base)
	if err != nil {
		return nil
	}
	var srcs, abs []string
	seen := map[string]bool{}
	doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode && n.Tag == "img" {
			src := n.AttrOr("src", "")
			if u, err := baseURL.Parse(src); err == nil && src != "" && !seen[src] {
				seen[src] = true
				srcs = append(srcs, src)
				abs = append(abs, u.String())
			}
		}
		return true
	})
	images := map[string]image.Image{}
	for i, res := range f.FetchAllContext(ctx, abs, 0) {
		if res.Err != nil {
			continue
		}
		if img, err := imaging.Decode(res.Page.Body); err == nil {
			images[srcs[i]], images[abs[i]] = img, img
		}
	}
	return images
}

// pipelineLayers times the build pipeline's packages on the captured
// document.
func pipelineLayers(d *document, s *site) (map[string]float64, error) {
	v := map[string]float64{"fetch.entry_get_ms": d.getMS}
	const n = 5
	v["filter.apply_ms"] = ms(timeCalls(n, 1, func() { _, _ = filter.Apply(string(d.page.Body), s.spec.Filters) }))
	v["html.tidy_ms"] = ms(timeCalls(n, 1, func() { html.Tidy(d.src) }))

	applyMS := make([]float64, n)
	for i := range applyMS {
		doc := html.Tidy(d.inlined)
		start := time.Now()
		if _, err := d.applier.Apply(s.spec, doc); err != nil {
			return nil, fmt.Errorf("attr layer: %w", err)
		}
		applyMS[i] = ms(time.Since(start))
	}
	v["attr.apply_ms"] = median(applyMS)

	// The snapshot render: the adapted main document laid out, painted,
	// scaled and encoded.
	main := html.Tidy(html.Render(d.result.Doc))
	var styler *css.Styler
	v["css.styler_ms"] = ms(timeCalls(n, 1, func() { styler = css.StylerForDocument(main) }))
	vp := layout.Viewport{Width: s.spec.ViewportWidth}
	var res *layout.Result
	v["layout.layout_ms"] = ms(timeCalls(n, 1, func() { res = layout.Layout(main, styler, vp) }))
	var img *image.RGBA
	v["raster.paint_ms"] = ms(timeCalls(n, 1, func() {
		if img != nil {
			raster.Release(img)
		}
		img = raster.Paint(res, raster.Options{Images: d.images})
	}))
	var encErr error
	v["imaging.snapshot_encode_ms"] = ms(timeCalls(n, 1, func() {
		_, encErr = imaging.Encode(imaging.ScaleFactor(img, s.spec.Snapshot.Scale), imaging.FidelityLow)
	}))
	if encErr != nil {
		return nil, fmt.Errorf("imaging layer: %w", encErr)
	}
	for _, sub := range d.result.Subpages {
		if !sub.PreRender || len(sub.ImageData) == 0 {
			continue
		}
		pre, err := imaging.Decode(sub.ImageData)
		if err != nil {
			return nil, fmt.Errorf("imaging layer: prerender %s: %w", sub.Name, err)
		}
		v["imaging.prerender_encode_ms"] = ms(timeCalls(n, 1, func() { _, encErr = imaging.Encode(pre, sub.Fidelity) }))
		break
	}
	return v, encErr
}
