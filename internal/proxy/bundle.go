package proxy

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"image"
	"image/png"
	"time"

	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/obs"
	"msite/internal/spec"
)

// bundleWireVersion guards the gob layout; a decoder seeing a newer
// version discards the bundle and rebuilds. Version 1 records (no
// validator) still decode — the validator is simply absent and the
// first revalidation falls back to an unconditional fetch.
const bundleWireVersion = 2

// bundleKey derives the durable cache key of a build product:
// (site, spec hash, device class, fidelity). The spec hash keys bundles
// to the exact adaptation rules — editing the spec rotates the key, so
// stale bundles age out rather than get served.
func bundleKey(s *spec.Spec, width int) (string, error) {
	blob, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("proxy: hashing spec: %w", err)
	}
	h := fnv.New64a()
	_, _ = h.Write(blob)
	return fmt.Sprintf("bundle:%s:%016x:w%d:%s",
		s.Name, h.Sum64(), width, snapshotFidelity(s)), nil
}

// bundleWire is the serialized form of a builtAdaptation. DOM trees gob
// out as rendered HTML (the node graph is cyclic) and decoded images as
// PNG; both re-materialize on load.
type bundleWire struct {
	Version  int
	Site     string
	Subpages []subpageWire
	Notes    []string
	Files    []fileWire
	Images   []imageWire
	// Validator (version 2+) carries the origin's cache validators from
	// the build's entry fetch; the prefetch refresher revalidates with
	// them instead of re-downloading. gob leaves it zero when decoding a
	// version-1 record.
	Validator BundleValidator
}

// BundleValidator is the origin-freshness evidence stored with a
// bundle: the entry page's ETag and Last-Modified as fetched, plus when
// the fetch happened.
type BundleValidator struct {
	ETag         string
	LastModified string
	FetchedAt    time.Time
}

// Zero reports whether no validator was captured (pre-v2 bundle, or an
// origin that sends none).
func (v BundleValidator) Zero() bool {
	return v.ETag == "" && v.LastModified == "" && v.FetchedAt.IsZero()
}

type fileWire struct {
	Dir, Name, Kind string
	Data            []byte
}

type subpageWire struct {
	Name, Title string
	DocHTML     []byte
	Parent      string
	Region      attr.Region
	PreRender   bool
	AJAX        bool
	Fidelity    int
	ImageData   []byte
	ImageMIME   string
	PartialCSS  bool
	SearchJS    string
	CacheTTL    time.Duration
	Shared      bool
}

type imageWire struct {
	// Keys are every map key sharing this image (an <img> src is stored
	// under both its written and absolute forms).
	Keys []string
	PNG  []byte
}

// encodeBundle serializes a build product for the durable tier.
func encodeBundle(site string, b *builtAdaptation) ([]byte, error) {
	w := bundleWire{Version: bundleWireVersion, Site: site, Notes: b.notes, Validator: b.validator}
	for _, sub := range b.subpages {
		sw := subpageWire{
			Name:       sub.Name,
			Title:      sub.Title,
			Parent:     sub.Parent,
			Region:     sub.Region,
			PreRender:  sub.PreRender,
			AJAX:       sub.AJAX,
			Fidelity:   int(sub.Fidelity),
			ImageData:  sub.ImageData,
			ImageMIME:  sub.ImageMIME,
			PartialCSS: sub.PartialCSS,
			SearchJS:   sub.SearchJS,
			CacheTTL:   sub.CacheTTL,
			Shared:     sub.Shared,
		}
		if sub.Doc != nil {
			sw.DocHTML = []byte(html.Render(sub.Doc))
		}
		w.Subpages = append(w.Subpages, sw)
	}
	for _, bf := range b.files {
		w.Files = append(w.Files, fileWire{Dir: bf.dir, Name: bf.name, Kind: bf.kind, Data: bf.data})
	}
	// Images are stored once per distinct decoded image, carrying every
	// alias key, so the src/absolute-URL double keying doesn't double the
	// bytes.
	index := make(map[image.Image]int, len(b.images))
	for key, img := range b.images {
		if i, ok := index[img]; ok {
			w.Images[i].Keys = append(w.Images[i].Keys, key)
			continue
		}
		var buf bytes.Buffer
		if err := png.Encode(&buf, img); err != nil {
			return nil, fmt.Errorf("proxy: encoding bundle image %q: %w", key, err)
		}
		index[img] = len(w.Images)
		w.Images = append(w.Images, imageWire{Keys: []string{key}, PNG: buf.Bytes()})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("proxy: encoding bundle: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeBundle re-materializes a build product: subpage documents are
// re-parsed from their rendered HTML and images decoded from PNG.
func decodeBundle(data []byte) (*builtAdaptation, error) {
	var w bundleWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("proxy: decoding bundle: %w", err)
	}
	if w.Version < 1 || w.Version > bundleWireVersion {
		return nil, fmt.Errorf("proxy: bundle version %d (want 1..%d)", w.Version, bundleWireVersion)
	}
	b := &builtAdaptation{
		subpages:  make(map[string]*attr.Subpage, len(w.Subpages)),
		notes:     w.Notes,
		validator: w.Validator,
	}
	for _, sw := range w.Subpages {
		sub := &attr.Subpage{
			Name:       sw.Name,
			Title:      sw.Title,
			Parent:     sw.Parent,
			Region:     sw.Region,
			PreRender:  sw.PreRender,
			AJAX:       sw.AJAX,
			Fidelity:   imaging.Fidelity(sw.Fidelity),
			ImageData:  sw.ImageData,
			ImageMIME:  sw.ImageMIME,
			PartialCSS: sw.PartialCSS,
			SearchJS:   sw.SearchJS,
			CacheTTL:   sw.CacheTTL,
			Shared:     sw.Shared,
		}
		if len(sw.DocHTML) > 0 {
			sub.Doc = tidyDoc(string(sw.DocHTML))
		}
		b.subpages[sub.Name] = sub
	}
	for _, fw := range w.Files {
		b.files = append(b.files, buildFile{dir: fw.Dir, name: fw.Name, data: fw.Data, kind: fw.Kind})
	}
	if len(w.Images) > 0 {
		b.images = make(map[string]image.Image, len(w.Images))
		for _, iw := range w.Images {
			img, err := png.Decode(bytes.NewReader(iw.PNG))
			if err != nil {
				return nil, fmt.Errorf("proxy: decoding bundle image: %w", err)
			}
			for _, key := range iw.Keys {
				b.images[key] = img
			}
		}
	}
	return b.seal(), nil
}

// bundleMemo pairs a bundle cache entry's data with its build.
type bundleMemo struct {
	data  []byte
	build *builtAdaptation
}

// bundleFor returns the build of the bundle bytes data, decoding only
// when data is not the slice last decoded or saved. The cache returns
// the same slice for as long as an entry lives, so the gob decodes at
// most once per cache entry, while TTL expiry, ?refresh=1, and a forced
// prefetch still swap the build by replacing the entry.
func (p *Proxy) bundleFor(data []byte) (*builtAdaptation, error) {
	if m := p.bundleMemo.Load(); m != nil && sameBytes(m.data, data) {
		return m.build, nil
	}
	b, err := decodeBundle(data)
	if err != nil {
		return nil, err
	}
	p.bundleMemo.Store(&bundleMemo{data: data, build: b})
	return b, nil
}

// loadBundle tries to satisfy a build from the persisted bundle. With a
// tiered cache this is where a restarted proxy skips the whole pipeline:
// the durable record decodes into the same build product the pipeline
// would produce. A bundle that fails to decode (version drift, torn
// record) is deleted and rebuilt.
func (p *Proxy) loadBundle(ctx context.Context) (*builtAdaptation, bool) {
	e, ok := p.cfg.Cache.Get(p.bundleKey)
	if !ok {
		return nil, false
	}
	b, err := p.bundleFor(e.Data)
	if err != nil {
		p.cfg.Cache.Delete(p.bundleKey)
		obs.TraceFrom(ctx).Annotate("bundle", "discarded")
		return nil, false
	}
	p.obs.Counter("msite_proxy_bundle_reuses_total", "site", p.cfg.Spec.Name).Inc()
	obs.TraceFrom(ctx).Annotate("bundle", "reuse")
	p.setBundleValidator(b.validator)
	return b, true
}

// saveBundle persists a fresh build product. The Put is L1-synchronous
// and store-asynchronous (via the tiered write-through), so the build
// path never waits on disk; encode failures only cost the persistence.
func (p *Proxy) saveBundle(b *builtAdaptation) {
	data, err := encodeBundle(p.cfg.Spec.Name, b)
	if err != nil {
		p.obs.Counter("msite_proxy_bundle_encode_errors_total", "site", p.cfg.Spec.Name).Inc()
		return
	}
	p.cfg.Cache.Put(p.bundleKey, cache.Entry{Data: data, MIME: "application/x-msite-bundle"}, p.bundleTTL)
	p.bundleMemo.Store(&bundleMemo{data: data, build: b})
	p.setBundleValidator(b.validator)
}
