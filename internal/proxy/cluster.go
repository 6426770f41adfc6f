package proxy

import (
	"context"
	"sync/atomic"
	"time"

	"msite/internal/cache"
	"msite/internal/fetch"
	"msite/internal/layout"
	"msite/internal/obs"
	"msite/internal/spec"
)

// This file is the proxy surface of cluster mode (internal/cluster):
// the requester side (fetchFromOwner, consulted on a cold
// non-personalized build before spending a local pipeline run) and the
// owner side (ClusterBuild/ClusterSnapshot, the cluster.Builder
// implementation the peer transport serves).

// ClusterHook is the requester-side routing seam the proxy consults on
// a cold build; *cluster.Node implements it. remote=false means this
// node owns the key (build locally as usual); remote=true with err set
// means the owner was tried and failed — the caller takes over locally.
type ClusterHook interface {
	FetchBundle(ctx context.Context, site, key string) (bundle []byte, snapshot *cache.Entry, remote bool, err error)
}

// BundleKeyForSpec computes the durable bundle key New would derive for
// this spec and viewport override — the ring routing key. Exported so
// core and the cluster experiments can predict a site's ring owner
// without constructing a proxy.
func BundleKeyForSpec(s *spec.Spec, viewportWidth int) (string, error) {
	width := viewportWidth
	if width == 0 {
		width = s.ViewportWidth
	}
	if width == 0 {
		width = layout.DefaultViewport.Width
	}
	return bundleKey(s, width)
}

// BundleKey returns this proxy's durable bundle key ("" when bundle
// persistence is off).
func (p *Proxy) BundleKey() string { return p.bundleKey }

// fetchFromOwner tries to satisfy a cold build from the key's ring
// owner. ok=false means the caller proceeds with a local build: this
// node owns the key, cluster mode is off, the peer's bundle didn't
// decode, or the owner is down (local takeover — availability over
// strict ownership; the hook has already marked the peer down and
// counted the fallback).
func (p *Proxy) fetchFromOwner(ctx context.Context) (*builtAdaptation, bool) {
	if p.cfg.Cluster == nil || p.bundleKey == "" {
		return nil, false
	}
	data, snap, remote, err := p.cfg.Cluster.FetchBundle(ctx, p.cfg.Spec.Name, p.bundleKey)
	if !remote {
		return nil, false
	}
	if err != nil {
		obs.TraceFrom(ctx).Annotate("cluster", "fallback_local")
		return nil, false
	}
	b, derr := p.bundleFor(data)
	if derr != nil {
		obs.TraceFrom(ctx).Annotate("cluster", "bad_peer_bundle")
		return nil, false
	}
	// Seed the local tiers with the owner's product so the next cold
	// miss here (or a restart, via the durable tier) skips the hop too.
	p.cfg.Cache.Put(p.bundleKey, cache.Entry{Data: data, MIME: "application/x-msite-bundle"}, p.bundleTTL)
	p.setBundleValidator(b.validator)
	if snap != nil {
		if ttl := time.Duration(p.cfg.Spec.Snapshot.CacheTTLSeconds) * time.Second; p.cfg.Spec.Snapshot.Shared && ttl > 0 {
			key := "snapshot:" + p.cfg.Spec.Name
			if _, warm := p.cfg.Cache.Get(key); !warm {
				p.cfg.Cache.Put(key, *snap, ttl)
			}
		}
	}
	p.obs.Counter("msite_proxy_bundle_reuses_total", "site", p.cfg.Spec.Name).Inc()
	obs.TraceFrom(ctx).Annotate("cluster", "forwarded")
	return b, true
}

// ClusterBuild implements cluster.Builder: the owner-side build a peer
// transport request lands on. Like PrefetchBuild it reuses an existing
// bundle without a pipeline run, but the admission slot comes from the
// foreground lane — a forwarded live request is live load, and this
// slot (on the owner, not the requester) is the build's only one.
// Concurrent forwards and local cold builds of the same site coalesce
// into one pipeline run, which is what makes a cross-node flash crowd
// cost one build.
func (p *Proxy) ClusterBuild(ctx context.Context) ([]byte, bool, error) {
	if p.bundleKey == "" {
		return nil, false, ErrNoBundlePersistence
	}
	var ran atomic.Bool
	build := func(bctx context.Context) (*builtAdaptation, error) {
		if b, ok := p.loadBundle(bctx); ok {
			return b, nil
		}
		release, err := p.cfg.Admission.Acquire(bctx)
		if err != nil {
			return nil, err
		}
		defer release()
		b, err := p.buildAdaptation(bctx, fetch.New(nil, p.cfg.FetchOptions...))
		if err == nil {
			p.saveBundle(b)
			ran.Store(true)
		}
		return b, err
	}
	b, coalesced, err := p.coalesce.Do(ctx, "adapt:"+p.cfg.Spec.Name, build)
	if err != nil {
		return nil, false, err
	}
	if coalesced {
		p.obs.Counter("msite_admission_coalesced_total", "site", p.cfg.Spec.Name).Inc()
		obs.TraceFrom(ctx).Annotate("coalesced", "adaptation")
	}
	// Warm the shared snapshot too, so the requester's snapshot fetch
	// (and this node's next visitor) serves without a render.
	p.prerenderSnapshot(ctx, b)
	// Serve the stored bytes when present (saveBundle just put them, or
	// an earlier build did); re-encode only if the cache dropped them.
	if e, ok := p.cfg.Cache.Get(p.bundleKey); ok {
		return e.Data, ran.Load(), nil
	}
	data, err := encodeBundle(p.cfg.Spec.Name, b)
	if err != nil {
		return nil, false, err
	}
	return data, ran.Load(), nil
}

// ClusterSnapshot implements cluster.Builder: the shared snapshot
// entry, when this site has one warm.
func (p *Proxy) ClusterSnapshot() (cache.Entry, bool) {
	if !p.cfg.Spec.Snapshot.Shared {
		return cache.Entry{}, false
	}
	return p.cfg.Cache.Get("snapshot:" + p.cfg.Spec.Name)
}
