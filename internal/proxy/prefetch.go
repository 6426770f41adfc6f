package proxy

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"msite/internal/cache"
	"msite/internal/fetch"
)

// This file is the proxy surface the prefetch crawler
// (internal/prefetch) drives: building a site's shared bundle ahead of
// demand, reading the persisted validator, and bumping the bundle's TTL
// when a conditional GET came back 304.

// ErrNoBundlePersistence reports a prefetch call against a proxy whose
// bundle persistence is off — there is nowhere to put the pre-built
// product.
var ErrNoBundlePersistence = errors.New("proxy: prefetch requires bundle persistence")

// PrefetchBuild builds (or verifies) this site's shared bundle off the
// live request path. With force false an existing bundle satisfies the
// call without a pipeline run; with force true the pipeline always runs
// and overwrites the bundle — the refresh path after the origin changed.
// The admission slot comes from the background lane, so a call under
// live load returns admission.ErrBackgroundBusy instead of queueing.
// Returns whether a pipeline build actually ran.
func (p *Proxy) PrefetchBuild(ctx context.Context, force bool) (bool, error) {
	if p.bundleKey == "" {
		return false, ErrNoBundlePersistence
	}
	var ran atomic.Bool
	build := func(bctx context.Context) (*builtAdaptation, error) {
		if !force {
			if b, ok := p.loadBundle(bctx); ok {
				return b, nil
			}
		}
		release, err := p.cfg.Admission.AcquireBackground(bctx)
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
	// The coalesce key is shared with live cold adaptations: a prefetch
	// arriving while a live build runs joins it (and vice versa) instead
	// of fetching the origin twice.
	b, _, err := p.coalesce.Do(ctx, "adapt:"+p.cfg.Spec.Name, build)
	if err == nil && b != nil {
		p.prerenderSnapshot(ctx, b)
	}
	return ran.Load(), err
}

// prerenderSnapshot renders the shared entry snapshot from a bundle the
// prefetch path just built or loaded. Without this the crawler removes
// the pipeline cost of a cold miss but leaves the layout/raster/encode
// of the snapshot for the first live visitor; pre-filling the shared
// cache entry means that visitor serves entirely warm. Sites with
// per-session (non-shared) snapshots are skipped — there is no shared
// entry to warm.
func (p *Proxy) prerenderSnapshot(ctx context.Context, b *builtAdaptation) {
	ttl := time.Duration(p.cfg.Spec.Snapshot.CacheTTLSeconds) * time.Second
	if !p.cfg.Spec.Snapshot.Shared || ttl <= 0 {
		return
	}
	// GetOrFill leaves an already-warm snapshot (live render or
	// disk-tier rehydration) alone.
	_, _ = p.cfg.Cache.GetOrFill("snapshot:"+p.cfg.Spec.Name, ttl, func() (cache.Entry, error) {
		return p.renderSnapshot(ctx, b)
	})
}

// BundleValidator returns the persisted bundle's origin validator. Zero
// when no bundle has been built or loaded this process lifetime, or when
// the bundle predates validator capture (wire version 1).
func (p *Proxy) BundleValidator() BundleValidator {
	p.valMu.Lock()
	defer p.valMu.Unlock()
	return p.bundleVal
}

// setBundleValidator records the validator of the bundle most recently
// saved or loaded.
func (p *Proxy) setBundleValidator(v BundleValidator) {
	p.valMu.Lock()
	p.bundleVal = v
	p.valMu.Unlock()
}

// TouchBundle restarts the persisted bundle's TTL — the 304 path: the
// origin proved the content unchanged, so the bundle earns a full new
// lifetime without being rewritten. Returns whether a live bundle was
// touched.
func (p *Proxy) TouchBundle() bool {
	if p.bundleKey == "" {
		return false
	}
	ok := p.cfg.Cache.Touch(p.bundleKey, p.bundleTTL)
	if ok {
		p.valMu.Lock()
		p.bundleVal.FetchedAt = time.Now()
		p.valMu.Unlock()
	}
	return ok
}

// Origin returns the entry-page URL this proxy adapts — the prefetch
// crawler's crawl root for the site.
func (p *Proxy) Origin() string { return p.cfg.Spec.Origin }

// SiteName returns the spec name identifying this proxy's site.
func (p *Proxy) SiteName() string { return p.cfg.Spec.Name }

// PrefetchFetcher returns an anonymous fetcher configured like the
// build pipeline's (same timeout, retry, and breaker wiring) for the
// crawler's link-graph walks and conditional revalidation probes.
func (p *Proxy) PrefetchFetcher() *fetch.Fetcher {
	return fetch.New(nil, p.cfg.FetchOptions...)
}
