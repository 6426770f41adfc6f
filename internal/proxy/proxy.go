// Package proxy implements m.Site's multi-session content adaptation
// proxy (§3.2): the generated shell code's runtime. It manages session
// cookies, downloads origin pages on demand with per-user cookie jars and
// HTTP auth interposition, runs the source-level filter phase and the
// DOM-level attribute phase, serves the generated subpages and images
// from one immutable in-memory build shared by every anonymous session
// (personalized sessions also get the paper's protected per-user
// directory), serves the cached snapshot entry page, and satisfies
// rewritten AJAX calls — all without a heavyweight browser instance per
// client.
package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"image"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/admission"
	"msite/internal/ajax"
	"msite/internal/attr"
	"msite/internal/cache"
	"msite/internal/dom"
	"msite/internal/fetch"
	"msite/internal/filter"
	"msite/internal/imaging"
	"msite/internal/layout"
	"msite/internal/obs"
	"msite/internal/quality"
	"msite/internal/raster"
	"msite/internal/render"
	"msite/internal/session"
	"msite/internal/spec"
)

// Config wires a Proxy.
type Config struct {
	// Spec is the adaptation specification (required, validated).
	Spec *spec.Spec
	// Sessions manages per-client state (required).
	Sessions *session.Manager
	// Cache is the public cross-session render cache (required). With a
	// *cache.Tiered it is also the durable tier adapted artifacts
	// persist through.
	Cache cache.Layer
	// ViewportWidth overrides the spec's server-side render width.
	ViewportWidth int
	// FetchOptions are applied to every origin fetcher.
	FetchOptions []fetch.Option
	// PathPrefix mounts the proxy under a URL prefix (e.g. "/p/forum"),
	// letting one server host the adaptation proxies for several pages
	// of a site (see MultiProxy). Empty mounts at the root.
	PathPrefix string
	// Obs receives the proxy's metrics and request traces. Nil creates a
	// private registry (core wires one shared registry across the stack).
	Obs *obs.Registry
	// Logger, when non-nil, emits one structured line per request with
	// session id, handler kind, cache outcome, status, and duration.
	// Nil disables request logging (the default, and what tests use).
	Logger *slog.Logger
	// FetchWorkers bounds the parallelism of subresource downloads
	// (stylesheets, render images) during adaptation. 0 uses the
	// fetcher's default; 1 forces serial fetching.
	FetchWorkers int
	// RasterWorkers is the band parallelism of snapshot rasterization.
	// 0 uses GOMAXPROCS; 1 forces the serial painter.
	RasterWorkers int
	// ServeStale keeps serving a session's previous adaptation (and the
	// shared snapshot past its TTL) when re-adaptation fails because the
	// origin is unreachable, instead of returning 502.
	ServeStale bool
	// StaleFor bounds how long past expiry a shared snapshot remains
	// servable while a background refresh runs (stale-while-revalidate).
	// Zero with ServeStale set uses DefaultStaleFor.
	StaleFor time.Duration
	// Admission is the overload-protection tier: the adaptation
	// concurrency limiter and per-client rate limiter. Nil admits
	// everything (the default, and what most tests use). One controller
	// is shared across every site of a MultiProxy.
	Admission *admission.Controller
	// PersistBundles stores each non-personalized build product (subpage
	// set, generated files, decoded images) in the cache keyed by
	// (site, spec hash, device class, fidelity), so a restarted proxy —
	// whose Cache is backed by a durable tier — reuses the build instead
	// of re-running the pipeline. Off by default; core enables it when a
	// store is configured.
	PersistBundles bool
	// BundleTTL bounds a persisted bundle's lifetime (zero uses
	// DefaultBundleTTL). A spec change rotates the key, so the TTL only
	// has to cover origin-content drift.
	BundleTTL time.Duration
	// Stream enables flush-early entry serving: the overlay head is
	// written and flushed before the origin fetch begins, above-the-fold
	// image-map areas follow as soon as the attribute phase has regions,
	// and the snapshot renders on a background goroutine the asset
	// handler waits on. Off, the entry buffers as before.
	Stream bool
	// ATFHeight is the above-the-fold boundary in scaled snapshot
	// pixels for the streaming entry's fragment split. 0 uses
	// DefaultATFHeight; negative treats everything as above the fold.
	ATFHeight int
	// SnapshotProgressive serves the snapshot as a temporal fidelity
	// ladder on the streaming path: a coarse quarter-scale JPEG the
	// moment rasterization finishes, upgraded in-place to the
	// full-fidelity artifact (byte-identical to the buffered encode)
	// once it completes. Requires Stream.
	SnapshotProgressive bool
	// MinimalMarkup forces the MAML-style minimal-markup entry mode for
	// every request, regardless of the spec's minimal_markup attribute.
	MinimalMarkup bool
	// Demand, when non-nil, is called with the site name on every entry
	// and subpage request — the live-traffic signal the prefetch
	// crawler's demand ranking decays over. Must be cheap and
	// non-blocking; it runs on the serve path.
	Demand func(site string)
	// RepairRules selects mobile-repair rules (internal/quality) to run
	// over every adapted document and subpage after the attribute
	// phase: a comma-separated rule list, or "all". Empty disables the
	// pass. Unknown rule names are a construction error.
	RepairRules string
	// ParityCheck enables the content-parity validator: every build
	// inventories origin vs adapted text/links/forms, records the score
	// in metrics, notes, and the /debug/parity report.
	ParityCheck bool
	// ParityMinScore, with ParityCheck, fails the build loudly when the
	// parity score drops below it (0 disables the hard gate; 1 demands
	// every non-sanctioned content item survive adaptation).
	ParityMinScore float64
	// Cluster, when non-nil, routes cold non-personalized builds to the
	// bundle key's consistent-hash ring owner (internal/cluster) before
	// spending a local pipeline run. Personalized sessions always build
	// locally (sticky routing). Requires PersistBundles — without a
	// bundle key there is nothing to route by.
	Cluster ClusterHook
}

// DefaultATFHeight is the above-the-fold boundary (in scaled snapshot
// pixels) when streaming is on and no ATFHeight is configured — a
// typical small-screen viewport height.
const DefaultATFHeight = 480

// DefaultBundleTTL is the persisted-bundle lifetime when PersistBundles
// is on and no BundleTTL is configured.
const DefaultBundleTTL = time.Hour

// TraceHeader is the response header carrying the request's trace ID;
// the same ID keys the request's /debug/traces entry and its "trace"
// slog attribute, so client reports, traces, and logs correlate.
const TraceHeader = "X-MSite-Trace"

// SessionCapRetryAfter is the Retry-After hint sent with 503s caused by
// the -max-sessions cap: sessions free up on the idle-GC timescale, not
// the pipeline one.
const SessionCapRetryAfter = 30 * time.Second

// DefaultStaleFor is how long past its TTL a shared snapshot stays
// servable when ServeStale is on and no StaleFor is configured.
const DefaultStaleFor = 5 * time.Minute

// Stats counts proxy work for the scalability experiments.
type Stats struct {
	// Requests is every proxied request.
	Requests uint64
	// Adaptations is full adaptation passes (fetch+filter+attr).
	Adaptations uint64
	// SnapshotRenders is server-side graphical renders (the expensive
	// browser-path work).
	SnapshotRenders uint64
	// SnapshotHits is snapshots served from the shared cache.
	SnapshotHits uint64
}

// Proxy is the m.Site content adaptation proxy for one origin page.
type Proxy struct {
	cfg        Config
	dispatcher *ajax.Dispatcher
	applier    *attr.Applier
	engines    *render.EngineSet
	width      int
	prefix     string
	obs        *obs.Registry
	logger     *slog.Logger
	rasterWork int
	staleFor   time.Duration
	// bundleKey is the durable-bundle cache key for this proxy's
	// (site, spec hash, device class, fidelity); empty when
	// PersistBundles is off.
	bundleKey string
	bundleTTL time.Duration
	// bundleVal mirrors the persisted bundle's validator in memory so the
	// prefetch refresher reads it without decoding the stored bundle
	// (valMu-guarded; populated by saveBundle and loadBundle).
	valMu     sync.Mutex
	bundleVal BundleValidator
	// bundleMemo pairs the bundle cache entry's data last decoded or
	// saved with its build, so the gob decodes at most once per entry.
	bundleMemo atomic.Pointer[bundleMemo]
	// snapMemo is the snapshot last served with its ETag, so a shared
	// cache entry's ETag is computed once.
	snapMemo atomic.Pointer[buildFile]
	// overlayMemo is the buffered entry page last built.
	overlayMemo atomic.Pointer[overlayMemo]

	// Work counters are atomic (not under mu) so Stats() snapshots and
	// metric scrapes never contend with the adaptation hot path.
	nRequests        atomic.Uint64
	nAdaptations     atomic.Uint64
	nSnapshotRenders atomic.Uint64
	nSnapshotHits    atomic.Uint64

	// coalesce collapses concurrent cold adaptations of the same page
	// across sessions into one pipeline run (admission control tier 2);
	// personalized sessions bypass it.
	coalesce *admission.Coalescer[*builtAdaptation]

	// adapted maps a session ID to the build it serves from: anonymous
	// sessions share one build, personalized sessions hold their own.
	mu       sync.Mutex
	adapted  map[string]*builtAdaptation
	inflight map[string]chan struct{}

	// snapGen versions the full-fidelity snapshot URL on the streaming
	// path, so the coarse-first overlay's upgrade reference never hits a
	// client cache entry from a previous render generation.
	snapGen atomic.Uint64
	// snaps holds each session's entry snapshot: the bytes its last
	// entry referenced, or a background render the asset handler waits
	// on.
	snapMu sync.Mutex
	snaps  map[string]*snapState

	// repairRules is the parsed RepairRules pass (nil when disabled);
	// lastParity is the most recent parity report for /debug/parity.
	repairRules []quality.Rule
	lastParity  atomic.Pointer[quality.Parity]
}

// New validates the config and builds the proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Spec == nil {
		return nil, errors.New("proxy: nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sessions == nil {
		return nil, errors.New("proxy: nil session manager")
	}
	if cfg.Cache == nil {
		return nil, errors.New("proxy: nil cache")
	}
	width := cfg.ViewportWidth
	if width == 0 {
		width = cfg.Spec.ViewportWidth
	}
	if width == 0 {
		width = layout.DefaultViewport.Width
	}
	dispatcher, err := ajax.NewDispatcher(cfg.Spec.Actions, cfg.Cache)
	if err != nil {
		return nil, err
	}
	prefix := strings.TrimSuffix(cfg.PathPrefix, "/")
	if prefix != "" && !strings.HasPrefix(prefix, "/") {
		return nil, fmt.Errorf("proxy: path prefix %q must start with /", cfg.PathPrefix)
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cfg.Sessions.InstrumentObs(reg)
	if cfg.FetchWorkers > 0 {
		cfg.FetchOptions = append(cfg.FetchOptions, fetch.WithWorkers(cfg.FetchWorkers))
	}
	staleFor := cfg.StaleFor
	if cfg.ServeStale && staleFor <= 0 {
		staleFor = DefaultStaleFor
	}
	if cfg.Admission != nil {
		cfg.Admission.SetObs(reg)
	}
	p := &Proxy{
		cfg:        cfg,
		dispatcher: dispatcher,
		engines:    render.NewEngineSet(),
		width:      width,
		prefix:     prefix,
		obs:        reg,
		logger:     cfg.Logger,
		rasterWork: cfg.RasterWorkers,
		staleFor:   staleFor,
		coalesce:   admission.NewCoalescer[*builtAdaptation](),
		adapted:    make(map[string]*builtAdaptation),
		inflight:   make(map[string]chan struct{}),
		snaps:      make(map[string]*snapState),
	}
	if cfg.RepairRules != "" {
		rules, err := quality.ParseRules(cfg.RepairRules)
		if err != nil {
			return nil, fmt.Errorf("proxy: %w", err)
		}
		p.repairRules = rules
	}
	if cfg.PersistBundles {
		key, err := bundleKey(cfg.Spec, width)
		if err != nil {
			return nil, err
		}
		p.bundleKey = key
		p.bundleTTL = cfg.BundleTTL
		if p.bundleTTL <= 0 {
			p.bundleTTL = DefaultBundleTTL
		}
	}
	// Release per-session adaptation state when the session manager
	// expires, deletes, or GCs the session — without this the adapted
	// map grows for the life of the proxy.
	cfg.Sessions.OnExpire(func(id string) {
		p.mu.Lock()
		delete(p.adapted, id)
		p.mu.Unlock()
		p.snapMu.Lock()
		delete(p.snaps, id)
		p.snapMu.Unlock()
	})
	p.applier = &attr.Applier{
		ViewportWidth: width,
		SubpageURL:    func(name string) string { return prefix + "/subpage/" + url.PathEscape(name) },
		AssetURL:      func(name string) string { return prefix + "/asset/" + url.PathEscape(name) },
		AJAXEndpoint:  prefix + "/ajax",
	}
	return p, nil
}

// Stats returns a snapshot of the proxy counters. It reads atomics —
// never the proxy mutex — so it is safe to poll at any rate.
func (p *Proxy) Stats() Stats {
	return Stats{
		Requests:        p.nRequests.Load(),
		Adaptations:     p.nAdaptations.Load(),
		SnapshotRenders: p.nSnapshotRenders.Load(),
		SnapshotHits:    p.nSnapshotHits.Load(),
	}
}

// Obs exposes the proxy's metric registry (shared with core when wired
// through it).
func (p *Proxy) Obs() *obs.Registry { return p.obs }

// handlerKind classifies a proxy-relative path for metrics, traces, and
// logs.
func handlerKind(path string) string {
	switch {
	case path == "/":
		return "entry"
	case strings.HasPrefix(path, "/subpage/"):
		return "subpage"
	case strings.HasPrefix(path, "/asset/"):
		return "asset"
	case path == "/ajax":
		return "ajax"
	case path == "/auth":
		return "auth"
	case path == "/login":
		return "login"
	case path == "/logout":
		return "logout"
	case path == "/stats":
		return "stats"
	default:
		return "notfound"
	}
}

// statusRecorder captures the response status for metrics and logging.
// It forwards the optional ResponseWriter interfaces the stdlib sniffs
// for: Flush (streaming handlers stall behind a recorder that hides
// http.Flusher) and ReadFrom (the sendfile fast path io.Copy probes
// for).
type statusRecorder struct {
	http.ResponseWriter
	status int
	// firstByte is when the response first became visible to the client
	// (first body write, explicit header commit, or flush) — the
	// server-side TTFB mark the streaming histograms observe.
	firstByte time.Time
}

// markFirstByte stamps the first moment response bytes leave the
// handler; later calls are no-ops.
func (r *statusRecorder) markFirstByte() {
	if r.firstByte.IsZero() {
		r.firstByte = time.Now()
	}
}

// WriteHeader implements http.ResponseWriter.
func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.markFirstByte()
	r.ResponseWriter.WriteHeader(code)
}

// Write implements io.Writer, stamping TTFB on the first body write.
func (r *statusRecorder) Write(b []byte) (int, error) {
	r.markFirstByte()
	return r.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does;
// otherwise it is a no-op rather than a panic. The streaming entry
// path depends on this passthrough: a recorder that hid Flusher would
// buffer the early-flushed head until the handler returned.
func (r *statusRecorder) Flush() {
	r.markFirstByte()
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom preserves the underlying writer's io.ReaderFrom fast path
// (sendfile on *http.response); without it io.Copy falls back to the
// buffered loop for every recorder-wrapped response.
func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.markFirstByte()
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	// Copy through the plain Writer; going through r itself would
	// recurse into this method forever.
	return io.Copy(struct{ io.Writer }{r.ResponseWriter}, src)
}

// ServeHTTP implements http.Handler. Every request is counted, traced
// (the trace lands in the obs ring buffer for /debug/traces), timed into
// a per-handler latency histogram, and optionally logged.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.nRequests.Add(1)
	reqStart := time.Now()

	path := r.URL.Path
	if p.prefix != "" {
		if !strings.HasPrefix(path, p.prefix) {
			http.NotFound(w, r)
			return
		}
		path = strings.TrimPrefix(path, p.prefix)
		if path == "" {
			path = "/"
		}
	}

	kind := handlerKind(path)
	site := p.cfg.Spec.Name
	p.obs.Counter("msite_proxy_requests_total", "handler", kind, "site", site).Inc()
	if p.cfg.Demand != nil && (kind == "entry" || kind == "subpage") {
		p.cfg.Demand(site)
	}
	ctx, tr := p.obs.StartTrace(r.Context(), kind)
	r = r.WithContext(ctx)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	// The trace ID goes back to the client so a slow or failed request
	// can be matched to its /debug/traces entry and log lines.
	rec.Header().Set(TraceHeader, tr.ID())

	if ok, retry := p.allowClient(r); !ok {
		obs.TraceFrom(ctx).Annotate("shed", admission.ReasonRateLimit)
		rec.Header().Set("Retry-After", strconv.Itoa(admission.RetryAfterSeconds(retry)))
		http.Error(rec, "rate limit exceeded, retry later", http.StatusTooManyRequests)
		d := tr.End()
		p.obs.Histogram("msite_http_request_seconds", "handler", kind).ObserveDuration(d)
		p.logRequest(r, tr, kind, rec.status, d)
		return
	}

	switch kind {
	case "entry":
		p.handleEntry(rec, r)
	case "subpage":
		p.handleSubpage(rec, r, strings.TrimPrefix(path, "/subpage/"))
	case "asset":
		p.handleAsset(rec, r, strings.TrimPrefix(path, "/asset/"))
	case "ajax":
		p.handleAJAX(rec, r)
	case "auth":
		p.handleAuth(rec, r)
	case "login":
		p.handleLogin(rec, r)
	case "logout":
		p.handleLogout(rec, r)
	case "stats":
		p.handleStats(rec, r)
	default:
		http.NotFound(rec, r)
	}

	d := tr.End()
	p.obs.Histogram("msite_http_request_seconds", "handler", kind).ObserveDuration(d)
	if !rec.firstByte.IsZero() {
		p.obs.Histogram("msite_proxy_ttfb_seconds", "handler", kind).
			ObserveDuration(rec.firstByte.Sub(reqStart))
	}
	if rec.status >= 500 {
		p.obs.Counter("msite_proxy_errors_total", "handler", kind, "site", site).Inc()
	}
	p.logRequest(r, tr, kind, rec.status, d)
}

// allowClient applies the per-client token bucket (admission control
// tier 3). Requests from clients with a session cookie are keyed by the
// cookie value (NATed users stay independent); cookieless first contacts
// fall back to the remote address.
func (p *Proxy) allowClient(r *http.Request) (bool, time.Duration) {
	return p.cfg.Admission.AllowClient(clientKey(r))
}

// clientKey derives the rate-limit bucket key for a request.
func clientKey(r *http.Request) string {
	if c, err := r.Cookie(session.CookieName); err == nil && c.Value != "" {
		return "s:" + c.Value
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return "a:" + r.RemoteAddr
	}
	return "a:" + host
}

// serverError answers a failed request with a generic body: the error
// detail goes onto the request trace (and, through it, into the
// structured error log line), never into client-visible bytes.
func (p *Proxy) serverError(w http.ResponseWriter, r *http.Request, status int, public string, err error) {
	if err != nil {
		obs.TraceFrom(r.Context()).Annotate("error", err.Error())
	}
	http.Error(w, public, status)
}

// shedError answers an admission-shed request: 503 (or 429 for rate
// limiting) with a Retry-After hint and a generic body, counted under
// msite_admission_shed_total by reason.
func (p *Proxy) shedError(w http.ResponseWriter, r *http.Request, shed *admission.ShedError, err error) {
	p.obs.Counter("msite_admission_shed_total", "reason", shed.Reason).Inc()
	if shed.Reason == admission.ReasonSessionCap {
		// Limiter and rate-limiter sheds already emit from their own
		// SetObs hooks; the session cap is shed here in the proxy.
		p.obs.Emit(obs.EventShed, shed.Reason)
	}
	obs.TraceFrom(r.Context()).Annotate("shed", shed.Reason)
	w.Header().Set("Retry-After", strconv.Itoa(admission.RetryAfterSeconds(shed.RetryAfter)))
	status := http.StatusServiceUnavailable
	if shed.Reason == admission.ReasonRateLimit {
		status = http.StatusTooManyRequests
	}
	p.serverError(w, r, status, "server busy, retry later", err)
}

// logRequest emits the per-request structured log line.
func (p *Proxy) logRequest(r *http.Request, tr *obs.Trace, kind string, status int, d time.Duration) {
	if p.logger == nil {
		return
	}
	level := slog.LevelInfo
	if status >= 500 {
		level = slog.LevelError
	}
	attrs := []slog.Attr{
		slog.String("trace", tr.ID()),
		slog.String("site", p.cfg.Spec.Name),
		slog.String("handler", kind),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Duration("duration", d),
	}
	noted := tr.Attrs()
	keys := make([]string, 0, len(noted))
	for k := range noted {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		attrs = append(attrs, slog.String(k, noted[k]))
	}
	p.logger.LogAttrs(r.Context(), level, "request", attrs...)
}

// handleLogin marshals the origin's form login through the proxy: the
// mobile client submits the lightweight form, the proxy replays it
// against the origin with the session's cookie jar, and the jar picks up
// the origin's authentication cookies.
func (p *Proxy) handleLogin(w http.ResponseWriter, r *http.Request) {
	loginCfg := p.cfg.Spec.Login
	if loginCfg.URL == "" {
		http.NotFound(w, r)
		return
	}
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, `<!DOCTYPE html><html><head><title>Log in</title>
<meta name="viewport" content="width=device-width, initial-scale=1"></head>
<body><h3>Log in</h3>
<form method="post" action="%s/login">
<p><input type="text" name="username" placeholder="User"></p>
<p><input type="password" name="password" placeholder="Password"></p>
<p><input type="submit" value="Log in"></p>
</form></body></html>`, p.prefix)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, "bad form", http.StatusBadRequest)
		return
	}
	userField := loginCfg.UserField
	if userField == "" {
		userField = "username"
	}
	passField := loginCfg.PassField
	if passField == "" {
		passField = "password"
	}
	f := fetch.New(sess, p.cfg.FetchOptions...)
	_, err := f.PostFormContext(r.Context(), loginCfg.URL, url.Values{
		userField: {r.FormValue("username")},
		passField: {r.FormValue("password")},
	})
	if err != nil {
		obs.TraceFrom(r.Context()).Annotate("error", err.Error())
		http.Error(w, "login failed", http.StatusForbidden)
		return
	}
	// The session now carries a marshaled origin login: its adaptations
	// are user-specific and must never coalesce with other sessions'.
	sess.MarkPersonalized()
	// Re-adapt: the logged-in origin page may differ.
	p.mu.Lock()
	delete(p.adapted, sess.ID)
	p.mu.Unlock()
	http.Redirect(w, r, p.prefix+"/", http.StatusSeeOther)
}

// handleStats reports the proxy's work counters for operations and the
// scalability experiments, plus any adaptation notes (objects whose
// selectors matched nothing, failed relocations) the administrator
// should see. The counters come from the same atomics the obs registry
// reads; /metrics is the richer surface (histograms, per-handler
// series), this endpoint stays for backward compatibility.
func (p *Proxy) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats := p.Stats()
	p.mu.Lock()
	noteSet := make(map[string]bool)
	for _, b := range p.adapted {
		for _, note := range b.notes {
			noteSet[note] = true
		}
	}
	p.mu.Unlock()
	notes := make([]string, 0, len(noteSet))
	for note := range noteSet {
		notes = append(notes, note)
	}
	sort.Strings(notes)
	payload := map[string]any{
		"requests":         stats.Requests,
		"adaptations":      stats.Adaptations,
		"snapshot_renders": stats.SnapshotRenders,
		"snapshot_hits":    stats.SnapshotHits,
		"sessions":         p.cfg.Sessions.Len(),
		"notes":            notes,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(payload)
}

// ensureSession wraps session issuance with error reporting. The
// -max-sessions cap surfaces as a 503 shed with a Retry-After on the
// session-GC timescale; other failures are generic 500s.
func (p *Proxy) ensureSession(w http.ResponseWriter, r *http.Request) (*session.Session, bool) {
	sess, err := p.cfg.Sessions.Ensure(w, r)
	if err != nil {
		if errors.Is(err, session.ErrTooManySessions) {
			p.shedError(w, r, &admission.ShedError{
				Reason:     admission.ReasonSessionCap,
				RetryAfter: SessionCapRetryAfter,
			}, err)
			return nil, false
		}
		p.serverError(w, r, http.StatusInternalServerError, "session unavailable", err)
		return nil, false
	}
	obs.TraceFrom(r.Context()).Annotate("session", sess.ID)
	return sess, true
}

// ensureAdaptation returns the build a session serves from, running the
// full pipeline (fetch, filter phase, Tidy parse, attribute phase, file
// generation) or loading the shared build once per session, and again
// with ?refresh=1.
func (p *Proxy) ensureAdaptation(ctx context.Context, sess *session.Session, force bool) (*builtAdaptation, error) {
	// Single-flight per session: concurrent first requests (a mobile
	// browser fetching the entry page and a subpage in parallel) must
	// not run the fetch+adapt pipeline twice.
	for {
		p.mu.Lock()
		if ad, ok := p.adapted[sess.ID]; ok && !force {
			p.mu.Unlock()
			return ad, nil
		}
		if wait, busy := p.inflight[sess.ID]; busy {
			p.mu.Unlock()
			select {
			case <-wait:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			force = false // the racing adaptation satisfies a refresh too
			continue
		}
		done := make(chan struct{})
		p.inflight[sess.ID] = done
		p.mu.Unlock()

		ad, err := p.runAdaptation(ctx, sess, force)

		p.mu.Lock()
		delete(p.inflight, sess.ID)
		prev := p.adapted[sess.ID]
		if err == nil {
			p.adapted[sess.ID] = ad
		}
		p.mu.Unlock()
		close(done)
		if err != nil && p.cfg.ServeStale && prev != nil && !isAuthError(err) {
			// The origin is unreachable but this session was adapted
			// before: serve the previous adaptation rather than fail the
			// request (§3.2's "any error handling should the page be
			// unavailable", resolved in favor of availability).
			p.obs.Counter("msite_proxy_stale_served_total", "site", p.cfg.Spec.Name).Inc()
			obs.TraceFrom(ctx).Annotate("degraded", "stale_adaptation")
			return prev, nil
		}
		return ad, err
	}
}

// isAuthError reports whether err is an origin auth challenge, which
// must surface to the client (as a redirect to the auth page) rather
// than degrade to stale content.
func isAuthError(err error) bool {
	var authErr *fetch.AuthRequiredError
	return errors.As(err, &authErr)
}

// runAdaptation admits one pipeline run through the admission
// controller and executes it. Anonymous sessions coalesce: a flash
// crowd of N cold clients on the same page shares one build (one origin
// fetch, one filter+attr pass, one admission slot) and every one of
// them serves from that build in memory. Personalized sessions (stored
// HTTP auth, marshaled logins) never coalesce — their origin content
// may differ per user — and their build is also installed into the
// session's protected directory (§3.2).
func (p *Proxy) runAdaptation(ctx context.Context, sess *session.Session, force bool) (*builtAdaptation, error) {
	personal := sess.Personalized()
	// Non-personalized builds may come out of the durable bundle instead
	// of the pipeline: a restarted proxy warm-starts from its store. A
	// forced refresh (?refresh=1) bypasses and overwrites the bundle.
	usePersist := p.bundleKey != "" && !personal
	build := func(bctx context.Context) (*builtAdaptation, error) {
		if usePersist && !force {
			if b, ok := p.loadBundle(bctx); ok {
				return b, nil
			}
			// Cold here: in cluster mode the ring owner may already have
			// (or be building) this bundle — fetch it instead of running
			// the pipeline. The owner's admission controller holds the
			// build's one slot; this node spends none.
			if b, ok := p.fetchFromOwner(bctx); ok {
				return b, nil
			}
		}
		release, err := p.cfg.Admission.Acquire(bctx)
		if err != nil {
			return nil, err
		}
		defer release()
		b, err := p.buildAdaptation(bctx, fetch.New(sess, p.cfg.FetchOptions...))
		if err == nil && usePersist {
			p.saveBundle(b)
		}
		return b, err
	}
	var (
		b         *builtAdaptation
		coalesced bool
		err       error
	)
	if personal {
		// Sticky routing: a session-bearing build never leaves this node
		// (its origin content may be user-specific, and its session state
		// lives here).
		if p.cfg.Cluster != nil {
			obs.TraceFrom(ctx).Annotate("cluster", "sticky_local")
		}
		b, err = build(ctx)
	} else {
		b, coalesced, err = p.coalesce.Do(ctx, "adapt:"+p.cfg.Spec.Name, build)
	}
	if err != nil {
		return nil, err
	}
	if coalesced {
		p.obs.Counter("msite_admission_coalesced_total", "site", p.cfg.Spec.Name).Inc()
		obs.TraceFrom(ctx).Annotate("coalesced", "adaptation")
	}
	if personal {
		if err := installFiles(sess, b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// builtAdaptation is the session-independent product of one pipeline
// run: the subpage set, notes, decoded images, and the serialized
// files. It is immutable once sealed; every anonymous session serving
// the same build shares one value.
type builtAdaptation struct {
	subpages map[string]*attr.Subpage
	// ordered is subpages sorted by name: the overlay's area order.
	ordered []*attr.Subpage
	notes   []string
	images  map[string]image.Image
	files   []buildFile
	// validator is the origin's freshness evidence from this build's
	// entry fetch, persisted with the bundle (v2) so the prefetch
	// refresher can revalidate instead of re-downloading.
	validator BundleValidator
}

// buildFile is one generated file, named relative to a session
// directory ("pages" or "images"), with its response ETag.
type buildFile struct {
	dir  string
	name string
	data []byte
	kind string
	etag string
}

// seal readies a made or decoded build for serving: the overlay's area
// order and each file's ETag are computed here, once.
func (b *builtAdaptation) seal() *builtAdaptation {
	b.ordered = make([]*attr.Subpage, 0, len(b.subpages))
	for _, sub := range b.subpages {
		b.ordered = append(b.ordered, sub)
	}
	sort.Slice(b.ordered, func(i, j int) bool { return b.ordered[i].Name < b.ordered[j].Name })
	for i := range b.files {
		b.files[i].etag = etagOf(b.files[i].data)
	}
	return b
}

// file returns the generated file dir/name, or nil when the build has
// none.
func (b *builtAdaptation) file(dir, name string) *buildFile {
	for i := range b.files {
		if f := &b.files[i]; f.dir == dir && f.name == name {
			return f
		}
	}
	return nil
}

// etagOf is the strong content ETag of an immutable response body.
func etagOf(data []byte) string {
	return fmt.Sprintf(`"%08x-%d"`, crc32.ChecksumIEEE(data), len(data))
}

// buildAdaptation runs the fetch → filter → attribute → serialization
// pipeline, recording one span per stage (plus an adapt_total envelope)
// into the request trace and the per-stage latency histograms. The
// origin fetch and every subresource download abort when ctx ends, so a
// disconnected client stops costing the origin anything.
func (p *Proxy) buildAdaptation(ctx context.Context, f *fetch.Fetcher) (*builtAdaptation, error) {
	total := obs.StartSpan(ctx, "adapt_total")
	defer total.End()

	sp := obs.StartSpan(ctx, "fetch")
	page, err := f.GetContext(ctx, p.cfg.Spec.Origin)
	sp.End()
	if err != nil {
		return nil, err
	}

	// Every stage past the fetch degrades instead of failing: a broken
	// filter serves the unfiltered source, missing stylesheets render
	// unstyled, a failed attribute phase serves the tidied document
	// whole. The best page we can build beats a 502.
	var degraded []string

	// Filter phase: cheap source-level transforms first (§3.2).
	sp = obs.StartSpan(ctx, "filter")
	src, err := filter.Apply(string(page.Body), p.cfg.Spec.Filters)
	sp.End()
	if err != nil {
		src = string(page.Body)
		degraded = append(degraded, p.degrade(ctx, "filter", err))
	}

	// Inline the origin's linked stylesheets so the attribute phase and
	// every render below see the site's real styling, then download the
	// images a render would need (§3.2: the page fetch "includes
	// downloading any images to be rendered"), then run the attribute
	// phase over the tidied DOM.
	sp = obs.StartSpan(ctx, "subres")
	doc := tidyDoc(src)
	if _, err := f.InlineStylesheetsContext(ctx, doc, page.URL); err != nil {
		degraded = append(degraded, p.degrade(ctx, "stylesheets", err))
	}
	images := fetchImages(ctx, f, doc, page.URL)
	sp.End()
	// Cancellation is not a stage failure: subresources cut short because
	// every requester went away would make a degraded build that
	// PersistBundles then serves for its whole TTL.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	applier := *p.applier // copy: Images are per-fetch
	applier.Images = images
	sp = obs.StartSpan(ctx, "attr")
	result, err := applier.Apply(p.cfg.Spec, doc)
	if err != nil {
		degraded = append(degraded, p.degrade(ctx, "attributes", err))
		result = &attr.Result{Doc: doc}
	}
	sp.End()

	// Quality pass (post-attr hook): repair rules over the adapted
	// closure, then content parity against the raw origin — before URL
	// re-anchoring so origin and adapted hrefs still compare equal.
	if err := p.qualityPass(ctx, page, result); err != nil {
		return nil, err
	}

	// Re-anchor origin-relative URLs: adapted pages are served from the
	// proxy host, so links back into the origin must be absolute, while
	// proxy-internal references (subpages, assets, rewritten AJAX calls)
	// stay local.
	sp = obs.StartSpan(ctx, "absolutize")
	skip := []string{
		p.prefix + "/subpage/", p.prefix + "/asset/", p.prefix + "/ajax",
		p.prefix + "/login", p.prefix + "/logout", p.prefix + "/auth",
	}
	attr.AbsolutizeURLs(result.Doc, page.URL, skip...)
	for _, sub := range result.Subpages {
		attr.AbsolutizeURLs(sub.Doc, page.URL, skip...)
	}
	sp.End()

	// Serialize the generated files once per build. Sessions serve them
	// from memory; only personalized sessions also get them on disk
	// (installFiles).
	sp = obs.StartSpan(ctx, "subpage_split")
	defer sp.End()
	b := &builtAdaptation{
		subpages: make(map[string]*attr.Subpage),
		images:   images,
		validator: BundleValidator{
			ETag:         page.ETag,
			LastModified: page.LastModified,
			FetchedAt:    time.Now(),
		},
	}
	for _, sub := range result.Subpages {
		b.subpages[sub.Name] = sub
		b.files = append(b.files, buildFile{
			dir:  "pages",
			name: attr.SubpageFileName(sub.Name),
			data: attr.SerializeSubpage(sub),
			kind: "subpage",
		})
		if len(sub.ImageData) > 0 {
			b.files = append(b.files, buildFile{
				dir:  "images",
				name: attr.AssetFileName(sub),
				data: sub.ImageData,
				kind: "asset",
			})
		}
	}
	for _, asset := range result.Assets {
		b.files = append(b.files, buildFile{
			dir:  "images",
			name: asset.Name,
			data: asset.Data,
			kind: "thumbnail asset",
		})
	}
	// The adapted main document feeds the snapshot; serialize it for the
	// snapshot render (it excludes split-off objects, matching what the
	// overlay's regions index).
	b.files = append(b.files, buildFile{
		dir:  "pages",
		name: "main.html",
		data: pageHTML(result),
		kind: "main",
	})
	// The MAML-style minimal page is generated unconditionally: it is a
	// cheap DOM walk, and building it per-adaptation keeps the bundle
	// shape identical whether the serving mode is selected by the spec
	// attribute or the proxy flag.
	b.files = append(b.files, buildFile{
		dir:  "pages",
		name: "minimal.html",
		data: attr.MinimalMarkupHTML(p.cfg.Spec.Name, result.Doc),
		kind: "minimal",
	})
	b.notes = append(result.Notes, degraded...)

	p.nAdaptations.Add(1)
	p.obs.Counter("msite_proxy_adaptations_total", "site", p.cfg.Spec.Name).Inc()
	return b.seal(), nil
}

// installFiles writes a personalized session's build into its protected
// directory (§3.2: "All of the files generated during a user's session
// are stored in the file system under a (protected) subdirectory").
// Anonymous sessions serve identical content, so they share the build in
// memory and get no directory.
func installFiles(sess *session.Session, b *builtAdaptation) error {
	pagesDir, err := sess.SubpageDir()
	if err != nil {
		return err
	}
	imagesDir, err := sess.ImageDir()
	if err != nil {
		return err
	}
	for _, bf := range b.files {
		dir := pagesDir
		if bf.dir == "images" {
			dir = imagesDir
		}
		if err := os.WriteFile(filepath.Join(dir, bf.name), bf.data, 0o600); err != nil {
			return fmt.Errorf("proxy: writing %s: %w", bf.kind, err)
		}
	}
	return nil
}

// qualityPass is the post-attr quality hook: it runs the configured
// mobile-repair rules over the adapted entry document and every
// subpage, then (when ParityCheck is on) validates content parity of
// the raw origin against the adapted closure. A parity score below
// ParityMinScore fails the build — the one quality condition that is
// louder than degradation, because silently serving a page with
// missing content is exactly the failure mode this pass exists to
// catch.
func (p *Proxy) qualityPass(ctx context.Context, page *fetch.Page, result *attr.Result) error {
	if len(p.repairRules) == 0 && !p.cfg.ParityCheck {
		return nil
	}
	sp := obs.StartSpan(ctx, "quality")
	defer sp.End()
	site := p.cfg.Spec.Name

	roots := make([]*dom.Node, 0, 1+len(result.Subpages))
	roots = append(roots, result.Doc)
	for _, sub := range result.Subpages {
		roots = append(roots, sub.Doc)
	}

	for _, root := range roots {
		for rule, n := range quality.RepairAll(p.repairRules, root) {
			p.obs.Counter("msite_quality_repairs_total", "rule", rule, "site", site).Add(uint64(n))
			result.Notes = append(result.Notes,
				fmt.Sprintf("quality: repair rule %s made %d fixes", rule, n))
		}
	}

	if !p.cfg.ParityCheck {
		return nil
	}
	// The origin inventory comes from the *raw* body — before the filter
	// phase — so overzealous filters count as drops too. Subtracting the
	// sanctioned inventory exempts what the spec deliberately removes.
	originDoc := tidyDoc(string(page.Body))
	originInv := quality.InventoryOf(originDoc)
	originInv.Subtract(quality.SanctionedInventory(p.cfg.Spec, originDoc))
	par := quality.Compare(originInv, quality.InventoryOf(roots...))
	p.lastParity.Store(par)
	p.obs.Gauge("msite_quality_parity_score", "site", site).Set(par.Score)
	result.Notes = append(result.Notes, par.Notes()...)
	if min := p.cfg.ParityMinScore; min > 0 && !par.Ok(min) {
		p.obs.Counter("msite_quality_parity_failures_total", "site", site).Inc()
		obs.TraceFrom(ctx).Annotate("parity_failure",
			fmt.Sprintf("score %.4f < %.4f", par.Score, min))
		return fmt.Errorf(
			"proxy: content parity %.4f below minimum %.4f (%d of %d items missing: %d text, %d links, %d forms)",
			par.Score, min, par.MissingItems, par.TotalItems,
			par.TextMissing, par.LinksMissing, par.FormsMissing)
	}
	return nil
}

// ParityReport returns the most recent content-parity report, or nil
// when ParityCheck is off or no build has completed yet.
func (p *Proxy) ParityReport() *quality.Parity { return p.lastParity.Load() }

// degrade records one non-fatal pipeline-stage failure: the stage's
// output is dropped and adaptation continues with what it has. The
// failure lands on the request trace, in the degradation counter, and
// in the adaptation notes /stats reports.
func (p *Proxy) degrade(ctx context.Context, stage string, err error) string {
	p.obs.Counter("msite_proxy_degraded_total", "stage", stage, "site", p.cfg.Spec.Name).Inc()
	obs.TraceFrom(ctx).Annotate("degraded_"+stage, err.Error())
	return fmt.Sprintf("degraded %s: %v", stage, err)
}

func (p *Proxy) handleEntry(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	minimal := p.cfg.MinimalMarkup || p.cfg.Spec.MinimalMarkup
	if p.cfg.Stream && p.cfg.Spec.Snapshot.Enabled && !minimal {
		p.streamEntry(w, r, sess, start)
		return
	}
	b, err := p.ensureAdaptation(r.Context(), sess, r.URL.Query().Get("refresh") == "1")
	if err != nil {
		p.fetchError(w, r, err)
		return
	}

	if minimal {
		// MAML-style mode: the compact layout-only page, no snapshot
		// work at all. Older persisted bundles predate minimal.html;
		// degrade to the adapted main page if it is missing.
		page := b.file("pages", "minimal.html")
		if page == nil {
			page = b.file("pages", "main.html")
		}
		if page == nil {
			p.serverError(w, r, http.StatusInternalServerError, "adaptation missing", errNoMainPage)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(page.data)
		p.obs.Histogram("msite_proxy_atf_seconds", "site", p.cfg.Spec.Name, "mode", "minimal").
			ObserveDuration(time.Since(start))
		return
	}

	if p.cfg.Spec.Snapshot.Enabled {
		snap, width, height, err := p.snapshot(r.Context(), b)
		if err == nil {
			p.setSnapshot(sess.ID, snap)
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_, _ = w.Write(p.overlay(b, width, height))
			// Buffered serving completes everything at once: the whole
			// page is the above-the-fold content.
			p.obs.Histogram("msite_proxy_atf_seconds", "site", p.cfg.Spec.Name, "mode", "buffered").
				ObserveDuration(time.Since(start))
			return
		}
		// The graphical entry page is an enhancement over the adapted
		// document, not a prerequisite: if the render fails, degrade to
		// serving the adapted main page directly.
		_ = p.degrade(r.Context(), "snapshot", err)
	}
	// No snapshot (or a failed one): serve the adapted main page.
	page := b.file("pages", "main.html")
	if page == nil {
		p.serverError(w, r, http.StatusInternalServerError, "adaptation missing", errNoMainPage)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(page.data)
}

// overlayMemo is the buffered entry page of one build over one
// snapshot geometry.
type overlayMemo struct {
	build *builtAdaptation
	w, h  int
	page  []byte
}

// overlay returns the buffered entry page for build b over a w×h
// snapshot. Every anonymous session serves the same build and snapshot,
// so the page is rebuilt only when either changes.
func (p *Proxy) overlay(b *builtAdaptation, w, h int) []byte {
	if m := p.overlayMemo.Load(); m != nil && m.build == b && m.w == w && m.h == h {
		return m.page
	}
	page := p.applier.BuildOverlayHTML(attr.Overlay{
		SnapshotURL: p.prefix + "/asset/" + p.snapshotName(),
		Width:       w,
		Height:      h,
		Scale:       p.snapshotScale(),
		Title:       p.cfg.Spec.Name,
	}, b.ordered)
	p.overlayMemo.Store(&overlayMemo{build: b, w: w, h: h, page: page})
	return page
}

// errNoMainPage reports a build without the adapted main page.
var errNoMainPage = errors.New("proxy: build has no main page")

func snapshotFidelity(s *spec.Spec) imaging.Fidelity {
	switch s.Snapshot.Fidelity {
	case "high":
		return imaging.FidelityHigh
	case "medium":
		return imaging.FidelityMedium
	case "thumb":
		return imaging.FidelityThumb
	default:
		return imaging.FidelityLow
	}
}

// snapshotScale is the spec's snapshot scale factor (1 when unset).
func (p *Proxy) snapshotScale() float64 {
	if s := p.cfg.Spec.Snapshot.Scale; s > 0 {
		return s
	}
	return 1
}

// snapshotName is the asset name of the full-fidelity entry snapshot.
func (p *Proxy) snapshotName() string {
	return "snapshot" + snapshotFidelity(p.cfg.Spec).Ext()
}

// snapshot fetches from the shared cache (or renders) the scaled entry
// snapshot of build b, returning it with its geometry. The layout,
// raster, and encode stages of a cold render are recorded as spans;
// whether the snapshot came from the shared cache is annotated on the
// request trace.
func (p *Proxy) snapshot(ctx context.Context, b *builtAdaptation) (snap *buildFile, w, h int, err error) {
	ttl := time.Duration(p.cfg.Spec.Snapshot.CacheTTLSeconds) * time.Second

	// filled is atomic: with stale-while-revalidate the fill can run on a
	// background refresh goroutine while this request inspects it.
	var filled atomic.Bool
	fill := func() (cache.Entry, error) {
		filled.Store(true)
		return p.renderSnapshot(ctx, b)
	}

	var entry cache.Entry
	if p.cfg.Spec.Snapshot.Shared && ttl > 0 {
		key := "snapshot:" + p.cfg.Spec.Name
		var stale bool
		if p.cfg.ServeStale && p.staleFor > 0 {
			// Stale-while-revalidate: an expired shared snapshot is served
			// immediately while a background goroutine re-renders it.
			entry, stale, err = p.cfg.Cache.GetOrFillStale(key, ttl, p.staleFor, fill)
		} else {
			entry, err = p.cfg.Cache.GetOrFill(key, ttl, fill)
		}
		if stale {
			p.nSnapshotHits.Add(1)
			p.obs.Counter("msite_proxy_snapshot_hits_total", "site", p.cfg.Spec.Name).Inc()
			obs.TraceFrom(ctx).Annotate("cache", "stale")
		} else if err == nil && !filled.Load() {
			// Served from the shared cache (either directly or by another
			// goroutine's single-flight fill) — the amortization §3.3 is
			// about.
			p.nSnapshotHits.Add(1)
			p.obs.Counter("msite_proxy_snapshot_hits_total", "site", p.cfg.Spec.Name).Inc()
			obs.TraceFrom(ctx).Annotate("cache", "hit")
		} else {
			obs.TraceFrom(ctx).Annotate("cache", "miss")
		}
	} else {
		entry, err = fill()
		obs.TraceFrom(ctx).Annotate("cache", "bypass")
	}
	if err != nil {
		return nil, 0, 0, err
	}
	// Geometry rides in the MIME suffix; parse it back out.
	w, h = parseGeometry(entry.MIME)
	return p.snapshotFile(entry.Data), w, h, nil
}

// snapshotFile wraps snapshot bytes for serving. The shared cache hands
// back the same slice on every hit, so the ETag is computed once per
// cache entry.
func (p *Proxy) snapshotFile(data []byte) *buildFile {
	if f := p.snapMemo.Load(); f != nil && sameBytes(f.data, data) {
		return f
	}
	f := snapshotRung(p.snapshotName(), data)
	p.snapMemo.Store(f)
	return f
}

// snapshotRung wraps one encoded snapshot rung for the asset handler.
func snapshotRung(name string, data []byte) *buildFile {
	return &buildFile{dir: "images", name: name, data: data, kind: "snapshot", etag: etagOf(data)}
}

// sameBytes reports whether a and b are the same slice (not merely
// equal contents): the identity of a cache entry's data.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// renderSnapshot is one cold snapshot render of a build's main page:
// layout, raster, scale, and encode, each recorded as a span. The
// scaled geometry rides in the entry's MIME suffix (parseGeometry).
func (p *Proxy) renderSnapshot(ctx context.Context, b *builtAdaptation) (cache.Entry, error) {
	p.nSnapshotRenders.Add(1)
	p.obs.Counter("msite_proxy_snapshot_renders_total", "site", p.cfg.Spec.Name).Inc()
	page := b.file("pages", "main.html")
	if page == nil {
		return cache.Entry{}, errNoMainPage
	}
	fid := snapshotFidelity(p.cfg.Spec)
	sp := obs.StartSpan(ctx, "layout")
	res := layoutForDoc(tidyDoc(string(page.data)), p.width)
	sp.End()
	sp = obs.StartSpan(ctx, "raster")
	img := raster.Paint(res, raster.Options{Images: b.images, Workers: p.rasterWork})
	sp.End()
	sp = obs.StartSpan(ctx, "encode")
	scaled := imaging.ScaleFactor(img, p.snapshotScale())
	encoded, err := imaging.Encode(scaled, fid)
	sp.End()
	if err != nil {
		return cache.Entry{}, err
	}
	return snapshotEntry(encoded, fid, scaled.Bounds().Dx(), scaled.Bounds().Dy()), nil
}

// snapshotEntry is the shared-cache form of an encoded snapshot, its
// geometry in the MIME suffix.
func snapshotEntry(data []byte, fid imaging.Fidelity, w, h int) cache.Entry {
	return cache.Entry{Data: data, MIME: fmt.Sprintf("%s;%d,%d", fid.MIME(), w, h)}
}

func parseGeometry(mime string) (w, h int) {
	i := strings.LastIndexByte(mime, ';')
	if i < 0 {
		return 0, 0
	}
	parts := strings.SplitN(mime[i+1:], ",", 2)
	if len(parts) != 2 {
		return 0, 0
	}
	w, _ = strconv.Atoi(parts[0])
	h, _ = strconv.Atoi(parts[1])
	return w, h
}

func (p *Proxy) handleSubpage(w http.ResponseWriter, r *http.Request, rawName string) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	name, err := url.PathUnescape(rawName)
	if err != nil || name == "" {
		http.NotFound(w, r)
		return
	}
	b, err := p.ensureAdaptation(r.Context(), sess, false)
	if err != nil {
		p.fetchError(w, r, err)
		return
	}
	if _, ok := b.subpages[name]; !ok {
		http.NotFound(w, r)
		return
	}
	page := b.file("pages", attr.SubpageFileName(name))
	if page == nil {
		p.serverError(w, r, http.StatusInternalServerError, "subpage missing",
			fmt.Errorf("proxy: build has no file for subpage %q", name))
		return
	}
	// The pluggable engine hook (§1: "multiple rendering engines to
	// produce HTML, static images, PDF, plain text ... at any point in
	// the rendering process"): ?format selects an alternate engine.
	if format := r.URL.Query().Get("format"); format != "" && format != "html" {
		engine, err := p.engines.Get(format)
		if err != nil {
			http.Error(w, "unknown format: "+format, http.StatusBadRequest)
			return
		}
		out, err := engine.Render(tidyDoc(string(page.data)), layout.Viewport{Width: p.width})
		if err != nil {
			p.serverError(w, r, http.StatusInternalServerError, "render failed", err)
			return
		}
		w.Header().Set("Content-Type", engine.MIME())
		_, _ = w.Write(out)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(page.data)
}

func (p *Proxy) handleAsset(w http.ResponseWriter, r *http.Request, rawName string) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	name, err := url.PathUnescape(rawName)
	if err != nil || name == "" || strings.Contains(name, "/") || strings.Contains(name, "..") {
		http.NotFound(w, r)
		return
	}
	var asset *buildFile
	if name == p.snapshotName() || name == coarseSnapshotName {
		asset = p.awaitSnapshot(r, sess.ID, name)
	} else {
		p.mu.Lock()
		b := p.adapted[sess.ID]
		p.mu.Unlock()
		if b != nil {
			asset = b.file("images", name)
		}
	}
	if asset == nil {
		http.NotFound(w, r)
		return
	}
	switch {
	case strings.HasSuffix(name, ".png"):
		w.Header().Set("Content-Type", "image/png")
	case strings.HasSuffix(name, ".jpg"):
		w.Header().Set("Content-Type", "image/jpeg")
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	// Let the device cache images too: the shared snapshot for its
	// configured TTL, per-user renders briefly.
	if strings.HasPrefix(name, "snapshot") && p.cfg.Spec.Snapshot.CacheTTLSeconds > 0 {
		w.Header().Set("Cache-Control",
			"private, max-age="+strconv.Itoa(p.cfg.Spec.Snapshot.CacheTTLSeconds))
	} else {
		w.Header().Set("Cache-Control", "private, max-age=300")
	}
	// Conditional requests save the image bytes on revisits — the
	// dominant cost on 3G links.
	w.Header().Set("ETag", asset.etag)
	if r.Header.Get("If-None-Match") == asset.etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	_, _ = w.Write(asset.data)
}

func (p *Proxy) handleAJAX(w http.ResponseWriter, r *http.Request) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("action"))
	if err != nil {
		http.Error(w, "bad action", http.StatusBadRequest)
		return
	}
	f := fetch.New(sess, p.cfg.FetchOptions...)
	data, err := p.dispatcher.DispatchContext(r.Context(), f, id, r.URL.Query().Get("p"))
	if err != nil {
		p.serverError(w, r, http.StatusBadGateway, "action failed", err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(data)
}

// handleAuth is the lightweight HTTP authentication page (§3.3): a
// minimal form whose credentials the proxy stores and replays on the
// client's behalf.
func (p *Proxy) handleAuth(w http.ResponseWriter, r *http.Request) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	back := r.URL.Query().Get("back")
	if back == "" || !strings.HasPrefix(back, "/") {
		back = p.prefix + "/"
	}
	host := r.URL.Query().Get("host")
	if r.Method == http.MethodPost {
		if err := r.ParseForm(); err != nil {
			http.Error(w, "bad form", http.StatusBadRequest)
			return
		}
		if host == "" {
			host = originHost(p.cfg.Spec.Origin)
		}
		sess.SetAuth(host, session.Credentials{
			User: r.FormValue("username"),
			Pass: r.FormValue("password"),
		})
		// Stored HTTP credentials make this session's origin view
		// user-specific; exclude it from cross-session coalescing.
		sess.MarkPersonalized()
		http.Redirect(w, r, back, http.StatusSeeOther)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html><html><head><title>Authentication required</title>
<meta name="viewport" content="width=device-width, initial-scale=1"></head>
<body><h3>Authentication required</h3>
<form method="post" action="%s/auth?back=%s&host=%s">
<p><input type="text" name="username" placeholder="User"></p>
<p><input type="password" name="password" placeholder="Password"></p>
<p><input type="submit" value="Sign in"></p>
</form></body></html>`, p.prefix, url.QueryEscape(back), url.QueryEscape(host))
}

// handleLogout implements the replaced logout button: clear the proxy's
// cookie jar for this user.
func (p *Proxy) handleLogout(w http.ResponseWriter, r *http.Request) {
	sess, ok := p.ensureSession(w, r)
	if !ok {
		return
	}
	if err := sess.ClearCookies(); err != nil {
		p.serverError(w, r, http.StatusInternalServerError, "logout failed", err)
		return
	}
	p.mu.Lock()
	delete(p.adapted, sess.ID) // next visit re-fetches logged-out content
	p.mu.Unlock()
	http.Redirect(w, r, p.prefix+"/", http.StatusSeeOther)
}

// fetchError maps adaptation failures: auth challenges redirect to the
// lightweight auth page, admission sheds become 503 + Retry-After, and
// everything else is a gateway error (§3.2 "any error handling should
// the page be unavailable") with a generic body — the detail lands on
// the trace and in the error log, never in the response.
func (p *Proxy) fetchError(w http.ResponseWriter, r *http.Request, err error) {
	var authErr *fetch.AuthRequiredError
	if errors.As(err, &authErr) {
		u, _ := url.Parse(authErr.URL)
		host := ""
		if u != nil {
			host = u.Host
		}
		http.Redirect(w, r,
			p.prefix+"/auth?back="+url.QueryEscape(r.URL.RequestURI())+"&host="+url.QueryEscape(host),
			http.StatusSeeOther)
		return
	}
	if shed, ok := admission.IsShed(err); ok {
		p.shedError(w, r, shed, err)
		return
	}
	p.serverError(w, r, http.StatusBadGateway, "origin unavailable", err)
}

func originHost(origin string) string {
	u, err := url.Parse(origin)
	if err != nil {
		return ""
	}
	return u.Host
}
