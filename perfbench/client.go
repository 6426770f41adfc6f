package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"image/jpeg"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/session"
)

// user is one simulated mobile browser: its proxy session cookie and
// what it remembers of the snapshot for conditional revisits.
type user struct {
	cookie   string // "msite_session=<id>", empty before the first response
	etag     string // snapshot validator from the first view
	snapW    int    // geometry of that snapshot as decoded
	snapH    int
	personal bool
}

// call is one timed HTTP request of a page view.
type call struct {
	kind   string // entry, asset or subpage
	start  time.Time
	ttfb   time.Duration
	dur    time.Duration
	status int
}

// viewResult is the outcome of one page view.
type viewResult struct {
	start    time.Time // due time (open loop) or send time (closed loop)
	end      time.Time
	calls    []call
	personal bool
	revisit  bool // the snapshot GET was conditional
	got304   bool
	err      error
}

func (v viewResult) latency() time.Duration { return v.end.Sub(v.start) }

// client drives the proxy over loopback HTTP with at most nproc
// connections. It follows no redirects and keeps no cookie jar: each
// user carries its own session cookie.
type client struct {
	http *http.Client
	base string

	mu       sync.Mutex
	verified map[string][2]int // crc/len of a decoded snapshot -> its geometry

	tracer atomic.Pointer[tracer] // set during a traced window
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     30 * time.Second,
	}
	return &client{
		base: base,
		http: &http.Client{
			Transport:     tr,
			Timeout:       30 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		},
		verified: make(map[string][2]int),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole body.
func (c *client) do(ctx context.Context, req *http.Request, u *user, kind string) (call, []byte, http.Header, error) {
	cl := call{kind: kind, start: time.Now()}
	if u.cookie != "" {
		req.Header.Set("Cookie", u.cookie)
	}
	resp, err := c.http.Do(req.WithContext(ctx))
	if err != nil {
		cl.dur = time.Since(cl.start)
		return cl, nil, nil, fmt.Errorf("%s: %w", kind, err)
	}
	cl.ttfb = time.Since(cl.start)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cl.dur = time.Since(cl.start)
	cl.status = resp.StatusCode
	if err != nil {
		return cl, nil, nil, fmt.Errorf("%s body: %w", kind, err)
	}
	if u.cookie == "" {
		for _, ck := range resp.Cookies() {
			if ck.Name == session.CookieName {
				u.cookie = ck.Name + "=" + ck.Value
			}
		}
	}
	return cl, body, resp.Header, nil
}

func (c *client) get(ctx context.Context, path string, u *user, kind, ifNoneMatch string) (call, []byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return call{kind: kind}, nil, nil, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	return c.do(ctx, req, u, kind)
}

// login marshals a form login through the proxy; afterwards the session
// is personalized.
func (c *client) login(ctx context.Context, s *site, u *user, name string) error {
	form := url.Values{"username": {name}, "password": {"sawdust"}}
	req, err := http.NewRequest(http.MethodPost, c.base+s.prefix+"/login", strings.NewReader(form.Encode()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	cl, _, _, err := c.do(ctx, req, u, "login")
	if err != nil {
		return err
	}
	if cl.status != http.StatusSeeOther || u.cookie == "" {
		return fmt.Errorf("login: status %d, cookie %q", cl.status, u.cookie)
	}
	u.personal = true
	return nil
}

// overlay is what the checks read out of an entry page.
type overlay struct {
	title  string
	src    string
	width  int
	height int
	areas  []string // href of every map area, sorted
}

var (
	titleRE = regexp.MustCompile(`<title>([^<]*)</title>`)
	imgRE   = regexp.MustCompile(`<img\b[^>]*>`)
	areaRE  = regexp.MustCompile(`<area\b[^>]*>`)
	attrRE  = regexp.MustCompile(`([a-z-]+)="([^"]*)"`)
)

func tagAttrs(tag string) map[string]string {
	attrs := make(map[string]string)
	for _, m := range attrRE.FindAllStringSubmatch(tag, -1) {
		attrs[m[1]] = m[2]
	}
	return attrs
}

func parseOverlay(body []byte) (overlay, error) {
	var ov overlay
	s := string(body)
	if m := titleRE.FindStringSubmatch(s); m != nil {
		ov.title = m[1]
	}
	img := imgRE.FindString(s)
	if img == "" {
		return ov, errors.New("entry: no snapshot <img>")
	}
	attrs := tagAttrs(img)
	ov.src = attrs["src"]
	ov.width, _ = strconv.Atoi(attrs["width"])
	ov.height, _ = strconv.Atoi(attrs["height"])
	for _, a := range areaRE.FindAllString(s, -1) {
		ov.areas = append(ov.areas, tagAttrs(a)["href"])
	}
	sort.Strings(ov.areas)
	return ov, nil
}

// checkOverlay: the overlay references the snapshot URL, is titled after
// its own site, and maps each declared subpage exactly once.
func checkOverlay(s *site, ov overlay) error {
	if want := s.prefix + "/asset/snapshot.jpg"; ov.src != want {
		return fmt.Errorf("entry: snapshot src %q, want %q", ov.src, want)
	}
	if ov.title != s.name {
		return fmt.Errorf("entry: title %q, want site %q", ov.title, s.name)
	}
	if ov.width <= 0 || ov.height <= 0 {
		return fmt.Errorf("entry: snapshot geometry %dx%d", ov.width, ov.height)
	}
	if len(ov.areas) != len(s.subpages) {
		return fmt.Errorf("entry: %d map areas, want one per subpage (%d)", len(ov.areas), len(s.subpages))
	}
	for i, name := range s.subpages {
		if want := s.prefix + "/subpage/" + name; ov.areas[i] != want {
			return fmt.Errorf("entry: area %q, want %q", ov.areas[i], want)
		}
	}
	return nil
}

// snapshotGeometry decodes a snapshot once per distinct body and returns
// its size.
func (c *client) snapshotGeometry(data []byte) (int, int, error) {
	key := fmt.Sprintf("%08x-%d", crc32.ChecksumIEEE(data), len(data))
	c.mu.Lock()
	g, ok := c.verified[key]
	c.mu.Unlock()
	if ok {
		return g[0], g[1], nil
	}
	img, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		return 0, 0, fmt.Errorf("asset: snapshot is not a JPEG: %w", err)
	}
	g = [2]int{img.Bounds().Dx(), img.Bounds().Dy()}
	c.mu.Lock()
	c.verified[key] = g
	c.mu.Unlock()
	return g[0], g[1], nil
}

// pageView runs one page view: the entry page, the snapshot it
// references (conditional once the user holds a validator), then the
// subpage picked by pick. Every response is checked; the first failed
// check fails the view.
func (c *client) pageView(ctx context.Context, s *site, u *user, pick uint64, start time.Time) (v viewResult) {
	v.start = start
	v.personal = u.personal
	defer func() {
		v.end = time.Now()
		if t := c.tracer.Load(); t != nil {
			t.recordView(v)
		}
	}()

	cl, body, _, err := c.get(ctx, s.prefix+"/", u, "entry", "")
	v.calls = append(v.calls, cl)
	if err == nil && cl.status != http.StatusOK {
		err = fmt.Errorf("entry: status %d", cl.status)
	}
	if err != nil {
		v.err = err
		return v
	}
	ov, err := parseOverlay(body)
	if err == nil {
		err = checkOverlay(s, ov)
	}
	if err != nil {
		v.err = err
		return v
	}

	v.revisit = u.etag != ""
	cl, body, hdr, err := c.get(ctx, ov.src, u, "asset", u.etag)
	v.calls = append(v.calls, cl)
	switch {
	case err != nil:
	case v.revisit:
		v.got304 = cl.status == http.StatusNotModified
		if !v.got304 || len(body) != 0 {
			err = fmt.Errorf("asset: conditional revisit got status %d with %d body bytes, want 304 and none", cl.status, len(body))
		} else if u.snapW != ov.width || u.snapH != ov.height {
			err = fmt.Errorf("asset: cached snapshot is %dx%d, overlay says %dx%d", u.snapW, u.snapH, ov.width, ov.height)
		}
	case cl.status != http.StatusOK:
		err = fmt.Errorf("asset: status %d", cl.status)
	default:
		var w, h int
		if w, h, err = c.snapshotGeometry(body); err == nil && (w != ov.width || h != ov.height) {
			err = fmt.Errorf("asset: snapshot is %dx%d, overlay says %dx%d", w, h, ov.width, ov.height)
		}
		if err == nil {
			if u.etag = hdr.Get("ETag"); u.etag == "" {
				err = errors.New("asset: snapshot has no ETag")
			}
			u.snapW, u.snapH = w, h
		}
	}
	if err != nil {
		v.err = err
		return v
	}

	cl, body, _, err = c.get(ctx, ov.areas[pick%uint64(len(ov.areas))], u, "subpage", "")
	v.calls = append(v.calls, cl)
	if err == nil && (cl.status != http.StatusOK || len(body) == 0) {
		err = fmt.Errorf("subpage: status %d with %d body bytes", cl.status, len(body))
	}
	v.err = err
	return v
}
