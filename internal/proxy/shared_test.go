package proxy

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"msite/internal/cache"
	"msite/internal/origin"
	"msite/internal/session"
	"msite/internal/spec"
)

// sharedRig is a proxy over the forum origin whose session root the
// test can inspect, with PersistBundles on so anonymous sessions share
// one build.
type sharedRig struct {
	proxy *httptest.Server
	p     *Proxy
	root  string
}

func newSharedRig(t *testing.T, mutateSpec func(*spec.Spec), mutateCfg func(*Config)) *sharedRig {
	t.Helper()
	originSrv := httptest.NewServer(origin.NewForum(origin.DefaultForumConfig()).Handler())
	t.Cleanup(originSrv.Close)
	sp := forumSpec(originSrv.URL)
	if mutateSpec != nil {
		mutateSpec(sp)
	}
	root := t.TempDir()
	sessions, err := session.NewManager(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: sp, Sessions: sessions, Cache: cache.New(), PersistBundles: true}
	if mutateCfg != nil {
		mutateCfg(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	t.Cleanup(proxySrv.Close)
	return &sharedRig{proxy: proxySrv, p: p, root: root}
}

// client returns a browser-like client with its own cookie jar: a new
// user.
func (rig *sharedRig) client() *http.Client {
	jar, _ := cookiejar.New(nil)
	return &http.Client{Jar: jar, Timeout: 30 * time.Second}
}

// fetch GETs path with c, sending If-None-Match when etag is set, and
// returns the status, body, and ETag.
func (rig *sharedRig) fetch(t *testing.T, c *http.Client, path, etag string) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rig.proxy.URL+path, nil)
	if err != nil {
		t.Error(err)
		return 0, nil, ""
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Error(err)
		return 0, nil, ""
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, body, resp.Header.Get("ETag")
}

// build returns the build client c's session serves from.
func (rig *sharedRig) build(t *testing.T, c *http.Client) *builtAdaptation {
	t.Helper()
	u, _ := url.Parse(rig.proxy.URL)
	for _, ck := range c.Jar.Cookies(u) {
		if ck.Name == session.CookieName {
			rig.p.mu.Lock()
			defer rig.p.mu.Unlock()
			return rig.p.adapted[ck.Value]
		}
	}
	t.Fatal("client has no session cookie")
	return nil
}

// assetNames lists every asset file of build b, sorted.
func assetNames(b *builtAdaptation) []string {
	var names []string
	for _, f := range b.files {
		if f.dir == "images" {
			names = append(names, f.name)
		}
	}
	sort.Strings(names)
	return names
}

// TestAnonymousTrafficLeavesNoSessionFiles: in every entry mode, a full
// anonymous visit — entry, snapshot rungs, every subpage, every asset,
// and conditional revisits — serves from the shared in-memory build and
// leaves nothing under the session root. A logged-in (personalized)
// session still gets its protected directory.
func TestAnonymousTrafficLeavesNoSessionFiles(t *testing.T) {
	withThumbnail := func(sp *spec.Spec) {
		sp.Objects = append(sp.Objects, spec.Object{
			Name: "shoptour", Selector: "#shoptour object",
			Attributes: []spec.Attribute{{Type: spec.AttrThumbnail, Params: map[string]string{"scale": "0.4"}}},
		})
	}
	modes := []struct {
		name      string
		spec      func(*spec.Spec)
		cfg       func(*Config)
		snapshots []string
	}{
		{name: "buffered", snapshots: []string{"snapshot.jpg"}},
		{name: "streaming", cfg: func(c *Config) { c.Stream = true }, snapshots: []string{"snapshot.jpg"}},
		{name: "progressive", cfg: func(c *Config) { c.Stream, c.SnapshotProgressive = true, true },
			snapshots: []string{"snapshot.jpg", coarseSnapshotName}},
		{name: "minimal", cfg: func(c *Config) { c.MinimalMarkup = true }},
		{name: "no-snapshot", spec: func(sp *spec.Spec) { sp.Snapshot.Enabled = false }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			rig := newSharedRig(t, func(sp *spec.Spec) {
				withThumbnail(sp)
				if mode.spec != nil {
					mode.spec(sp)
				}
			}, mode.cfg)
			for user := 0; user < 2; user++ {
				c := rig.client()
				if status, body, _ := rig.fetch(t, c, "/", ""); status != http.StatusOK || len(body) == 0 {
					t.Fatalf("entry = %d (%d bytes)", status, len(body))
				}
				b := rig.build(t, c)
				paths := []string{"/"}
				for _, sub := range b.ordered {
					paths = append(paths, "/subpage/"+url.PathEscape(sub.Name))
				}
				assets := assetNames(b)
				if len(assets) < 2 {
					t.Fatalf("build assets = %v, want the forums prerender and a thumbnail", assets)
				}
				for _, name := range append(assets, mode.snapshots...) {
					paths = append(paths, "/asset/"+name)
				}
				for _, path := range paths {
					status, body, etag := rig.fetch(t, c, path, "")
					if status != http.StatusOK || len(body) == 0 {
						t.Fatalf("%s = %d (%d bytes)", path, status, len(body))
					}
					if etag == "" {
						continue
					}
					if status, body, _ := rig.fetch(t, c, path, etag); status != http.StatusNotModified || len(body) != 0 {
						t.Fatalf("%s revisit = %d (%d bytes), want an empty 304", path, status, len(body))
					}
				}
			}
			if entries := sessionRootEntries(t, rig.root); len(entries) != 0 {
				t.Fatalf("anonymous traffic left %d entries under the session root (first %q)", len(entries), entries[0])
			}
		})
	}

	// A logged-in session is personalized: its build is installed into
	// its own protected directory.
	rig := newSharedRig(t, func(sp *spec.Spec) {
		sp.Login = spec.LoginSpec{URL: sp.Origin + "login.php"}
	}, nil)
	c := rig.client()
	resp, err := c.PostForm(rig.proxy.URL+"/login", url.Values{"username": {"oakhand"}, "password": {"sawdust"}})
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if status, _, _ := rig.fetch(t, c, "/", ""); status != http.StatusOK {
		t.Fatalf("logged-in entry = %d", status)
	}
	entries := sessionRootEntries(t, rig.root)
	if len(entries) != 1 {
		t.Fatalf("session root holds %v after a login, want the personalized session's dir", entries)
	}
	for _, f := range rig.build(t, c).files {
		if _, err := os.Stat(filepath.Join(rig.root, entries[0], f.dir, f.name)); err != nil {
			t.Errorf("personalized install missing %s/%s: %v", f.dir, f.name, err)
		}
	}
}

// sessionRootEntries lists the names under a session root.
func sessionRootEntries(t *testing.T, root string) []string {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestConcurrentAnonymousSessionsShareBuild: eight new anonymous users
// arriving at once all serve from one build and get byte-identical
// entry, snapshot, and subpage responses (the -race guard for the
// shared build, the snapshot memo, and the per-session snapshot state).
func TestConcurrentAnonymousSessionsShareBuild(t *testing.T) {
	rig := newSharedRig(t, nil, nil)
	warm := rig.client()
	if status, _, _ := rig.fetch(t, warm, "/", ""); status != http.StatusOK {
		t.Fatalf("warm-up entry = %d", status)
	}
	want := rig.build(t, warm)
	paths := []string{"/", "/asset/snapshot.jpg"}
	for _, sub := range want.ordered {
		paths = append(paths, "/subpage/"+url.PathEscape(sub.Name))
	}

	const users = 8
	bodies := make([][][]byte, users)
	clients := make([]*http.Client, users)
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		clients[u] = rig.client()
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for _, path := range paths {
				status, body, _ := rig.fetch(t, clients[u], path, "")
				if status != http.StatusOK {
					t.Errorf("user %d %s = %d", u, path, status)
				}
				bodies[u] = append(bodies[u], body)
			}
		}(u)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for u := 0; u < users; u++ {
		if got := rig.build(t, clients[u]); got != want {
			t.Errorf("user %d serves from build %p, want the shared %p", u, got, want)
		}
		for i, path := range paths {
			if !bytes.Equal(bodies[u][i], bodies[0][i]) {
				t.Errorf("user %d %s differs from user 0's", u, path)
			}
		}
	}
	if got := rig.p.Stats().Adaptations; got != 1 {
		t.Errorf("adaptations = %d, want 1", got)
	}
}

// TestRefreshAndForcedPrefetchSwapSharedBuild: ?refresh=1 and
// PrefetchBuild(force=true) each produce a new build that later
// anonymous users serve from, exactly as the bundle cache entry they
// replace.
func TestRefreshAndForcedPrefetchSwapSharedBuild(t *testing.T) {
	rig := newSharedRig(t, nil, nil)
	first := rig.client()
	rig.fetch(t, first, "/", "")
	b1 := rig.build(t, first)

	second := rig.client()
	rig.fetch(t, second, "/", "")
	if got := rig.build(t, second); got != b1 {
		t.Fatal("a new anonymous user did not share the first build")
	}

	rig.fetch(t, first, "/?refresh=1", "")
	b2 := rig.build(t, first)
	if b2 == b1 {
		t.Fatal("?refresh=1 kept the old build")
	}
	third := rig.client()
	rig.fetch(t, third, "/", "")
	if got := rig.build(t, third); got != b2 {
		t.Fatal("a user after ?refresh=1 does not serve the refreshed build")
	}

	ran, err := rig.p.PrefetchBuild(context.Background(), true)
	if err != nil || !ran {
		t.Fatalf("PrefetchBuild(force) = %v, %v", ran, err)
	}
	fourth := rig.client()
	rig.fetch(t, fourth, "/", "")
	if got := rig.build(t, fourth); got == b2 || got == b1 {
		t.Fatal("a user after a forced prefetch does not serve the new build")
	}
	if got := rig.p.Stats().Adaptations; got != 3 {
		t.Fatalf("adaptations = %d, want 3 (first visit, refresh, forced prefetch)", got)
	}
}

// TestNewUsersDecodeStoredBundleOnce: after a restart, N new anonymous
// users warm-start from the durable bundle with one decode between
// them — every session serves the same decoded build.
func TestNewUsersDecodeStoredBundleOnce(t *testing.T) {
	rig := newPersistRig(t)
	if _, resp := rig.get("/"); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold entry = %d", resp.StatusCode)
	}
	rig.restart()

	const users = 5
	for i := 0; i < users; i++ {
		for _, path := range []string{"/", "/subpage/login"} {
			if _, resp := rig.get(path); resp.StatusCode != http.StatusOK {
				t.Fatalf("user %d %s = %d", i, path, resp.StatusCode)
			}
		}
	}
	if got := rig.p.Stats().Adaptations; got != 0 {
		t.Fatalf("adaptations = %d after restart, want 0", got)
	}
	rig.p.mu.Lock()
	defer rig.p.mu.Unlock()
	decoded := make(map[*builtAdaptation]bool)
	for _, b := range rig.p.adapted {
		decoded[b] = true
	}
	if len(rig.p.adapted) != 2*users || len(decoded) != 1 {
		t.Fatalf("%d sessions serve %d distinct builds, want %d sessions on 1", len(rig.p.adapted), len(decoded), 2*users)
	}
}
