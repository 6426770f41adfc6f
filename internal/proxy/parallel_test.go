package proxy

import (
	"fmt"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"msite/internal/cache"
	"msite/internal/origin"
	"msite/internal/session"
)

// adaptedLen reports how many sessions hold adaptation state.
func (p *Proxy) adaptedLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.adapted)
}

// TestAdaptedEvictedOnSessionExpiry is the regression test for the
// unbounded Proxy.adapted map: when the session manager expires (or
// GCs, or deletes) a session, the proxy must release that session's
// adaptation state.
func TestAdaptedEvictedOnSessionExpiry(t *testing.T) {
	forum := origin.NewForum(origin.DefaultForumConfig())
	originSrv := httptest.NewServer(forum.Handler())
	t.Cleanup(originSrv.Close)

	clk := struct {
		mu  sync.Mutex
		now time.Time
	}{now: time.Unix(1_000_000, 0)}
	now := func() time.Time {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return clk.now
	}
	advance := func(d time.Duration) {
		clk.mu.Lock()
		clk.now = clk.now.Add(d)
		clk.mu.Unlock()
	}

	sessions, err := session.NewManagerWithClock(t.TempDir(), time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Spec: forumSpec(originSrv.URL), Sessions: sessions, Cache: cache.New()})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(p)
	t.Cleanup(proxySrv.Close)

	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	resp, err := client.Get(proxySrv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := p.adaptedLen(); got != 1 {
		t.Fatalf("adapted sessions = %d after entry, want 1", got)
	}

	// Idle past the TTL; GC must cascade into the proxy's state.
	advance(2 * time.Hour)
	if n := sessions.GC(); n != 1 {
		t.Fatalf("GC collected %d sessions, want 1", n)
	}
	if got := p.adaptedLen(); got != 0 {
		t.Fatalf("adapted sessions = %d after GC, want 0 (session state leaked)", got)
	}
}

// TestAdaptedEvictedOnDelete covers the explicit-delete path.
func TestAdaptedEvictedOnDelete(t *testing.T) {
	rig := newRig(t, nil)
	if _, resp := rig.get(t, "/"); resp.StatusCode != http.StatusOK {
		t.Fatalf("entry status = %d", resp.StatusCode)
	}
	if got := rig.p.adaptedLen(); got != 1 {
		t.Fatalf("adapted sessions = %d, want 1", got)
	}
	var id string
	rig.p.mu.Lock()
	for sid := range rig.p.adapted {
		id = sid
	}
	rig.p.mu.Unlock()
	if err := rig.p.cfg.Sessions.Delete(id); err != nil {
		t.Fatal(err)
	}
	if got := rig.p.adaptedLen(); got != 0 {
		t.Fatalf("adapted sessions = %d after Delete, want 0", got)
	}
}

// TestConcurrentFirstRequests drives many cold sessions in parallel
// through the full (now concurrent) adaptation pipeline — the -race
// guard for FetchAll and the band-parallel rasterizer behind one proxy.
func TestConcurrentFirstRequests(t *testing.T) {
	rig := newRig(t, nil)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jar, _ := cookiejar.New(nil)
			client := &http.Client{Jar: jar, Timeout: 30 * time.Second}
			resp, err := client.Get(rig.proxy.URL + "/")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("entry status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInstallFilesErrorPropagates checks a personalized install
// surfaces a failed write and, when the directory is writable, lands
// every file of the build.
func TestInstallFilesErrorPropagates(t *testing.T) {
	sessions, err := session.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sessions.Create()
	if err != nil {
		t.Fatal(err)
	}
	b := (&builtAdaptation{files: []buildFile{
		{dir: "pages", name: "ok.html", data: []byte("x"), kind: "subpage"},
		{dir: "pages", name: filepath.Join("missing-dir", "bad.html"), data: []byte("x"), kind: "subpage"},
	}}).seal()
	if err := installFiles(sess, b); err == nil {
		t.Fatal("expected write error")
	}
	b.files = b.files[:1]
	if err := installFiles(sess, b); err != nil {
		t.Fatalf("single good file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(sess.Dir, "pages", "ok.html")); err != nil {
		t.Fatalf("good file missing: %v", err)
	}
}
