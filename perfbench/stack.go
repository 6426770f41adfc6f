package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"msite/internal/core"
	"msite/internal/experiments"
	"msite/internal/obs"
	"msite/internal/origin"
	"msite/internal/spec"
)

// site is one adapted page the load generator visits.
type site struct {
	name     string   // spec name; the entry overlay carries it as its title
	prefix   string   // proxy path prefix: "" for one site, "/p/<name>" in a fleet
	origin   string   // origin base URL, no trailing slash
	subpages []string // top-level subpage names the spec declares, sorted
	spec     *spec.Spec
}

// siteSpec is the forum evaluation spec (§4.3) with the origin's form
// login wired in, so sessions can become personalized.
func siteSpec(name, originURL string) *spec.Spec {
	sp := experiments.SpecForForum(originURL)
	sp.Name = name
	sp.Login = spec.LoginSpec{URL: originURL + "/login.php"}
	return sp
}

// declaredSubpages lists the subpages a spec asks for, independent of
// anything the proxy serves: the entry overlay must map each one.
func declaredSubpages(sp *spec.Spec) []string {
	var names []string
	for _, obj := range sp.Objects {
		for _, at := range obj.Attributes {
			if at.Type == spec.AttrSubpage {
				names = append(names, obj.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// countingListener counts the bytes every accepted connection writes:
// what the server put on the wire, headers included.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// originFleet serves a set of synthetic forums, each on its own
// loopback port (forum pages use root-relative links, so sites cannot
// share a port). One http.Server serves every listener and dispatches
// on the local port. Every request is metered: count, handler time
// (including the injected delay) and bytes written.
type originFleet struct {
	srv    *http.Server
	lns    []net.Listener
	byPort map[int]http.Handler
	urls   []string
	delay  time.Duration

	requests atomic.Int64
	busyNS   atomic.Int64
	bytes    atomic.Int64
	tracer   atomic.Pointer[tracer]
	wg       sync.WaitGroup
}

// startOrigins starts one forum per seed.
func startOrigins(seeds []int64, delay time.Duration) (*originFleet, error) {
	f := &originFleet{byPort: make(map[int]http.Handler, len(seeds)), delay: delay}
	for _, seed := range seeds {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("origin listen: %w", err)
		}
		cfg := origin.DefaultForumConfig()
		cfg.Seed = seed
		cfg.Name = fmt.Sprintf("Forum %08x", uint32(seed))
		port := ln.Addr().(*net.TCPAddr).Port
		f.byPort[port] = origin.NewForum(cfg).Handler()
		f.lns = append(f.lns, ln)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	f.srv = &http.Server{Handler: http.HandlerFunc(f.serve), ReadHeaderTimeout: 10 * time.Second}
	for _, ln := range f.lns {
		f.wg.Add(1)
		go func(ln net.Listener) {
			defer f.wg.Done()
			_ = f.srv.Serve(countingListener{Listener: ln, n: &f.bytes})
		}(ln)
	}
	return f, nil
}

func (f *originFleet) serve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	addr, _ := r.Context().Value(http.LocalAddrContextKey).(net.Addr)
	tcp, _ := addr.(*net.TCPAddr)
	var h http.Handler
	if tcp != nil {
		h = f.byPort[tcp.Port]
	}
	if h == nil {
		http.NotFound(w, r)
		return
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	h.ServeHTTP(w, r)
	end := time.Now()
	f.requests.Add(1)
	f.busyNS.Add(int64(end.Sub(start)))
	if t := f.tracer.Load(); t != nil {
		t.record(0, "origin "+r.URL.Path, start, end)
	}
}

func (f *originFleet) close() {
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = f.srv.Shutdown(ctx)
	} else {
		for _, ln := range f.lns {
			_ = ln.Close()
		}
	}
	f.wg.Wait()
}

// stack is the system under test: origins plus the proxy, wired through
// internal/core with msite-proxy's default settings and a store dir,
// served over loopback HTTP.
type stack struct {
	dir      string // fresh temp dir holding sessions/ and store/
	sessDir  string
	storeDir string
	reg      *obs.Registry
	origins  *originFleet
	single   *core.Framework      // one-site stacks
	multi    *core.MultiFramework // fleet stacks
	srv      *http.Server
	base     string // proxy base URL
	sent     atomic.Int64
	sites    []*site
	wg       sync.WaitGroup
}

// proxyConfig mirrors msite-proxy's flag defaults. Request logs go
// through the default info-level text logger, into io.Discard.
func proxyConfig(sessDir, storeDir string, reg *obs.Registry) core.Config {
	return core.Config{
		SessionRoot:        sessDir,
		Logger:             slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		CacheSweepInterval: time.Minute,
		FetchTimeout:       30 * time.Second,
		FetchRetries:       2,
		ServeStale:         true,
		StoreDir:           storeDir,
		Obs:                reg,
	}
}

// startStack brings up origins for the given forum seeds and one proxy
// in front of them: a core.Framework for a single site, a
// core.MultiFramework (sites under /p/<name>/) for a fleet.
func startStack(parent string, seeds []int64, delay time.Duration) (s *stack, err error) {
	dir, err := os.MkdirTemp(parent, "stack-*")
	if err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	s = &stack{dir: dir, sessDir: filepath.Join(dir, "sessions"), storeDir: filepath.Join(dir, "store"), reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	if s.origins, err = startOrigins(seeds, delay); err != nil {
		return s, err
	}
	cfg := proxyConfig(s.sessDir, s.storeDir, s.reg)
	var h http.Handler
	if len(seeds) == 1 {
		sp := siteSpec("forum", s.origins.urls[0])
		s.sites = []*site{{name: sp.Name, origin: s.origins.urls[0], subpages: declaredSubpages(sp), spec: sp}}
		if s.single, err = core.New(sp, cfg); err != nil {
			return s, fmt.Errorf("proxy: %w", err)
		}
		h = s.single.HandlerWithMetrics()
	} else {
		specs := make([]*spec.Spec, len(seeds))
		for i, seed := range seeds {
			sp := siteSpec(fmt.Sprintf("f%04d-%08x", i, uint32(seed)), s.origins.urls[i])
			specs[i] = sp
			s.sites = append(s.sites, &site{name: sp.Name, prefix: "/p/" + sp.Name, origin: s.origins.urls[i], subpages: declaredSubpages(sp), spec: sp})
		}
		if s.multi, err = core.NewMulti(specs, cfg); err != nil {
			return s, fmt.Errorf("proxy: %w", err)
		}
		h = s.multi.HandlerWithMetrics()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, fmt.Errorf("proxy listen: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.srv.Serve(countingListener{Listener: ln, n: &s.sent}); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: proxy server:", err)
		}
	}()
	return s, nil
}

// close stops the proxy and origins, waits for their goroutines, and
// removes the stack's session and store dirs.
func (s *stack) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.srv.Shutdown(ctx)
		cancel()
		s.wg.Wait()
	}
	if s.single != nil {
		s.single.Close()
	}
	if s.multi != nil {
		s.multi.Close()
	}
	if s.origins != nil {
		s.origins.close()
	}
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing", s.dir+":", err)
	}
}

// counter sums every series of a counter family in a registry snapshot.
func counter(snap obs.Snapshot, name string) float64 {
	var total float64
	for _, c := range snap.Counters {
		if c.Name == name {
			total += float64(c.Value)
		}
	}
	return total
}

// stageStat is one msite_stage_seconds series: observations and their
// summed seconds.
func stageStat(snap obs.Snapshot, stage string) (count, sum float64) {
	h, ok := snap.Histogram(obs.StageHistogram, "stage", stage)
	if !ok {
		return 0, 0
	}
	return float64(h.Count), h.Sum
}
