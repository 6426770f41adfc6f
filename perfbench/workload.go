package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Workload sizes. They are part of the benchmark's definition: changing
// one changes what every recorded number means.
const (
	closedClients     = 2  // clients of the closed-loop workloads
	returningSessions = 64 // fixed session set of the returning workload
	loginEvery        = 4  // one returning session in four logs in
	arrivalsRate      = 50 // new users per second, open loop
	churnOriginDelay  = 20 * time.Millisecond
	churnSitesPerSec  = 30 // fleet sized so no site repeats within a window
	churnWarmSites    = 4  // extra sites built during set-up only
	maxInFlight       = 512
	warmupViews       = 8
	warmup            = time.Second // untimed load between set-up and the first window
	setupRuns         = 3           // set-ups timed for setup_s, their median; the last one is measured
)

// workloads lists the traffic mixes, gated ones in the order
// BENCHMARK.json names them. arrivals runs by hand only: its page views
// are dominated by file-system work whose cost swings twofold within
// minutes on a shared VM, beyond any bound a gate could hold.
var workloads = []struct {
	name  string
	why   string
	gated bool
}{
	{"returning", "warm returning users over 64 sessions: session lookup, snapshot cache hit, per-session file I/O, overlay; zero builds", true},
	{"churn", "every page view is a first visit to a never-built site behind a 20 ms origin: the whole cold build pipeline", true},
	{"arrivals", "open-loop Poisson new anonymous users at 50/s: session creation, bundle decode, seven-file install; no pipeline run", false},
}

// mix derives an independent 64-bit value from the seed, a stream tag
// and an index (splitmix64 finalizer), so each schedule entry depends
// only on its position, not on timing.
func mix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed) ^ stream*0x9e3779b97f4a7c15 ^ (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const (
	streamOrigin  = 1
	streamSession = 2
	streamPick    = 3
	streamArrival = 4
)

// forumSeeds derives the origin content seeds of n forums.
func forumSeeds(seed int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(mix(seed, streamOrigin, uint64(i)) >> 1)
	}
	return seeds
}

// subpagePick is the subpage choice of the i-th view in a sequence:
// a seeded starting point, then round robin, so every subpage gets an
// equal share of views whatever the seed.
func subpagePick(seed int64, seq, i uint64) uint64 {
	return mix(seed, streamPick, seq) + i
}

// returningPick is the k-th view of client c: which of the client's own
// sessions it revisits (sessions are split between clients so one
// session never has two views in flight) and which subpage it opens.
func returningPick(seed int64, c, k int) (sess int, pick uint64) {
	perClient := returningSessions / closedClients
	i := uint64(c)<<32 | uint64(k)
	return c + closedClients*int(mix(seed, streamSession, i)%uint64(perClient)), subpagePick(seed, uint64(c), uint64(k))
}

// arrival is one open-loop page view: when it is due, relative to the
// start of the window, and which subpage it opens.
type arrival struct {
	due  time.Duration
	pick uint64
}

// arrivalSchedule draws a Poisson process of rate per second over d,
// conditioned on its expected count: rate*d arrival times drawn
// uniformly over the window, in order. The count is then the same on
// every seed, so throughput does not vary with it.
func arrivalSchedule(seed int64, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewPCG(uint64(seed), streamArrival))
	dues := make([]time.Duration, int(rate*d.Seconds()))
	for i := range dues {
		dues[i] = time.Duration(rng.Int64N(int64(d)))
	}
	slices.Sort(dues)
	out := make([]arrival, len(dues))
	for i, due := range dues {
		out[i] = arrival{due: due, pick: subpagePick(seed, 0, uint64(i))}
	}
	return out
}

// closedLoop runs clients that each start their next page view when the
// previous one ends, until d has passed. view reports false when the
// client has nothing left to send; it made no page view then.
func closedLoop(ctx context.Context, clients int, d time.Duration, view func(ctx context.Context, c, k int) (viewResult, bool)) []viewResult {
	deadline := time.Now().Add(d)
	var (
		mu  sync.Mutex
		all []viewResult
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []viewResult
			for k := 0; ctx.Err() == nil && time.Now().Before(deadline); k++ {
				v, ok := view(ctx, c, k)
				if !ok {
					break
				}
				mine = append(mine, v)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

// openLoop starts each arrival at its due time whether or not earlier
// ones have finished. A view's latency counts from its due time, so a
// stall also delays everything scheduled behind it. late reports how far
// behind schedule the generator sent each arrival.
func openLoop(ctx context.Context, arrivals []arrival, view func(ctx context.Context, i int, due time.Time) viewResult) (views []viewResult, late []time.Duration) {
	t0 := time.Now()
	views = make([]viewResult, len(arrivals))
	late = make([]time.Duration, len(arrivals))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i, a := range arrivals {
		due := t0.Add(a.due)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				wg.Wait()
				return views[:i], late[:i]
			}
		}
		late[i] = time.Since(due)
		select {
		case sem <- struct{}{}:
		default:
			views[i] = viewResult{start: due, end: time.Now(), err: errors.New("load generator: too many page views in flight")}
			continue
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			views[i] = view(ctx, i, due)
		}(i, due)
	}
	wg.Wait()
	return views, late
}

// scenario is a workload set up and ready to measure.
type scenario interface {
	stack() *stack
	client() *client
	// window drives load for d and returns every page view it started.
	window(ctx context.Context, d time.Duration) (views []viewResult, late []time.Duration)
	// diskNeed projects the bytes that windows timed windows of d add
	// to the session and store dirs, from what set-up left there.
	diskNeed(d time.Duration, windows int) int64
	// notes are report lines about the load generator itself.
	notes() []string
	close()
}

type base struct {
	st   *stack
	c    *client
	seed int64
}

func (b *base) stack() *stack   { return b.st }
func (b *base) client() *client { return b.c }
func (b *base) notes() []string { return nil }

// used is what the session and store dirs hold.
func (b *base) used() int64 {
	_, size := dirUsage(b.st.sessDir, b.st.storeDir)
	return size
}

func (b *base) close() {
	b.c.close()
	b.st.close()
}

// setup builds a workload's stack and brings it to its steady state.
// windows is how many timed windows of d will follow (churn sizes its
// fleet from it).
func setup(ctx context.Context, name, dir string, seed int64, d time.Duration, windows, conns int) (scenario, error) {
	switch name {
	case "returning":
		return setupReturning(ctx, dir, seed, conns)
	case "arrivals":
		return setupArrivals(ctx, dir, seed, d, conns)
	case "churn":
		return setupChurn(ctx, dir, seed, d, windows, conns)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// returning: a fixed set of sessions, each viewed once during set-up
// (one in four after logging in), then revisited in a closed loop.
type returning struct {
	base
	users []*user
	round atomic.Int64 // distinguishes schedule positions across windows
}

func setupReturning(ctx context.Context, dir string, seed int64, conns int) (scenario, error) {
	st, err := startStack(dir, forumSeeds(seed, 1), 0)
	if err != nil {
		return nil, err
	}
	w := &returning{base: base{st: st, c: newClient(st.base, conns), seed: seed}}
	w.users = make([]*user, returningSessions)
	for i := range w.users {
		w.users[i] = &user{}
	}
	s := st.sites[0]
	errs := make(chan error, conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(w.users); i = int(next.Add(1) - 1) {
				u := w.users[i]
				if i%loginEvery == 0 {
					if err := w.c.login(ctx, s, u, fmt.Sprintf("member%d", i)); err != nil {
						errs <- fmt.Errorf("set-up session %d: %w", i, err)
						return
					}
				}
				if v := w.c.pageView(ctx, s, u, subpagePick(seed, 0, uint64(i)), time.Now()); v.err != nil {
					errs <- fmt.Errorf("set-up session %d: %w", i, v.err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// diskNeed: revisits rewrite session files in place, so the windows
// need only headroom.
func (w *returning) diskNeed(time.Duration, int) int64 { return 8 << 20 }

func (w *returning) window(ctx context.Context, d time.Duration) ([]viewResult, []time.Duration) {
	round := int(w.round.Add(1)) << 24
	s := w.st.sites[0]
	return closedLoop(ctx, closedClients, d, func(ctx context.Context, c, k int) (viewResult, bool) {
		i, pick := returningPick(w.seed, c, round+k)
		return w.c.pageView(ctx, s, w.users[i], pick, time.Now()), true
	}), nil
}

// arrivals: brand-new anonymous users arriving as a Poisson process,
// each making one page view.
type arrivals struct {
	base
	round atomic.Int64
}

func setupArrivals(ctx context.Context, dir string, seed int64, d time.Duration, conns int) (scenario, error) {
	st, err := startStack(dir, forumSeeds(seed, 1), 0)
	if err != nil {
		return nil, err
	}
	w := &arrivals{base: base{st: st, c: newClient(st.base, conns), seed: seed}}
	for i := 0; i < warmupViews; i++ {
		if v := w.c.pageView(ctx, st.sites[0], &user{}, uint64(i), time.Now()); v.err != nil {
			w.close()
			return nil, fmt.Errorf("set-up view %d: %w", i, v.err)
		}
	}
	return w, nil
}

// diskNeed: each arrival installs a new session like the set-up views
// did (whose share of set-up's bytes also counts the site's one build).
func (w *arrivals) diskNeed(d time.Duration, windows int) int64 {
	busy := warmup + time.Duration(windows)*d
	return int64(arrivalsRate*busy.Seconds()+1) * (w.used() / warmupViews)
}

func (w *arrivals) window(ctx context.Context, d time.Duration) ([]viewResult, []time.Duration) {
	sched := arrivalSchedule(w.seed+w.round.Add(1)-1, arrivalsRate, d)
	s := w.st.sites[0]
	return openLoop(ctx, sched, func(ctx context.Context, i int, due time.Time) viewResult {
		return w.c.pageView(ctx, s, &user{}, sched[i].pick, due)
	})
}

// churn: every page view is a new user's first visit to a site the
// process has never built, behind an origin with a fixed delay.
type churn struct {
	base
	next      atomic.Int64  // next unbuilt site
	fastest   time.Duration // quickest set-up view
	exhausted atomic.Bool   // a client found no unbuilt site left
}

// churnFleet sizes the site fleet for the set-up, the warm-up and the
// timed windows.
func churnFleet(d time.Duration, windows int) int {
	busy := warmup + time.Duration(windows)*d
	return churnSitesPerSec*int(busy.Seconds()+1) + churnWarmSites
}

func setupChurn(ctx context.Context, dir string, seed int64, d time.Duration, windows, conns int) (scenario, error) {
	st, err := startStack(dir, forumSeeds(seed, churnFleet(d, windows)), churnOriginDelay)
	if err != nil {
		return nil, err
	}
	w := &churn{base: base{st: st, c: newClient(st.base, conns), seed: seed}}
	// The last sites warm the code paths, two clients at a time as in
	// the window; the window never visits them.
	warm := st.sites[len(st.sites)-churnWarmSites:]
	errs := make(chan error, len(warm))
	lat := make([]time.Duration, len(warm))
	var wg sync.WaitGroup
	for c := 0; c < closedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(warm); i += closedClients {
				v := w.c.pageView(ctx, warm[i], &user{}, uint64(i), time.Now())
				if v.err != nil {
					errs <- fmt.Errorf("set-up view of %s: %w", warm[i].name, v.err)
				}
				lat[i] = v.latency()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		w.close()
		return nil, err
	}
	w.fastest = slices.Min(lat)
	return w, nil
}

// unvisited is the number of fleet sites the windows may build.
func (w *churn) unvisited() int64 { return int64(len(w.st.sites) - churnWarmSites) }

// diskNeed: each site built leaves what a set-up site left, and the
// clients build no faster than the quickest set-up view, until the
// fleet runs out.
func (w *churn) diskNeed(d time.Duration, windows int) int64 {
	busy := warmup + time.Duration(windows)*d
	sites := min(int64(closedClients)*int64(busy/w.fastest+1), w.unvisited())
	return sites * (w.used() / churnWarmSites)
}

func (w *churn) notes() []string {
	visited := min(w.next.Load(), w.unvisited())
	notes := []string{fmt.Sprintf("churn sites visited %d of %d in the fleet", visited, w.unvisited())}
	if w.exhausted.Load() {
		notes = append(notes, fmt.Sprintf("load generator: the site fleet ran out, so clients stopped early; it holds %d sites per second of load (churnSitesPerSec)", churnSitesPerSec))
	}
	return notes
}

func (w *churn) window(ctx context.Context, d time.Duration) ([]viewResult, []time.Duration) {
	return closedLoop(ctx, closedClients, d, func(ctx context.Context, _, _ int) (viewResult, bool) {
		i := w.next.Add(1) - 1
		if i >= w.unvisited() {
			w.exhausted.Store(true)
			return viewResult{}, false
		}
		return w.c.pageView(ctx, w.st.sites[i], &user{}, subpagePick(w.seed, 0, uint64(i)), time.Now()), true
	}), nil
}
