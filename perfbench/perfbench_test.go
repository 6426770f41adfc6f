package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// schedule renders every seeded input of all three workloads: origin
// seeds, the returning session order, the arrival schedule and the
// subpage choices.
func schedule(seed int64) []string {
	var out []string
	for _, s := range forumSeeds(seed, 8) {
		out = append(out, fmt.Sprintf("origin %d", s))
	}
	for c := 0; c < closedClients; c++ {
		for k := 0; k < 100; k++ {
			sess, pick := returningPick(seed, c, k)
			out = append(out, fmt.Sprintf("returning c%d k%d session %d pick %d", c, k, sess, pick))
		}
	}
	for _, a := range arrivalSchedule(seed, arrivalsRate, 5*time.Second) {
		out = append(out, fmt.Sprintf("arrival %v pick %d", a.due, a.pick))
	}
	for i := uint64(0); i < 100; i++ {
		out = append(out, fmt.Sprintf("churn %d pick %d", i, subpagePick(seed, 0, i)))
	}
	return out
}

func TestScheduleIsSeeded(t *testing.T) {
	a, b, c := schedule(7), schedule(7), schedule(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different request schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same request schedule")
	}
	for i := 0; i < 8; i++ {
		if a[i] == c[i] {
			t.Errorf("origin seed %d does not depend on the workload seed: %s", i, a[i])
		}
	}
}

func TestReturningClientsKeepToTheirSessions(t *testing.T) {
	for c := 0; c < closedClients; c++ {
		seen := map[int]bool{}
		for k := 0; k < 2000; k++ {
			sess, _ := returningPick(3, c, k)
			if sess%closedClients != c || sess >= returningSessions {
				t.Fatalf("client %d picked session %d", c, sess)
			}
			seen[sess] = true
		}
		if len(seen) != returningSessions/closedClients {
			t.Errorf("client %d visited %d of its %d sessions", c, len(seen), returningSessions/closedClients)
		}
	}
}

func TestArrivalRate(t *testing.T) {
	sched := arrivalSchedule(11, arrivalsRate, 20*time.Second)
	if n := len(sched); n != 20*arrivalsRate {
		t.Fatalf("%d arrivals in 20s at %d/s", n, arrivalsRate)
	}
	var firstHalf int
	for i, a := range sched {
		if i > 0 && a.due < sched[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		if a.due < 10*time.Second {
			firstHalf++
		}
	}
	if firstHalf < 400 || firstHalf > 600 {
		t.Errorf("%d of %d arrivals fall in the first half of the window", firstHalf, len(sched))
	}
}

// A stalled response delays every arrival queued behind it on the one
// connection; their latency counts from when they were due, so the
// stall shows in each of them, not only in the stalled request.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()

	arrivals := []arrival{{due: 0}, {due: 50 * time.Millisecond}, {due: 100 * time.Millisecond}}
	views, late := openLoop(context.Background(), arrivals, func(ctx context.Context, i int, due time.Time) viewResult {
		v := viewResult{start: due}
		cl, _, _, err := c.get(ctx, "/", &user{}, "entry", "")
		v.calls, v.err, v.end = []call{cl}, err, time.Now()
		return v
	})
	if len(views) != len(arrivals) {
		t.Fatalf("%d views for %d arrivals", len(views), len(arrivals))
	}
	for i, v := range views {
		if v.err != nil {
			t.Fatalf("view %d: %v", i, v.err)
		}
		// Each was due at arrivals[i].due and could finish only after the
		// stall ended.
		if want := stall - arrivals[i].due - 20*time.Millisecond; v.latency() < want {
			t.Errorf("view %d latency %v, want at least %v (stall minus its offset)", i, v.latency(), want)
		}
		if late[i] > 50*time.Millisecond {
			t.Errorf("arrival %d sent %v late: the generator waited on the stall", i, late[i])
		}
	}
}

// A client that runs out of work (a churn fleet with no unbuilt site
// left) stops without recording a page view, failed or not.
func TestClosedLoopStopsWithoutAView(t *testing.T) {
	var calls atomic.Int64
	views := closedLoop(context.Background(), closedClients, time.Minute, func(ctx context.Context, c, k int) (viewResult, bool) {
		if calls.Add(1) > 5 {
			return viewResult{}, false
		}
		return viewResult{start: time.Now(), end: time.Now()}, true
	})
	if len(views) != 5 {
		t.Fatalf("%d page views recorded, want the 5 made", len(views))
	}
	for i, v := range views {
		if v.err != nil {
			t.Errorf("view %d: %v", i, v.err)
		}
	}
}

// The watchdog grows with the run it guards, and a run of BENCHMARK.json's
// length, traced or not, is still cut within 180 seconds if it hangs.
func TestRunLimit(t *testing.T) {
	spec := readSpec(t)
	for _, traced := range []bool{false, true} {
		o := options{seconds: spec.RunSeconds, trace: traced, setups: setupRuns}
		if limit := o.runLimit(); limit < time.Duration(o.windows()*o.seconds)*time.Second || limit > 175*time.Second {
			t.Errorf("trace=%v: watchdog at %v for %d windows of %ds", traced, limit, o.windows(), o.seconds)
		}
	}
	long := options{seconds: 60, trace: true, setups: setupRuns}
	if limit := long.runLimit(); limit < 120*time.Second+time.Duration(setupRuns)*setupAllowance {
		t.Errorf("a traced 60s run is cut at %v", limit)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	RunSeconds int                           `json:"run_seconds"`
	Workloads  []struct{ Name string }       `json:"workloads"`
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		if w.gated {
			ours = append(ours, w.name)
		}
	}
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
}

// A short run of each workload, untraced and traced, prints exactly the
// metrics BENCHMARK.json names, with their units and finite values, and
// no page view fails. The ungated workload is run too.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("%s/trace=%v", w.name, traced)
			t.Run(name, func(t *testing.T) {
				res, err := bench(context.Background(), options{
					workload: w.name, seed: 5, seconds: 1, trace: traced,
					workDir: t.TempDir(), commit: "test", setups: 1,
				}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}
