package main

import (
	"bufio"
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"msite/internal/obs"
)

// metric is one printed number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile is the q-quantile of xs with linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeCalls runs f n times and returns the median duration of one call.
// Each sample times batch calls, so sub-microsecond calls still read
// above the clock's resolution.
func timeCalls(n, batch int, f func()) time.Duration {
	samples := make([]float64, n)
	for i := range samples {
		start := time.Now()
		for j := 0; j < batch; j++ {
			f()
		}
		samples[i] = float64(time.Since(start)) / float64(batch)
	}
	return time.Duration(median(samples))
}

// procCounters are the process-wide counters read at each edge of a
// timed window.
type procCounters struct {
	at         time.Time
	steal      float64       // machine-wide CPU time stolen by the hypervisor, in ticks
	ticks      float64       // machine-wide CPU time, in ticks
	cpu        time.Duration // user + system
	writeBytes int64         // bytes sent to the storage layer (/proc/self/io)
	alloc      uint64        // cumulative heap bytes allocated
	gcs        uint32
}

func readProc() procCounters {
	var p procCounters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if data, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
				p.writeBytes, _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			}
		}
	}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(data), "\n")
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseFloat(f, 64)
			if i < 8 {
				p.ticks += v
			}
			if i == 7 {
				p.steal = v
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.alloc, p.gcs = m.TotalAlloc, m.NumGC
	p.at = time.Now()
	return p
}

// rssMB reads the process's resident set size.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// sampleRSS polls the resident set size until ctx ends and returns the
// peak it saw.
func sampleRSS(ctx context.Context, every time.Duration) (peak func() float64) {
	var (
		mu  sync.Mutex
		max = rssMB()
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				v := rssMB()
				mu.Lock()
				max = math.Max(max, v)
				mu.Unlock()
			}
		}
	}()
	return func() float64 {
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		return math.Max(max, rssMB())
	}
}

// dirUsage counts the regular files under dirs and their bytes.
func dirUsage(dirs ...string) (files int, size int64) {
	for _, dir := range dirs {
		_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || !d.Type().IsRegular() {
				return nil
			}
			if info, err := d.Info(); err == nil {
				files++
				size += info.Size()
			}
			return nil
		})
	}
	return files, size
}

// window is everything one timed window measured.
type window struct {
	views      []viewResult
	late       []time.Duration
	before     procCounters
	after      procCounters
	rssPeakMB  float64
	sent       int64 // bytes the proxy wrote to clients
	originReqs int64
	originBusy time.Duration
	originSent int64
	files      int   // growth of the session root plus the store dir
	bytes      int64 // likewise
	sessFiles  int   // growth of the session root alone
	sessBytes  int64
	regBefore  obs.Snapshot
	regAfter   obs.Snapshot
}

func (w *window) elapsed() time.Duration { return w.after.at.Sub(w.before.at) }

// measure runs one timed window of sc and reads every counter around it.
// With a tracer, the client's page views and the origins' requests are
// recorded as spans.
func measure(ctx context.Context, sc scenario, d time.Duration, tr *tracer) *window {
	st := sc.stack()
	if tr != nil {
		sc.client().tracer.Store(tr)
		st.origins.tracer.Store(tr)
		defer sc.client().tracer.Store(nil)
		defer st.origins.tracer.Store(nil)
	}
	w := &window{}
	sessFiles0, sessBytes0 := dirUsage(st.sessDir)
	storeFiles0, storeBytes0 := dirUsage(st.storeDir)
	sent0 := st.sent.Load()
	oreq0, obusy0, osent0 := st.origins.requests.Load(), st.origins.busyNS.Load(), st.origins.bytes.Load()
	w.regBefore = st.reg.Snapshot()
	rctx, stop := context.WithCancel(ctx)
	peak := sampleRSS(rctx, 20*time.Millisecond)
	w.before = readProc()

	w.views, w.late = sc.window(ctx, d)

	w.after = readProc()
	stop()
	w.rssPeakMB = peak()
	w.regAfter = st.reg.Snapshot()
	w.sent = st.sent.Load() - sent0
	w.originReqs = st.origins.requests.Load() - oreq0
	w.originBusy = time.Duration(st.origins.busyNS.Load() - obusy0)
	w.originSent = st.origins.bytes.Load() - osent0
	sessFiles1, sessBytes1 := dirUsage(st.sessDir)
	storeFiles1, storeBytes1 := dirUsage(st.storeDir)
	w.sessFiles, w.sessBytes = sessFiles1-sessFiles0, sessBytes1-sessBytes0
	w.files = w.sessFiles + storeFiles1 - storeFiles0
	w.bytes = w.sessBytes + storeBytes1 - storeBytes0
	return w
}

// delta is a counter family's growth over the window.
func (w *window) delta(name string) float64 {
	return counter(w.regAfter, name) - counter(w.regBefore, name)
}

// stageMS is the mean time per observation a program stage span spent
// in the window.
func (w *window) stageMS(stage string) float64 {
	c1, s1 := stageStat(w.regAfter, stage)
	c0, s0 := stageStat(w.regBefore, stage)
	return ratio(s1-s0, c1-c0) * 1000
}

// pageViews and failures.
func (w *window) counts() (attempted, failed int) {
	for _, v := range w.views {
		if v.err != nil {
			failed++
		}
	}
	return len(w.views), failed
}

// latencies of every page view in ms.
func (w *window) latencies() []float64 {
	out := make([]float64, len(w.views))
	for i, v := range w.views {
		out[i] = ms(v.latency())
	}
	return out
}

// entryTTFB lists the time to first byte of every entry request, in ms.
func (w *window) entryTTFB() []float64 {
	var out []float64
	for _, v := range w.views {
		if len(v.calls) > 0 && v.calls[0].status != 0 {
			out = append(out, ms(v.calls[0].ttfb))
		}
	}
	return out
}

// stealShare is the share of the machine's CPU time the hypervisor
// took from this guest between two readings.
func stealShare(before, after procCounters) float64 {
	return ratio(after.steal-before.steal, after.ticks-before.ticks)
}

// endToEnd computes the end-to-end metrics BENCHMARK.json gates, from an
// untraced window. Times are steal-adjusted: on a shared VM the
// hypervisor takes CPU time from this guest, and a run that keeps the
// CPUs busy finishes its work in proportion to the CPU it gets, so wall
// times are scaled by (1 - steal share) over the same window. With no
// steal they are plain wall times.
func endToEnd(w *window, setupS float64) map[string]metric {
	n := float64(len(w.views))
	keep := 1 - stealShare(w.before, w.after)
	return map[string]metric{
		"pageview_p50_ms":        {median(w.latencies()) * keep, "ms"},
		"entry_ttfb_p50_ms":      {median(w.entryTTFB()) * keep, "ms"},
		"client_kb_per_pageview": {ratio(float64(w.sent), n) / 1024, "KB"},
		"cpu_ms_per_pageview":    {ratio(ms(w.after.cpu-w.before.cpu), n), "ms"},
		"setup_s":                {setupS, "s"},
	}
}

// reportOnly are the end-to-end figures printed for people but not
// gated. Wall-clock throughput and tail latency follow the hypervisor's
// steal on a shared VM more than the code; fail_ratio is zero on a
// correct run; p99 needs 1000 page views; origin and disk bytes are zero
// on some workloads. A relative bound cannot hold any of them. On churn
// the peak RSS grows with every site built (the render cache is
// unbounded by default), so a faster build would read as more memory.
func reportOnly(w *window) []string {
	attempted, failed := w.counts()
	n := float64(attempted)
	steal := stealShare(w.before, w.after)
	lat := w.latencies()
	p99 := "n/a (fewer than 1000 page views)"
	if attempted >= 1000 {
		p99 = fmt.Sprintf("%.4f ms", quantile(lat, 0.99))
	}
	return []string{
		fmt.Sprintf("cpu_steal %.4f of machine CPU time during the window", steal),
		fmt.Sprintf("pageviews_per_s %.4f 1/s (wall clock; %.4f steal-adjusted)", n/w.elapsed().Seconds(), n/w.elapsed().Seconds()/(1-steal)),
		fmt.Sprintf("pageview_p50_ms %.4f ms (wall clock)", median(lat)),
		fmt.Sprintf("pageview_p90_ms %.4f ms (wall clock; %.4f steal-adjusted)", quantile(lat, 0.90), quantile(lat, 0.90)*(1-steal)),
		"pageview_p99_ms " + p99 + " (wall clock)",
		fmt.Sprintf("rss_peak_mb %.4f MB", w.rssPeakMB),
		fmt.Sprintf("entry_ttfb_p50_ms %.4f ms (wall clock)", median(w.entryTTFB())),
		fmt.Sprintf("fail_ratio %.6f (%d of %d page views failed)", ratio(float64(failed), n), failed, attempted),
		fmt.Sprintf("origin_kb_per_pageview %.4f KB", ratio(float64(w.originSent), n)/1024),
		fmt.Sprintf("disk_kb_per_pageview %.4f KB", ratio(float64(w.bytes), n)/1024),
	}
}

// fingerprint identifies the environment a result was measured in;
// numbers are comparable only within one fingerprint.
func fingerprint(dirs map[string]string, commit string) map[string]string {
	fp := map[string]string{
		"cpu_model":  cpuModel(),
		"num_cpu":    strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
	for name, dir := range dirs {
		fp["fs_"+name] = fsType(dir)
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x6969: "nfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// freeBytes is the space available to this user on dir's filesystem.
func freeBytes(dir string) int64 {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0
	}
	return int64(st.Bavail) * int64(st.Bsize)
}
