// Command perfbench is the m.Site benchmark. It starts synthetic forum
// origins and the proxy in one process, drives them over loopback HTTP
// with a seeded load generator, checks every response, and prints the
// end-to-end metrics (untraced run) or the per-layer table (traced run).
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh; see
// perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string // build and scratch dir; everything the run writes goes under it
	commit   string
	setups   int // set-ups timed for setup_s; the last one is measured
}

// windows is the number of timed windows of --seconds a run measures.
func (o options) windows() int {
	if o.trace {
		return 2
	}
	return 1
}

// Allowances of the watchdog on top of a run's timed windows.
const (
	setupAllowance = 15 * time.Second // each set-up
	restAllowance  = 60 * time.Second // warm-up, per-layer timing, tear-down
)

// runLimit is how long a run may take before it counts as hung.
func (o options) runLimit() time.Duration {
	return time.Duration(o.windows()*o.seconds)*time.Second + time.Duration(o.setups)*setupAllowance + restAllowance
}

func parseArgs(args []string) (options, error) {
	o := options{setups: setupRuns}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "returning, arrivals or churn")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&o.seconds, "seconds", 20, "length of each timed window")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer table from a traced run")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for scratch session/store dirs and trace files")
	fs.StringVar(&o.commit, "commit", "unknown", "commit being measured, for the fingerprint")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *traceFlag == 1
	switch {
	case *traceFlag != 0 && *traceFlag != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	for _, w := range workloads {
		if w.name == o.workload {
			return o, nil
		}
	}
	return o, fmt.Errorf("unknown --workload %q", o.workload)
}

// result is the machine-read last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// A run that hangs must still end, without a result.
	limit := o.runLimit()
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", limit)
		os.Exit(3)
	})
	res, err := bench(context.Background(), o, os.Stdout)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench sets the workload up (several times, for setup_s), measures it,
// and writes a human-readable report to out.
func bench(ctx context.Context, o options, out io.Writer) (*result, error) {
	d := time.Duration(o.seconds) * time.Second
	windows := o.windows()
	root := filepath.Join(o.workDir, "perfbench")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	// Scratch dirs of a run that was killed are still here; one run at a
	// time uses a work dir.
	stale, _ := filepath.Glob(filepath.Join(root, "*-*"))
	for _, dir := range stale {
		_ = os.RemoveAll(dir)
	}
	tmp, err := os.MkdirTemp(root, o.workload+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	conns := runtime.NumCPU()
	var (
		setupS []float64
		sc     scenario
	)
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		before := readProc()
		s, err := setup(ctx, o.workload, tmp, o.seed, d, windows, conns)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		after := readProc()
		setupS = append(setupS, after.at.Sub(before.at).Seconds()*(1-stealShare(before, after)))
		if i < o.setups-1 {
			s.close()
		} else {
			sc = s
		}
	}
	defer sc.close()
	// Set-up writes little; the timed windows may write much more. They
	// start only with twice their projected growth free.
	need, free := 2*sc.diskNeed(d, windows), freeBytes(tmp)
	if free < need {
		return nil, fmt.Errorf("refusing to start: %d MB free in %s, the %s workload needs %d MB", free>>20, tmp, o.workload, need>>20)
	}
	st := sc.stack()
	fp := fingerprint(map[string]string{"sessions": st.sessDir, "store": st.storeDir}, o.commit)
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%v conns=%d\n", o.workload, o.seed, o.seconds, o.trace, conns)
	fmt.Fprintf(out, "fingerprint %s\n", fpJSON)
	fmt.Fprintf(out, "disk %d MB free, twice the projected growth is %d MB\n", free>>20, need>>20)

	// Hand the torn-down set-ups' memory back to the OS, then run the
	// workload briefly so the heap and the load generator are warm.
	debug.FreeOSMemory()
	warm, _ := sc.window(ctx, warmup)
	for _, v := range warm {
		if v.err != nil {
			return nil, fmt.Errorf("warm-up: %w", v.err)
		}
	}
	w := measure(ctx, sc, d, nil)
	res := &result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = w.counts()
	windowsRun := []*window{w}
	if !o.trace {
		res.Metrics = endToEnd(w, median(setupS))
		printMetrics(out, res.Metrics)
		for _, line := range reportOnly(w) {
			fmt.Fprintln(out, line)
		}
	} else {
		tr := newTracer()
		tw := measure(ctx, sc, d, tr)
		windowsRun = append(windowsRun, tw)
		a, f := tw.counts()
		res.Attempted += a
		res.Failed += f
		layers, err := perLayer(ctx, sc, tw, w, tr)
		if err != nil {
			return nil, err
		}
		for _, l := range layerOrder {
			res.Metrics[l.name] = metric{layers[l.name], l.unit}
		}
		printMetrics(out, res.Metrics)
		path := filepath.Join(root, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path, fp); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(out, "trace %d spans written to %s\n", len(tr.spans), path)
	}
	reasons := map[string]int{}
	for _, w := range windowsRun {
		for _, v := range w.views {
			if v.err != nil {
				reasons[v.err.Error()]++
			}
		}
	}
	for msg, n := range reasons {
		fmt.Fprintf(out, "failed %d page views: %s\n", n, msg)
	}
	for _, line := range sc.notes() {
		fmt.Fprintln(out, line)
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return nil, errors.New("no page views completed")
	}
	return res, nil
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%s %.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}
