// Command perfbench drives the repository's serving path — FetchClient,
// router, cluster nodes with their artifact caches, peer fill, the
// streaming loader and the live VM — with a seeded closed loop, probes
// each layer (the disk store too), and prints one JSON result line. See
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"nonstrict/internal/cluster"
	"nonstrict/internal/server"
)

// Fixed run shape. Each is echoed in the report.
const (
	nodes        = 3
	ringSeed     = 1 // placement is part of the topology, not of the seed
	setupRepeats = 3
	outDir       = ".bench_out"
)

// config is the configuration that actually ran; the report echoes it
// with every default resolved.
type config struct {
	Workload     string   `json:"workload"`
	Seed         uint64   `json:"seed"`
	Seconds      int      `json:"seconds"`
	Trace        bool     `json:"trace"`
	Nodes        int      `json:"nodes"`
	VNodes       int      `json:"vnodes"`
	RingSeed     uint64   `json:"ring_seed"`
	Order        string   `json:"order"`
	Link         linkEcho `json:"link"`
	CacheBytes   int64    `json:"cache_bytes"`
	Apps         []string `json:"apps"`
	Clients      int      `json:"clients"`
	Loop         string   `json:"loop"`
	WarmupS      float64  `json:"warmup_s"`
	SetupRepeats int      `json:"setup_repeats"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	NumCPU       int      `json:"nproc"`
	GoVersion    string   `json:"go_version"`
}

type linkEcho struct {
	Name         string  `json:"name"`
	BandwidthBps int     `json:"bandwidth_bytes_per_s,omitempty"`
	RTTMs        float64 `json:"rtt_ms,omitempty"`
	JitterMs     float64 `json:"jitter_ms,omitempty"`
	LossEvery    int     `json:"loss_every_bytes,omitempty"`
	Scale        float64 `json:"time_scale,omitempty"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0, "input seed (required, nonzero)")
	seconds := fs.Int("seconds", 0, "length of the measured window in seconds (required)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	case *seed == 0:
		return fmt.Errorf("-seed is required and must be nonzero")
	case *seconds <= 0:
		return fmt.Errorf("-seconds must be positive")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	c := newConfig(w, *seed, *seconds, *trace == 1)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := execute(ctx, w, c)
	if err != nil {
		return err
	}
	if err := writeReport(c, rep); err != nil {
		return err
	}
	printSummary(stderr, c, rep)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func newConfig(w workload, seed uint64, seconds int, trace bool) *config {
	c := &config{
		Workload:     w.name,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
		Nodes:        nodes,
		VNodes:       cluster.DefaultVNodes,
		RingSeed:     ringSeed,
		Order:        w.order,
		CacheBytes:   server.DefaultCacheBytes,
		Apps:         paperApps(),
		Clients:      clients(w),
		Loop:         "closed",
		WarmupS:      warmup(w).Seconds(),
		SetupRepeats: setupRepeats,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		Link:         linkEcho{Name: "loopback"},
	}
	if w.link != nil {
		c.Link = linkEcho{
			Name:         w.link.Name,
			BandwidthBps: w.link.Bandwidth,
			RTTMs:        float64(w.link.RTT) / 1e6,
			JitterMs:     float64(w.link.Jitter) / 1e6,
			LossEvery:    w.link.LossEvery,
			Scale:        1,
		}
	}
	return c
}

// clients is the closed loop's caller count, chosen per workload from
// interleaved runs on a shared 2-vCPU VM, whose CPU speed drifts:
//   - remote_fast: one fewer than the CPUs, leaving a CPU for the serving
//     side. With one client per CPU the loop saturates the machine, its
//     latency turns into queueing on the drifting CPU, and every metric
//     spread about twice as far from run to run.
//   - remote_t1: two per CPU. Each op mostly waits on its own link, and
//     fewer clients would leave too few ops for a steady p90.
//   - churn_build: one per CPU. An op is short, and the miss process needs
//     the ops: with one client fewer every metric spread further.
func clients(w workload) int {
	switch {
	case w.link != nil:
		return 2 * runtime.NumCPU()
	case w.remote:
		return max(1, runtime.NumCPU()-1)
	}
	return runtime.NumCPU()
}

// warmup is the unmeasured closed-loop time before the window: long
// enough for the heap and connection pools to settle and, on churn, for
// every cache to reach its steady resident set.
func warmup(w workload) time.Duration {
	if w.link != nil {
		return 4 * time.Second
	}
	return 3 * time.Second
}

// report is everything one run measured.
type report struct {
	result  result
	setupS  []float64
	window  windowStats
	base    *windowStats // traced runs: the untraced comparison window
	probes  []probeResult
	perApp  map[string]appStats
	invars  map[string]int64
	errs    []string
	spanOut string
	// spanSummary is the per-layer span table of a traced run.
	spanSummary map[string]map[string]float64
	simPredMs   map[string]float64 // remote_t1: predicted invocation latency per app
}

// execute sets the workload up (several times, keeping the last), runs
// the warm-up and the measured window(s), and derives the metrics.
func execute(ctx context.Context, w workload, c *config) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if c.Trace {
		tr = newTracer()
	}
	rep := &report{}
	var e *env
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		topo, err := boot(ctx, w, c, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.setupS = append(rep.setupS, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			topo.close()
			continue
		}
		e = newEnv(w, c, topo, tr)
	}
	defer e.close()

	e.window(ctx, warmup(w))
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	window := time.Duration(c.Seconds) * time.Second
	if c.Trace {
		// The untraced half-window gives the baseline the tracing
		// overhead is measured against.
		b := e.measure(ctx, window/2)
		rep.base = &b
		tr.on.Store(true)
	}
	rep.window = e.measure(ctx, window)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rep.invars = invariants(w, rep.window)
	failed := 0
	for _, s := range rep.window.samples {
		if s.err != nil {
			failed++
			if len(rep.errs) < 10 {
				rep.errs = append(rep.errs, s.app+": "+s.err.Error())
			}
		}
	}
	rep.perApp = perApp(rep.window.samples)
	rep.result = result{
		Correct:   failed == 0 && len(rep.window.samples) > 0,
		Attempted: len(rep.window.samples),
		Failed:    failed,
	}
	for _, k := range sortedKeys(rep.invars) {
		if v := rep.invars[k]; v != 0 {
			rep.result.Correct = false
			rep.errs = append(rep.errs, fmt.Sprintf("invariant %s = %d, want 0", k, v))
		}
	}
	if !c.Trace {
		rep.result.Metrics = endToEnd(rep.setupS, rep.window)
		return rep, nil
	}
	tr.on.Store(false)
	spans := tr.take()
	if err := checkNesting(spans); err != nil {
		rep.result.Correct = false
		rep.errs = append(rep.errs, "trace: "+err.Error())
	}
	probes, lp, err := runProbes(ctx, w, c)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	rep.probes, rep.simPredMs = probes, lp.simPredMs
	rep.spanSummary = layerTable(spans)
	rep.result.Metrics = perLayer(rep, spans, lp)
	rep.spanOut = filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", c.Workload, c.Seed))
	if err := writeJSON(rep.spanOut, spans); err != nil {
		return nil, err
	}
	return rep, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
