package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// windowStats is one measured closed-loop window.
type windowStats struct {
	samples  []sample
	elapsed  time.Duration
	cpu      time.Duration // process user + system
	counters counters      // movement during the window
	mallocs  uint64
	alloc    uint64
	gcs      uint32
	heapPeak uint64
}

// measure runs one window and records the process and program counters
// around it.
func (e *env) measure(ctx context.Context, d time.Duration) windowStats {
	var ws windowStats
	var m0, m1 runtime.MemStats
	before := e.topo.snapshot()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() { peak <- heapPeak(stop) }()
	ws.samples, ws.elapsed = e.window(ctx, d)
	close(stop)
	ws.heapPeak = <-peak
	ws.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ws.counters = e.topo.snapshot().sub(before)
	ws.mallocs = m1.Mallocs - m0.Mallocs
	ws.alloc = m1.TotalAlloc - m0.TotalAlloc
	ws.gcs = m1.NumGC - m0.NumGC
	return ws
}

// heapPeak samples live heap bytes until stop closes and returns the
// largest sample.
func heapPeak(stop <-chan struct{}) uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
		select {
		case <-stop:
			return peak
		case <-t.C:
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ok returns the samples whose op passed its check.
func (ws windowStats) ok() []sample {
	var out []sample
	for _, s := range ws.samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

func (ws windowStats) cpuPerOp() float64 {
	n := len(ws.ok())
	if n == 0 {
		return 0
	}
	return ms(ws.cpu) / float64(n)
}

// endToEnd derives the metrics a user of the serving path sees.
func endToEnd(setupS []float64, ws windowStats) map[string]metric {
	ok := ws.ok()
	var first, dur []float64
	for _, s := range ok {
		first = append(first, ms(s.first))
		dur = append(dur, ms(s.dur))
	}
	return map[string]metric{
		"setup_s":           {median(setupS), "s"},
		"first_code_ms_p50": {quantile(first, 0.5), "ms"},
		"first_code_ms_p90": {quantile(first, 0.9), "ms"},
		"op_ms_p50":         {quantile(dur, 0.5), "ms"},
		"op_ms_p90":         {quantile(dur, 0.9), "ms"},
		"ops_per_s":         {float64(len(ok)) / ws.elapsed.Seconds(), "1/s"},
		"cpu_ms_per_op":     {ws.cpuPerOp(), "ms"},
	}
}

// invariants returns the counters that must not move in a timed window
// of w; any nonzero value fails the run.
func invariants(w workload, ws windowStats) map[string]int64 {
	d := ws.counters
	var retries int64
	for _, s := range ws.samples {
		retries += s.fetch.Retries
	}
	out := map[string]int64{
		"router.failovers":   d.router.Failovers,
		"router.aborts":      d.router.Aborts,
		"peerfill.fallbacks": d.fallbacks,
		"cache.shed":         d.cache.Shed,
		"cache.build_errors": d.cache.BuildErrors,
		// Every link the workloads use is lossless.
		"fetch.retries": retries,
	}
	if w.remote {
		out["cache.builds"] = d.cache.Builds
		out["cache.peer_fills"] = d.cache.PeerFills
	}
	return out
}

// appStats summarizes one app's ops in the window.
type appStats struct {
	Ops          int     `json:"ops"`
	Failed       int     `json:"failed"`
	FirstCodeP50 float64 `json:"first_code_ms_p50"`
	OpP50        float64 `json:"op_ms_p50"`
}

func perApp(samples []sample) map[string]appStats {
	first := map[string][]float64{}
	dur := map[string][]float64{}
	out := map[string]appStats{}
	for _, s := range samples {
		st := out[s.app]
		st.Ops++
		if s.err != nil {
			st.Failed++
		} else {
			first[s.app] = append(first[s.app], ms(s.first))
			dur[s.app] = append(dur[s.app], ms(s.dur))
		}
		out[s.app] = st
	}
	for a, st := range out {
		st.FirstCodeP50 = quantile(first[a], 0.5)
		st.OpP50 = quantile(dur[a], 0.5)
		out[a] = st
	}
	return out
}

// perLayer derives the per-layer metrics of a traced run from its spans,
// the program's counters, and the layer probes.
func perLayer(rep *report, spans []*span, pm probeMetrics) map[string]metric {
	ws := rep.window
	n := float64(len(ws.samples))
	d := ws.counters
	self := selfTimes(spans)
	byName := map[string][]*span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	durs := func(name string, keep func(*span) bool) []float64 {
		var out []float64
		for _, s := range byName[name] {
			if keep == nil || keep(s) {
				out = append(out, ms(s.dur()))
			}
		}
		return out
	}
	var ttfb, routerSelf []float64
	for _, s := range byName[spanClient] {
		ttfb = append(ttfb, ms(s.TTFB))
	}
	for _, s := range byName[spanRouter] {
		routerSelf = append(routerSelf, ms(self[s.ID]))
	}
	var nodeBytes int64
	for _, s := range byName[spanNode] {
		nodeBytes += s.Bytes
	}
	var requests, retries, resumes, bytes int64
	var stall, transferWait, gateWait time.Duration
	var demands, mispredicts, waits int
	var overlap float64
	var runs float64
	for _, s := range ws.samples {
		requests += s.fetch.Requests
		retries += s.fetch.Retries
		resumes += s.fetch.Resumes
		bytes += s.fetch.BytesTransferred
		if st := s.live; st != nil {
			runs++
			stall += st.StallTime
			for _, wt := range st.Waits {
				transferWait += wt.Transfer
				gateWait += wt.Gate
			}
			demands += st.DemandFetches
			mispredicts += st.Mispredicts
			waits += len(st.Waits)
			overlap += st.Overlap()
		}
	}
	per := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	perRun := func(x float64) float64 {
		if runs == 0 {
			return 0
		}
		return x / runs
	}
	m := map[string]metric{
		"fetch.requests_per_op": {per(float64(requests)), "count"},
		"fetch.ttfb_ms_p50":     {quantile(ttfb, 0.5), "ms"},
		"fetch.toc_ms_p50": {quantile(durs(spanClient, func(s *span) bool {
			return strings.HasSuffix(s.Path, ".toc")
		}), 0.5), "ms"},
		"fetch.bytes_per_op": {per(float64(bytes)), "B"},
		"fetch.retries":      {float64(retries), "count"},
		"fetch.resumes":      {float64(resumes), "count"},

		"router.ms_per_req_p50":      {quantile(durs(spanRouter, nil), 0.5), "ms"},
		"router.self_ms_per_req_p50": {quantile(routerSelf, 0.5), "ms"},
		"router.proxied":             {float64(d.router.Proxied), "count"},
		"router.failovers":           {float64(d.router.Failovers), "count"},

		"node.ms_per_req_p50":   {quantile(durs(spanNode, nil), 0.5), "ms"},
		"node.ms_per_req_p90":   {quantile(durs(spanNode, nil), 0.9), "ms"},
		"node.bytes_out_per_op": {per(float64(nodeBytes)), "B"},

		"cache.hit_ratio":          {ratio(d.cache.Hits, d.cache.Hits+d.cache.Misses), "ratio"},
		"cache.evictions_per_op":   {per(float64(d.cache.Evictions)), "count"},
		"cache.builds_per_op":      {per(float64(d.cache.Builds)), "count"},
		"cache.peer_fills_per_op":  {per(float64(d.cache.PeerFills)), "count"},
		"cache.build_ms_per_build": {1000 * safeDiv(d.cache.BuildSeconds, float64(d.cache.Builds)), "ms"},
		"cache.shed":               {float64(d.cache.Shed), "count"},

		"peerfill.ms_p50":    {quantile(durs(spanFill, nil), 0.5), "ms"},
		"peerfill.verify_ms": {pm.verifyMs, "ms"},
		"peerfill.fallbacks": {float64(d.fallbacks), "count"},

		"store.get_ms_p50": {pm.storeGetMs, "ms"},
		"store.put_ms":     {pm.storePutMs, "ms"},
		"store.open_ms":    {pm.storeOpenMs, "ms"},

		"loader.mb_per_s":               {pm.loaderMBps, "MB/s"},
		"loader.allocs_per_unit":        {pm.loaderAllocsPerUnit, "count"},
		"loader.crc_ms":                 {pm.crcMs, "ms"},
		"loader.verify_ms":              {pm.verifyLoaderMs, "ms"},
		"loader.rest_ms":                {pm.restMs, "ms"},
		"gate.stall_ms_per_run":         {perRun(ms(stall)), "ms"},
		"gate.transfer_wait_ms_per_run": {perRun(ms(transferWait)), "ms"},
		"gate.gate_wait_ms_per_run":     {perRun(ms(gateWait)), "ms"},
		"live.demand_fetches_per_run":   {perRun(float64(demands)), "count"},
		"live.mispredict_ratio":         {ratio(int64(mispredicts), int64(waits)), "ratio"},
		"live.overlap":                  {perRun(overlap), "ratio"},

		"vm.ns_per_step":   {pm.vmNsPerStep, "ns"},
		"vm.steps_per_run": {pm.vmStepsPerRun, "count"},

		"sim.pred_over_measured_p50": {simRatio(pm.simPredMs, rep.perApp), "ratio"},

		"proc.alloc_mb_per_op": {per(float64(ws.alloc) / 1e6), "MB"},
		"proc.allocs_per_op":   {per(float64(ws.mallocs)), "count"},
		"proc.gc_per_op":       {per(float64(ws.gcs)), "count"},
		"proc.heap_peak_mb":    {float64(ws.heapPeak) / 1e6, "MB"},
	}
	for stage, v := range pm.buildMs {
		m["build."+stage+"_ms"] = metric{v, "ms"}
	}
	m["build.allocs"] = metric{pm.buildAllocs, "count"}
	if b := rep.base; b != nil && b.cpuPerOp() > 0 {
		m["trace.overhead_frac"] = metric{ws.cpuPerOp()/b.cpuPerOp() - 1, "ratio"}
	} else {
		m["trace.overhead_frac"] = metric{0, "ratio"}
	}
	return m
}

// simRatio is the median over apps of the simulator's predicted
// invocation latency over the measured median; 0 when not predicted.
func simRatio(pred map[string]float64, apps map[string]appStats) float64 {
	var r []float64
	for a, p := range pred {
		if st, ok := apps[a]; ok && st.FirstCodeP50 > 0 {
			r = append(r, p/st.FirstCodeP50)
		}
	}
	return median(r)
}

// layerTable summarizes every span name: count, cut count, median
// duration and median self time. It goes to the report file.
func layerTable(spans []*span) map[string]map[string]float64 {
	self := selfTimes(spans)
	d := map[string][]float64{}
	st := map[string][]float64{}
	cut := map[string]float64{}
	for _, s := range spans {
		d[s.Name] = append(d[s.Name], ms(s.dur()))
		st[s.Name] = append(st[s.Name], ms(self[s.ID]))
		if s.Cut {
			cut[s.Name]++
		}
	}
	out := map[string]map[string]float64{}
	for name := range d {
		out[name] = map[string]float64{
			"count":       float64(len(d[name])),
			"cut":         cut[name],
			"ms_p50":      quantile(d[name], 0.5),
			"ms_p90":      quantile(d[name], 0.9),
			"self_ms_p50": quantile(st[name], 0.5),
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile (0 for no data): with 100
// samples the 0.9 quantile has 10 samples above it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b int64) float64 { return safeDiv(float64(a), float64(b)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeReport writes the full run report next to the spans.
func writeReport(c *config, rep *report) error {
	out := map[string]any{
		"config":     c,
		"result":     rep.result,
		"setup_s":    rep.setupS,
		"invariants": rep.invars,
		"per_app":    rep.perApp,
		"errors":     rep.errs,
		"window": map[string]any{
			"ops":           len(rep.window.samples),
			"elapsed_s":     rep.window.elapsed.Seconds(),
			"cpu_s":         rep.window.cpu.Seconds(),
			"ops_by_second": opsBySecond(rep.window.samples),
			"cache":         rep.window.counters.cache,
			"router":        rep.window.counters.router,
		},
	}
	if c.Trace {
		out["probes"] = rep.probes
		out["spans_file"] = rep.spanOut
		if spans := rep.spanSummary; spans != nil {
			out["layers"] = spans
		}
		if len(rep.simPredMs) > 0 {
			out["sim"] = map[string]any{
				"engine":                  "interleaved, train order, non-strict",
				"link":                    t1Sim.Name,
				"cycles_per_byte":         t1Sim.CyclesPerByte,
				"clock_hz":                paperHz,
				"conversion":              "193000 B/s at 500 MHz: 500e6/193e3 = 2590.7 cycles/byte, rounded to 2591; predicted ms = cycles / 500e6 * 1e3",
				"predicted_invocation_ms": rep.simPredMs,
			}
		}
	}
	return writeJSON(fmt.Sprintf("%s/report-%s-seed%d-trace%d.json", outDir, c.Workload, c.Seed, b2i(c.Trace)), out)
}

// opsBySecond counts the window's ops by the second they finished in,
// to show drift within a window.
func opsBySecond(samples []sample) []int {
	if len(samples) == 0 {
		return nil
	}
	t0 := samples[0].start
	for _, s := range samples {
		if s.start.Before(t0) {
			t0 = s.start
		}
	}
	var out []int
	for _, s := range samples {
		i := int(s.start.Add(s.dur).Sub(t0) / time.Second)
		for len(out) <= i {
			out = append(out, 0)
		}
		out[i]++
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printSummary writes a human-readable digest to w.
func printSummary(w io.Writer, c *config, rep *report) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v: %d ops, %d failed, correct=%v\n",
		c.Workload, c.Seed, c.Seconds, c.Trace, rep.result.Attempted, rep.result.Failed, rep.result.Correct)
	fmt.Fprintf(w, "  config: nodes=%d vnodes=%d ring_seed=%d order=%s link=%s cache_bytes=%d clients=%d (closed loop) warmup=%gs gomaxprocs=%d nproc=%d %s\n",
		c.Nodes, c.VNodes, c.RingSeed, c.Order, linkString(c.Link), c.CacheBytes, c.Clients, c.WarmupS, c.GOMAXPROCS, c.NumCPU, c.GoVersion)
	for _, k := range sortedKeys(rep.result.Metrics) {
		m := rep.result.Metrics[k]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, m.Value, m.Unit)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

func linkString(l linkEcho) string {
	if l.BandwidthBps == 0 {
		return l.Name
	}
	return fmt.Sprintf("%s(%dB/s rtt=%gms jitter=±%gms loss_every=%d scale=%g)",
		l.Name, l.BandwidthBps, l.RTTMs, l.JitterMs, l.LossEvery, l.Scale)
}
