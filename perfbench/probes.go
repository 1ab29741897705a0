package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/experiments"
	"nonstrict/internal/jir"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/transfer"
	"nonstrict/internal/verify"
	"nonstrict/internal/vm"
)

// probeMin is how long each layer probe repeats its op at least.
const probeMin = 150 * time.Millisecond

// paperHz is the paper's 500 MHz Alpha clock, which converts simulator
// cycles to seconds.
const paperHz = 500e6

// t1Sim is the T1 link class at its own bandwidth for the simulator:
// 193,000 B/s at 500 MHz is 500e6/193e3 = 2,590.7 cycles per byte
// (rounded to 2,591). transfer.T1's 3,815 cycles/byte is ~131 KB/s and
// would not describe the link remote_t1 actually shapes.
var t1Sim = transfer.Link{Name: "T1@193000B/s", CyclesPerByte: 2591}

// probeResult is one layer probe over the workload's own artifacts: op
// is "every app once", so per-app figures divide by Apps.
type probeResult struct {
	Name        string  `json:"name"`
	Apps        int     `json:"apps"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_alloc_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
}

func (p probeResult) msPerApp() float64 { return p.NsPerOp / 1e6 / float64(p.Apps) }

// probe times fn (one op) until probeMin has passed, at least three
// times, with allocation counts from the runtime. dataBytes is the
// payload one op processes, for MB/s.
func probe(name string, napps int, dataBytes int64, fn func() error) (probeResult, error) {
	if err := fn(); err != nil { // warm, and fail fast
		return probeResult{}, fmt.Errorf("%s: %w", name, err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < probeMin {
		if err := fn(); err != nil {
			return probeResult{}, fmt.Errorf("%s: %w", name, err)
		}
		n++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	p := probeResult{
		Name:        name,
		Apps:        napps,
		Iterations:  n,
		NsPerOp:     float64(el.Nanoseconds()) / float64(n),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(n),
	}
	if dataBytes > 0 {
		p.MBPerS = float64(dataBytes) / 1e6 / (p.NsPerOp / 1e9)
	}
	return p, nil
}

// probeMetrics is what the per-layer table takes from the probes.
type probeMetrics struct {
	buildMs             map[string]float64 // per stage, ms per app
	buildAllocs         float64            // allocations per server.Build
	loaderMBps          float64
	loaderAllocsPerUnit float64
	crcMs               float64 // per app
	verifyLoaderMs      float64
	restMs              float64
	verifyMs            float64 // server.NewArtifact, per artifact
	storeOpenMs         float64
	storeGetMs          float64
	storePutMs          float64
	vmNsPerStep         float64
	vmStepsPerRun       float64
	simPredMs           map[string]float64 // remote_t1: predicted invocation latency per app
}

// stageInputs holds one app's pipeline products, stage by stage.
type stageInputs struct {
	app   *apps.App
	prog  *classfile.Program
	ix    *classfile.Index
	order *reorder.Order
	rp    *classfile.Program
	data  []byte
	toc   []byte
	units []stream.UnitInfo
	bench *experiments.Bench // train order only
}

// runProbes measures each layer on the artifacts the workload serves.
// It runs after the traced window, never inside a timed one.
func runProbes(ctx context.Context, w workload, c *config) ([]probeResult, probeMetrics, error) {
	pm := probeMetrics{buildMs: map[string]float64{}, simPredMs: map[string]float64{}}
	all := apps.All()
	na := len(all)
	in := make([]*stageInputs, na)
	var streamBytes, units int64
	for i, a := range all {
		s, err := prepare(ctx, a, c.Order)
		if err != nil {
			return nil, pm, err
		}
		in[i] = s
		streamBytes += int64(len(s.data))
		units += int64(len(s.units))
	}
	var out []probeResult
	add := func(p probeResult, err error) (probeResult, error) {
		if err == nil {
			out = append(out, p)
		}
		return p, err
	}
	each := func(f func(*stageInputs) error) func() error {
		return func() error {
			for _, s := range in {
				if err := f(s); err != nil {
					return err
				}
			}
			return nil
		}
	}

	// Build stages, in server.Build's order.
	stages := []struct {
		name string
		fn   func(*stageInputs) error
	}{
		{"compile", func(s *stageInputs) error { _, err := jir.Compile(s.app.IR); return err }},
		{"cfg", func(s *stageInputs) error { _, err := cfg.BuildAll(s.prog.IndexMethods()); return err }},
		{"order", func(s *stageInputs) error { _, err := predict(ctx, s, c.Order); return err }},
		{"restructure", func(s *stageInputs) error { restructure.Apply(s.prog, s.ix, s.order); return nil }},
		{"write", func(s *stageInputs) error { _, err := writeStream(s); return err }},
		{"toc", func(s *stageInputs) error {
			wr, err := stream.NewWriter(s.rp, s.ix, s.order)
			if err == nil {
				_, err = stream.MarshalTOC(wr.TOC())
			}
			return err
		}},
		{"etag", func(s *stageInputs) error { sha256.Sum256(s.data); sha256.Sum256(s.toc); return nil }},
	}
	for _, st := range stages {
		p, err := add(probe("build."+st.name, na, 0, each(st.fn)))
		if err != nil {
			return nil, pm, err
		}
		pm.buildMs[st.name] = p.msPerApp()
	}
	p, err := add(probe("build.total", na, 0, each(func(s *stageInputs) error {
		_, err := server.Build(ctx, server.Key{App: s.app.Name, Order: c.Order})
		return err
	})))
	if err != nil {
		return nil, pm, err
	}
	pm.buildAllocs = p.AllocsPerOp / float64(na)

	// Loader: the whole Load, then its CRC and verify shares.
	load, err := add(probe("loader.load", na, streamBytes, each(func(s *stageInputs) error {
		return stream.NewLoader(s.app.Name, s.app.IR.Main, nil).Load(bytes.NewReader(s.data), nil)
	})))
	if err != nil {
		return nil, pm, err
	}
	pm.loaderMBps = load.MBPerS
	pm.loaderAllocsPerUnit = load.AllocsPerOp / float64(units)
	crc, err := add(probe("loader.crc", na, streamBytes, each(func(s *stageInputs) error {
		for _, u := range s.units {
			if stream.ChecksumPayload(s.data[u.Off:u.Off+int64(u.Len)]) != u.CRC {
				return fmt.Errorf("%s: unit at %d fails its checksum", s.app.Name, u.Off)
			}
		}
		return nil
	})))
	if err != nil {
		return nil, pm, err
	}
	loaded := make([]*classfile.Program, na)
	for i, s := range in {
		l := stream.NewLoader(s.app.Name, s.app.IR.Main, nil)
		if err := l.Load(bytes.NewReader(s.data), nil); err != nil {
			return nil, pm, err
		}
		if loaded[i], err = l.Program(); err != nil {
			return nil, pm, err
		}
	}
	ver, err := add(probe("loader.verify", na, 0, func() error {
		for _, p := range loaded {
			for _, cl := range p.Classes {
				if err := verify.VerifyGlobal(cl); err != nil {
					return err
				}
				for _, m := range cl.Methods {
					if err := verify.VerifyMethod(cl, m, nil); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}))
	if err != nil {
		return nil, pm, err
	}
	pm.crcMs, pm.verifyLoaderMs = crc.msPerApp(), ver.msPerApp()
	pm.restMs = load.msPerApp() - pm.crcMs - pm.verifyLoaderMs

	// Peer-fill verification.
	p, err = add(probe("peerfill.new_artifact", na, streamBytes, each(func(s *stageInputs) error {
		_, err := server.NewArtifact(server.Key{App: s.app.Name, Order: c.Order}, s.data, s.toc)
		return err
	})))
	if err != nil {
		return nil, pm, err
	}
	pm.verifyMs = p.msPerApp()

	// DiskStore: Put into, reopen, and Get from a scratch store.
	if err := storeProbes(in, c, &pm, add); err != nil {
		return nil, pm, err
	}

	// VM: link locally once, then run the test input.
	lns := make([]*vm.Linked, na)
	for i, s := range in {
		if lns[i], err = vm.Link(s.prog); err != nil {
			return nil, pm, err
		}
	}
	var steps int64
	vmp, err := add(probe("vm.run", na, 0, func() error {
		steps = 0
		for i, s := range in {
			m, err := lns[i].Run(vm.Options{Args: s.app.Args(false)})
			if err != nil {
				return err
			}
			if err := s.app.Check(m, false); err != nil {
				return err
			}
			steps += m.Steps()
		}
		return nil
	}))
	if err != nil {
		return nil, pm, err
	}
	pm.vmNsPerStep = vmp.NsPerOp / float64(steps)
	pm.vmStepsPerRun = float64(steps) / float64(na)

	if w.link != nil && w.remote {
		for _, s := range in {
			res, err := s.bench.Simulate(experiments.Variant{
				Order: experiments.Train, Engine: experiments.Interleaved, Mode: transfer.NonStrict, Link: t1Sim,
			})
			if err != nil {
				return nil, pm, err
			}
			pm.simPredMs[s.app.Name] = float64(res.InvocationLatency) / paperHz * 1e3
		}
	}
	return out, pm, nil
}

func storeProbes(in []*stageInputs, c *config, pm *probeMetrics, add func(probeResult, error) (probeResult, error)) error {
	dir, err := os.MkdirTemp(outDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	arts := make([]*server.Artifact, len(in))
	for i, s := range in {
		if arts[i], err = server.NewArtifact(server.Key{App: s.app.Name, Order: c.Order}, s.data, s.toc); err != nil {
			return err
		}
	}
	ds, err := server.OpenDiskStore(filepath.Join(dir, "s"))
	if err != nil {
		return err
	}
	put, err := add(probe("store.put", len(in), 0, func() error {
		for _, a := range arts {
			if err := ds.Put(a); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	open, err := add(probe("store.open", 1, 0, func() error {
		_, err := server.OpenDiskStore(filepath.Join(dir, "s"))
		return err
	}))
	if err != nil {
		return err
	}
	var gets []float64
	if _, err := add(probe("store.get", len(in), 0, func() error {
		for _, a := range arts {
			t0 := time.Now()
			if _, err := ds.Get(a.Key); err != nil {
				return err
			}
			gets = append(gets, ms(time.Since(t0)))
		}
		return nil
	})); err != nil {
		return err
	}
	pm.storePutMs = put.msPerApp()
	pm.storeOpenMs = open.msPerApp()
	pm.storeGetMs = quantile(gets, 0.5)
	return nil
}

// prepare runs one app's pipeline under order once, keeping each stage's
// product for the stage probes.
func prepare(ctx context.Context, a *apps.App, order string) (*stageInputs, error) {
	s := &stageInputs{app: a}
	var err error
	if s.prog, err = jir.Compile(a.IR); err != nil {
		return nil, err
	}
	if s.order, err = predict(ctx, s, order); err != nil {
		return nil, err
	}
	s.rp = restructure.Apply(s.prog, s.ix, s.order)
	if s.data, err = writeStream(s); err != nil {
		return nil, err
	}
	wr, err := stream.NewWriter(s.rp, s.ix, s.order)
	if err != nil {
		return nil, err
	}
	s.units = wr.TOC()
	if s.toc, err = stream.MarshalTOC(s.units); err != nil {
		return nil, err
	}
	return s, nil
}

// predict is server.Build's order stage: the static call-graph estimate
// for scg, or the profile-guided train order, whose cost includes the
// profiling runs. It sets s.ix (and s.bench for train) as a side effect.
func predict(ctx context.Context, s *stageInputs, order string) (*reorder.Order, error) {
	switch order {
	case server.OrderStatic:
		s.ix = s.prog.IndexMethods()
		graphs, err := cfg.BuildAll(s.ix)
		if err != nil {
			return nil, err
		}
		return reorder.Static(s.ix, graphs)
	case server.OrderTrain:
		b, err := experiments.LoadCtx(ctx, s.app)
		if err != nil {
			return nil, err
		}
		ord, _, _, _ := b.Prepared(experiments.Train)
		s.prog, s.ix, s.bench = b.Prog, b.Ix, b
		return ord, nil
	}
	return nil, fmt.Errorf("no probe for order %q", order)
}

func writeStream(s *stageInputs) ([]byte, error) {
	wr, err := stream.NewWriter(s.rp, s.ix, s.order)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(int(wr.Size()))
	if _, err := wr.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
