// Package server is the multi-tenant non-strict code server: it serves
// every registered benchmark as an interleaved virtual file under
// /apps/{name}/app (with its unit table at /apps/{name}/app.toc),
// backed by a content-addressed artifact cache. The expensive
// compile → predict → restructure → serialize pipeline runs exactly
// once per (app, order-policy) key — concurrent cold requests
// singleflight onto one build — and the hot byte-serving path is
// allocation-light: every response streams slices of the same immutable
// cached arrays, validated by content-addressed ETags so repeat clients
// revalidate to 304 and pay nothing at all.
//
// Layering, outermost first: request counting (so /metrics sees every
// body byte that went on the wire, faults included) wraps the fault
// layer (so chaos schedules apply to cache hits exactly as to cold
// builds) wraps the cached app mux. /metrics and /debug/vars sit
// outside both — the instruments watching a chaos run must never be
// corrupted by it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/experiments"
	"nonstrict/internal/jir"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/stream"
)

// Order policies: how the served stream is restructured. The policy is
// part of the cache key — each policy is a distinct artifact.
const (
	// OrderStatic is the §4.1 static call-graph first-use prediction:
	// computable from the program alone, no profiling run.
	OrderStatic = "scg"
	// OrderTrain and OrderTest are the §4.2 profile-guided predictions;
	// building them executes the benchmark on the corresponding input,
	// which is exactly the kind of cost the cache exists to pay once.
	OrderTrain = "train"
	OrderTest  = "test"
)

// Config configures one code server.
type Config struct {
	// Apps is the benchmark names to mount under /apps/{name}/...; nil
	// mounts every registered benchmark.
	Apps []string
	// DefaultApp, when set, additionally aliases /app and /app.toc to
	// the named benchmark — the single-tenant paths older clients use.
	DefaultApp string
	// Order is the restructuring policy (OrderStatic, OrderTrain,
	// OrderTest); empty means OrderStatic.
	Order string
	// CacheBytes bounds the artifact cache (0 = DefaultCacheBytes).
	CacheBytes int64
	// Rate throttles stream bodies to N bytes/second (0 = unthrottled).
	Rate int
	// Fault is the chaos layer wrapped around every app request —
	// including cache hits. The zero value injects nothing.
	Fault stream.Fault
	// StoreDir, when set, backs the cache with a crash-safe DiskStore at
	// that directory: builds are written through, misses consult it, and
	// a restarted server on the same directory serves byte-identical
	// artifacts without rebuilding.
	StoreDir string
	// Store, when non-nil, backs the cache directly (overrides
	// StoreDir). Tests use it to inject crash hooks.
	Store Store
	// Admit is the overload policy (see AdmitConfig); the zero value
	// disables admission control.
	Admit AdmitConfig
	// Build, when non-nil, replaces the default artifact pipeline (the
	// package-level Build) as the cache's miss path. Cluster nodes use it
	// to peer-fill keys owned by another shard instead of rebuilding
	// locally; everything downstream — singleflight, admission, store
	// write-through — applies to the override exactly as to real builds.
	Build func(ctx context.Context, k Key) (*Artifact, error)
}

// Server serves restructured virtual files for many apps from one
// artifact cache.
type Server struct {
	order    string
	rate     int
	apps     []string
	mounted  map[string]bool
	cache    *Cache
	store    Store
	metrics  *Metrics
	handler  http.Handler
	draining atomic.Bool
}

// New builds a server. The cache starts cold; use Warm to prebuild.
func New(c Config) (*Server, error) {
	switch c.Order {
	case "":
		c.Order = OrderStatic
	case OrderStatic, OrderTrain, OrderTest:
	default:
		return nil, fmt.Errorf("server: unknown order policy %q (want %s, %s, or %s)",
			c.Order, OrderStatic, OrderTrain, OrderTest)
	}
	names := c.Apps
	if names == nil {
		for _, a := range apps.All() {
			names = append(names, a.Name)
		}
	}
	s := &Server{
		order:   c.Order,
		rate:    c.Rate,
		apps:    names,
		mounted: make(map[string]bool, len(names)),
	}
	for _, n := range names {
		if _, err := apps.ByName(n); err != nil {
			return nil, err
		}
		s.mounted[n] = true
	}
	if c.DefaultApp != "" && !s.mounted[c.DefaultApp] {
		if _, err := apps.ByName(c.DefaultApp); err != nil {
			return nil, err
		}
		s.apps = append(s.apps, c.DefaultApp)
		s.mounted[c.DefaultApp] = true
	}
	build := Build
	if c.Build != nil {
		build = c.Build
	}
	s.cache = NewCache(c.CacheBytes, build)
	s.cache.Admit = c.Admit
	switch {
	case c.Store != nil:
		s.store = c.Store
	case c.StoreDir != "":
		ds, err := OpenDiskStore(c.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = ds
	}
	s.cache.Store = s.store
	s.metrics = newMetrics(s.cache)
	s.metrics.store = s.store
	s.metrics.draining = &s.draining

	mux := http.NewServeMux()
	mux.HandleFunc("/apps", s.handleIndex)
	mux.HandleFunc("/apps/{name}/app", func(w http.ResponseWriter, r *http.Request) {
		s.serveArtifact(w, r, r.PathValue("name"), false)
	})
	mux.HandleFunc("/apps/{name}/app.toc", func(w http.ResponseWriter, r *http.Request) {
		s.serveArtifact(w, r, r.PathValue("name"), true)
	})
	if c.DefaultApp != "" {
		mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
			s.serveArtifact(w, r, c.DefaultApp, false)
		})
		mux.HandleFunc("/app.toc", func(w http.ResponseWriter, r *http.Request) {
			s.serveArtifact(w, r, c.DefaultApp, true)
		})
	}
	fault := c.Fault
	fault.Counters = s.metrics.faults
	outer := http.NewServeMux()
	outer.Handle("/metrics", s.metrics.handler())
	outer.Handle("/debug/vars", expvarHandler())
	// Liveness vs readiness: /healthz answers 200 for as long as the
	// process can answer at all (a draining server is alive); /readyz
	// flips to 503 the moment drain begins, so load balancers stop
	// routing new work while in-flight streams finish. Both sit outside
	// the fault layer — probes must never be chaos-injected.
	outer.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	outer.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	outer.Handle("/", s.metrics.wrap(fault.Wrap(mux)))
	s.handler = outer
	publishExpvars(s.metrics)
	return s, nil
}

// Handler returns the server's root handler, ready to mount in an
// http.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// Apps returns the mounted benchmark names.
func (s *Server) Apps() []string { return append([]string(nil), s.apps...) }

// Order returns the active order policy.
func (s *Server) Order() string { return s.order }

// CacheStats snapshots the artifact cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Warm builds (or finds) the named app's artifact and returns its stream
// size — the serve command uses it to prebuild its default app so the
// first real client never pays the cold build.
func (s *Server) Warm(ctx context.Context, name string) (int64, error) {
	if !s.mounted[name] {
		return 0, fmt.Errorf("server: app %q is not mounted", name)
	}
	art, _, err := s.cache.Get(ctx, Key{App: name, Order: s.order})
	if err != nil {
		return 0, err
	}
	return int64(len(art.Data)), nil
}

// serveArtifact is the hot path: resolve the artifact (cache hit in the
// steady state), set the content-addressed validators, and stream the
// shared immutable bytes. http.ServeContent supplies Range (206) and
// If-None-Match (304) handling against the reader and ETag we hand it.
func (s *Server) serveArtifact(w http.ResponseWriter, r *http.Request, name string, toc bool) {
	if !s.mounted[name] {
		http.NotFound(w, r)
		return
	}
	k := Key{App: name, Order: s.order}
	// Range requests are demand fetches: the client is executing and
	// stalled on exactly these bytes, so they take the priority lane
	// through build admission.
	priority := r.Header.Get("Range") != ""
	if s.draining.Load() && s.cache.Peek(k) == nil {
		// Draining: finish what is resident, start nothing new. A build
		// begun now could outlive the drain deadline and be cut anyway.
		shedResponse(w, time.Second)
		return
	}
	get := s.cache.Get
	if priority {
		get = s.cache.GetPriority
	}
	art, _, err := get(r.Context(), k)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nothing useful to write
		}
		var shed *ShedError
		if errors.As(err, &shed) {
			shedResponse(w, shed.RetryAfter)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data, etag, ctype := art.Data, art.ETag, "application/octet-stream"
	if toc {
		data, etag, ctype = art.TOC, art.TOCETag, "application/json"
	}
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", "public, max-age=31536000, immutable")
	h.Set("Content-Type", ctype)
	// A one-chunk burst lets the first chunk out at once; every later
	// chunk waits out the one before it.
	const chunk = 512
	rw := stream.PaceResponse(r.Context(), w, stream.NewPacer(float64(s.rate), chunk), chunk)
	http.ServeContent(rw, r, "", time.Time{}, bytes.NewReader(data))
}

// shedResponse writes the load-shedding answer: 503 with a Retry-After
// hint (whole seconds, rounded up, at least 1) that FetchClient honors
// in place of its computed backoff.
func shedResponse(w http.ResponseWriter, after time.Duration) {
	secs := int((after + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "server overloaded; retry later", http.StatusServiceUnavailable)
}

// BeginDrain flips the server into drain mode: /readyz starts failing,
// and app requests that would need a build are shed — only resident
// artifacts are served while in-flight streams finish. It is
// irreversible for the life of the process and safe to call more than
// once.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ActiveStreams reports app-request bodies currently being written —
// the streams a drain is waiting on.
func (s *Server) ActiveStreams() int64 { return s.metrics.activeStreams.Load() }

// Requests reports the total requests counted so far.
func (s *Server) Requests() int64 { return s.metrics.Requests() }

// Store returns the persistent artifact store backing the cache, or nil.
func (s *Server) Store() Store { return s.store }

// PersistManifest writes the store's manifest (an inventory of intact
// entries) when the store supports it; servers call it at drain time so
// an operator can audit what a dead node had. It is advisory — the
// store's per-entry headers, not the manifest, are the source of truth
// on reopen.
func (s *Server) PersistManifest() error {
	type manifester interface{ WriteManifest() error }
	if m, ok := s.store.(manifester); ok {
		return m.WriteManifest()
	}
	return nil
}

// appStatus is one row of the /apps index.
type appStatus struct {
	Name  string `json:"name"`
	Order string `json:"order"`
	// Built reports whether the artifact is resident right now; Size,
	// Units, and ETag are present only when it is.
	Built bool   `json:"built"`
	Size  int64  `json:"size,omitempty"`
	Units int    `json:"units,omitempty"`
	ETag  string `json:"etag,omitempty"`
	URL   string `json:"url"`
}

// handleIndex lists the mounted apps and their cache residency as JSON —
// the discovery endpoint for multi-tenant clients.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	out := make([]appStatus, 0, len(s.apps))
	for _, n := range s.apps {
		st := appStatus{Name: n, Order: s.order, URL: "/apps/" + n + "/app"}
		if art := s.cache.Peek(Key{App: n, Order: s.order}); art != nil {
			st.Built = true
			st.Size = int64(len(art.Data))
			st.Units = art.Units
			st.ETag = art.ETag
		}
		out = append(out, st)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// Build runs the full artifact pipeline for one key: compile the app,
// predict its first-use order under the key's policy, restructure,
// serialize the interleaved stream, and precompute the marshaled unit
// table and content-addressed validators. This is the expensive function
// the cache exists to run exactly once per key.
func Build(ctx context.Context, k Key) (*Artifact, error) {
	app, err := apps.ByName(k.App)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var (
		rp *classfile.Program
		ix *classfile.Index
		o  *reorder.Order
	)
	switch k.Order {
	case OrderStatic:
		prog, err := jir.Compile(app.IR)
		if err != nil {
			return nil, err
		}
		ix = prog.IndexMethods()
		graphs, err := cfg.BuildAll(ix)
		if err != nil {
			return nil, err
		}
		if o, err = reorder.Static(ix, graphs); err != nil {
			return nil, err
		}
		rp = restructure.Apply(prog, ix, o)
	case OrderTrain, OrderTest:
		b, err := experiments.LoadCtx(ctx, app)
		if err != nil {
			return nil, err
		}
		kind := experiments.Train
		if k.Order == OrderTest {
			kind = experiments.Test
		}
		ord, prepared, _, _ := b.Prepared(kind)
		o, rp, ix = ord, prepared, b.Ix
	default:
		return nil, fmt.Errorf("server: unknown order policy %q", k.Order)
	}
	w, err := stream.NewWriter(rp, ix, o)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(int(w.Size()))
	if _, err := w.WriteTo(&buf); err != nil {
		return nil, err
	}
	toc, err := stream.MarshalTOC(w.TOC())
	if err != nil {
		return nil, err
	}
	data := buf.Bytes()
	return &Artifact{
		Key:       k,
		Data:      data,
		TOC:       toc,
		ETag:      etagFor(data),
		TOCETag:   etagFor(toc),
		Units:     w.Units(),
		BuildTime: time.Since(start),
	}, nil
}

// NewArtifact assembles a servable Artifact from raw stream and unit-
// table bytes obtained outside the local build pipeline — the cluster
// peer-fill path. Trust is re-established locally, not inherited from
// the wire: the unit table must parse and describe in-bounds ranges,
// and every unit's payload must match its table checksum, so a
// truncated, corrupted, or substituted transfer can never be published
// to clients or persisted to the store. The validators are re-derived
// from the verified bytes; because builds are deterministic per key,
// they equal the owner's ETags, which is what lets a client resume a
// stream across nodes with If-Range.
func NewArtifact(k Key, data, toc []byte) (*Artifact, error) {
	units, err := stream.ParseTOC(toc)
	if err != nil {
		return nil, fmt.Errorf("server: artifact %s: %w", k, err)
	}
	for i, u := range units {
		end := u.Off + int64(u.Len)
		if u.Off < 0 || end > int64(len(data)) {
			return nil, fmt.Errorf("server: artifact %s: unit %d range [%d,%d) outside %d stream bytes",
				k, i, u.Off, end, len(data))
		}
		if got := stream.ChecksumPayload(data[u.Off:end]); got != u.CRC {
			return nil, fmt.Errorf("server: artifact %s: unit %d checksum %08x, table promised %08x",
				k, i, got, u.CRC)
		}
	}
	return &Artifact{
		Key:     k,
		Data:    data,
		TOC:     toc,
		ETag:    etagFor(data),
		TOCETag: etagFor(toc),
		Units:   len(units),
	}, nil
}
