package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries "<op>.<span>" across an HTTP hop. The router does
// not forward unknown headers, so each hop re-derives it: a handler
// wrapper reads it into the request context, and the transport wrapper
// on the next outbound request writes it back from that context.
const spanHeader = "X-Perfbench-Span"

// Span names, one per layer boundary the benchmark wraps.
const (
	spanOp       = "op"          // one benchmark operation (client root)
	spanClient   = "client.http" // the client's FetchClient transport
	spanRouter   = "router"      // Router.ServeHTTP
	spanUpstream = "router.http" // RouterConfig.Client transport
	spanNode     = "node"        // Node.Handler()
	spanFill     = "peerfill"    // one peer fill (unit table + stream)
	spanPeer     = "peer.http"   // NodeConfig.Client transport
	spanGate     = "gate"        // a first invocation blocked at the gate
)

// span is one timed interval at a layer boundary. Times are offsets
// from the tracer's base. Op is the ID of the root span of the
// operation that caused it (0 when no cause could be found).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Op     uint64        `json:"op"`
	Name   string        `json:"name"`
	Node   string        `json:"node,omitempty"`
	Path   string        `json:"path,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// TTFB is the time to response headers, for transport spans.
	TTFB  time.Duration `json:"ttfb_ns,omitempty"`
	Bytes int64         `json:"bytes,omitempty"`
	// Last is when a handler span began its final body write. The reader
	// of the response can finish no earlier, while the handler's own
	// return may come later than that.
	Last time.Duration `json:"last_write_ns,omitempty"`
	// Cut marks a span whose request was canceled before it ended: its
	// caller gave up on it (live.Run cancels a demand fetch still in
	// flight when the run returns), so it may end after its parent.
	Cut bool `json:"cut,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// done is the latest point the span's parent must outlast: for a handler
// span, the start of its final write, which is causally before the
// parent reads the last byte; otherwise the span's end.
func (s *span) done() time.Duration {
	if s.Last > 0 {
		return s.Last
	}
	return s.End
}

// tracer keeps spans in memory while on is set; the wrappers are pass-
// through otherwise. Untraced runs install no wrappers at all.
type tracer struct {
	base time.Time
	on   atomic.Bool
	next atomic.Uint64

	mu    sync.Mutex
	spans []*span
	// open node spans per "node|app": a peer fill runs detached from
	// the request context, inside the cache's singleflight, so it
	// attaches to the earliest open node span for its key.
	open  map[string][]*span
	fills map[string]*span // open peer fill per "node|app"
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), open: map[string][]*span{}, fills: map[string]*span{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.base) }

// start opens a span under parent (nil makes a root: its own op).
func (t *tracer) start(name string, parent *span) *span {
	s := &span{ID: t.next.Add(1), Name: name, Start: t.now()}
	if parent == nil {
		s.Op = s.ID
	} else {
		s.Parent, s.Op = parent.ID, parent.Op
	}
	return s
}

// finish closes s and keeps it.
func (t *tracer) finish(s *span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add keeps a span whose interval was measured elsewhere.
func (t *tracer) add(s *span) {
	s.ID = t.next.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans kept so far and forgets them.
func (t *tracer) take() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) *span {
	s, _ := ctx.Value(spanKey{}).(*span)
	return s
}

func headerOf(s *span) string { return fmt.Sprintf("%d.%d", s.Op, s.ID) }

// parseHeader returns the remote parent named by a span header as a
// stub span carrying only its IDs.
func parseHeader(h string) *span {
	op, id, ok := strings.Cut(h, ".")
	if !ok {
		return nil
	}
	o, err1 := strconv.ParseUint(op, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return nil
	}
	return &span{ID: i, Op: o}
}

// appOf extracts the app name from an artifact path.
func appOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/apps/")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(rest, "/")
	return name
}

// handler wraps one server-side layer: it opens a span whose parent is
// the span named in the request header and hands it on through the
// request context.
func (t *tracer) handler(name, node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := t.start(name, parseHeader(r.Header.Get(spanHeader)))
		s.Node, s.Path = node, r.URL.Path
		key := node + "|" + appOf(r.URL.Path)
		if name == spanNode {
			t.mu.Lock()
			t.open[key] = append(t.open[key], s)
			t.mu.Unlock()
		}
		cw := &countingWriter{ResponseWriter: w, now: t.now}
		// Deferred: the router aborts a response by panicking with
		// http.ErrAbortHandler, and the span must still close.
		defer func() {
			s.Bytes, s.Last, s.Cut = cw.n, cw.last, r.Context().Err() != nil
			if name == spanNode {
				t.mu.Lock()
				open := t.open[key]
				for i, o := range open {
					if o == s {
						t.open[key] = append(open[:i:i], open[i+1:]...)
						break
					}
				}
				t.mu.Unlock()
			}
			t.finish(s)
		}()
		h.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), s)))
	})
}

// countingWriter counts body bytes, notes when the last write began,
// and keeps the Flusher the router's per-chunk streaming relies on.
type countingWriter struct {
	http.ResponseWriter
	now  func() time.Duration
	n    int64
	last time.Duration
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.last = c.now()
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// transport wraps one client-side layer. Its span's parent comes from
// the request context; for a peer fill (node != ""), which has none, it
// comes from the node span that caused the fill.
type transport struct {
	t    *tracer
	base http.RoundTripper
	name string
	node string
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tr.t
	if !t.on.Load() {
		return tr.base.RoundTrip(req)
	}
	parent := spanFrom(req.Context())
	var fill *span
	if parent == nil && tr.node != "" {
		fill = t.fillFor(tr.node, req.URL.Path)
		parent = fill
	}
	s := t.start(tr.name, parent)
	s.Node, s.Path = tr.node, req.URL.Path
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, headerOf(s))
	resp, err := tr.base.RoundTrip(req)
	s.TTFB = t.now() - s.Start
	done := func(n int64) {
		s.Bytes, s.Cut = n, req.Context().Err() != nil
		t.finish(s)
		// The stream request is the second of a fill's two.
		if fill != nil && !strings.HasSuffix(req.URL.Path, ".toc") {
			t.endFill(tr.node, req.URL.Path, fill)
		}
	}
	if err != nil {
		done(0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

// fillFor returns the open peer-fill span for (node, app), opening one
// under the earliest open node span for that key — the singleflight
// leader whose miss started the fill.
func (t *tracer) fillFor(node, path string) *span {
	key := node + "|" + appOf(path)
	t.mu.Lock()
	defer t.mu.Unlock()
	if f := t.fills[key]; f != nil {
		return f
	}
	var leader *span
	for _, s := range t.open[key] {
		if leader == nil || s.Start < leader.Start {
			leader = s
		}
	}
	f := &span{ID: t.next.Add(1), Name: spanFill, Node: node, Path: "/apps/" + appOf(path), Start: t.now()}
	if leader != nil {
		f.Parent, f.Op = leader.ID, leader.Op
	}
	t.fills[key] = f
	return f
}

func (t *tracer) endFill(node, path string, f *span) {
	key := node + "|" + appOf(path)
	t.mu.Lock()
	if t.fills[key] == f {
		delete(t.fills, key)
	}
	t.mu.Unlock()
	t.finish(f)
}

// spanBody ends its span when the body is drained or closed.
type spanBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// selfTimes returns each span's duration minus the part of it its
// children cover, by span ID.
func selfTimes(spans []*span) map[uint64]time.Duration {
	kids := map[uint64][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, kids []*span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// checkNesting returns an error naming the first span that has a
// parent in spans and does not lie inside it: it must start after its
// parent starts, and be done (see span.done) before its parent ends. A
// cut span may end any time after its parent.
func checkNesting(spans []*span) error {
	byID := make(map[uint64]*span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if s.Start < p.Start || (!s.Cut && s.done() > p.End) {
			return fmt.Errorf("span %d %s [%v,%v] lies outside its parent %d %s [%v,%v]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if s.Op != p.Op {
			return fmt.Errorf("span %d %s has op %d, its parent %d has op %d", s.ID, s.Name, s.Op, p.ID, p.Op)
		}
	}
	return nil
}
