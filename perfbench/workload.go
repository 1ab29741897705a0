package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/classfile"
	"nonstrict/internal/live"
	"nonstrict/internal/obs"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
	"nonstrict/internal/xrand"
)

// workload is one traffic mix over the serving path. See README.md for
// why each exists and which layers it exercises.
type workload struct {
	name   string
	remote bool              // live.Run through the router; else churn fetches
	link   *stream.LinkClass // client link shaping; nil = unshaped loopback
	order  string
}

var workloads = []workload{
	{name: "remote_fast", remote: true, order: server.OrderTrain},
	{name: "remote_t1", remote: true, link: &stream.LinkT1, order: server.OrderTrain},
	{name: "churn_build", order: server.OrderStatic},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cacheShare sizes each churn node's cache at 1/cacheShare of the
// working set, so most fetches of all but the hottest apps miss.
const cacheShare = 3

// Every client deals its apps from a deck of cards: a seeded shuffle,
// dealt out and reshuffled when it runs out. Every window then sees the
// same mix to within one deck, and the seed moves only the order.
// Independent draws would let the count of expensive ops, and with it
// the whole window, wander from seed to seed; one fixed permutation
// would fix which ops overlap across clients for the whole run.
//
// The decks give each app's card count. remoteDeck holds each app once
// and Hanoi twice: with six equal cards the median op would sit on the
// boundary between the three fast and the three slow apps and jump
// across that gap from run to run; with seven it falls inside one app's
// spread (or, for the run time on loopback, inside the tight cluster of
// the three fast apps). A second cheap card rather than a second slow
// one keeps remote_t1 at about 100 ops a window. churnDeck is a skewed
// popularity over Table 1 order, Zipf with s = 1 over 59 cards.
var (
	remoteDeck = map[string]int{"BIT": 1, "Hanoi": 2, "JavaCup": 1, "Jess": 1, "JHLZip": 1, "TestDes": 1}
	churnDeck  = map[string]int{"BIT": 24, "Hanoi": 12, "JavaCup": 8, "Jess": 6, "JHLZip": 5, "TestDes": 4}
)

// sample is one completed operation.
type sample struct {
	app   string
	start time.Time
	dur   time.Duration
	first time.Duration // entry method's first invocation, or first stream byte
	err   error
	live  *live.Stats // remote ops
	fetch stream.FetchStats
}

// client is one closed-loop caller: it issues its next operation only
// after the previous one completed.
type client struct {
	id   int
	rng  *xrand.Rand
	tr   *http.Transport
	http *http.Client
	fc   *stream.FetchClient // churn ops reuse one, like a long-lived balancer client
	deck []string            // the app deck being dealt
	next int
	out  []sample
}

// env is one set-up run: the topology plus its clients.
type env struct {
	w       workload
	c       *config
	topo    *topology
	tr      *tracer // nil in untraced runs
	apps    map[string]*apps.App
	clients []*client
	rr      atomic.Uint64 // churn: round-robin node choice
}

func newEnv(w workload, c *config, topo *topology, tr *tracer) *env {
	e := &env{w: w, c: c, topo: topo, tr: tr, apps: map[string]*apps.App{}}
	for _, a := range apps.All() {
		e.apps[a.Name] = a
	}
	for i := 0; i < c.Clients; i++ {
		cl := &client{id: i, rng: xrand.New(mix(c.Seed, uint64(i)+1))}
		var conns atomic.Uint64
		d := &net.Dialer{}
		cl.tr = &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := d.DialContext(ctx, network, addr)
				if err != nil || w.link == nil {
					return conn, err
				}
				return w.link.Shape(conn, mix(c.Seed, uint64(cl.id)<<32|conns.Add(1)), c.Link.Scale), nil
			},
			MaxIdleConnsPerHost: 4,
		}
		var rt http.RoundTripper = cl.tr
		if tr != nil {
			rt = &transport{t: tr, base: cl.tr, name: spanClient}
		}
		cl.http = &http.Client{Transport: rt}
		cl.fc = &stream.FetchClient{HTTP: cl.http, JitterSeed: mix(c.Seed, uint64(i)+101)}
		counts := churnDeck
		if w.remote {
			counts = remoteDeck
		}
		for _, name := range c.Apps {
			for k := 0; k < counts[name]; k++ {
				cl.deck = append(cl.deck, name)
			}
		}
		cl.next = len(cl.deck)
		e.clients = append(e.clients, cl)
	}
	return e
}

func (e *env) close() {
	for _, cl := range e.clients {
		cl.tr.CloseIdleConnections()
	}
	e.topo.close()
}

// window runs every client's closed loop until d has passed and returns
// the samples and the wall time from start until the last op finished.
func (e *env) window(ctx context.Context, d time.Duration) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, cl := range e.clients {
		cl.out = cl.out[:0]
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				cl.out = append(cl.out, e.op(ctx, cl))
			}
		}(cl)
	}
	wg.Wait()
	var all []sample
	for _, cl := range e.clients {
		all = append(all, cl.out...)
	}
	return all, time.Since(start)
}

func (e *env) op(ctx context.Context, cl *client) sample {
	if cl.next == len(cl.deck) {
		shuffle(cl.rng, cl.deck)
		cl.next = 0
	}
	app := cl.deck[cl.next]
	cl.next++
	if e.w.remote {
		return e.remoteOp(ctx, cl, e.apps[app])
	}
	node := int(e.rr.Add(1)-1) % len(e.topo.nodeURLs)
	return e.churnOp(ctx, cl, app, node)
}

// remoteOp runs one app's test input through the router while its bytes
// stream in, and passes only if the run passes the app's self-check.
func (e *env) remoteOp(ctx context.Context, cl *client, a *apps.App) sample {
	var op *span
	if e.tr != nil && e.tr.on.Load() {
		op = e.tr.start(spanOp, nil)
		op.Path = a.Name
		ctx = withSpan(ctx, op)
	}
	var rec *obs.Recorder
	var recBase time.Duration
	if op != nil {
		recBase = e.tr.now()
		rec = obs.NewRecorder(4096)
	}
	url := e.topo.routerURL + "/apps/" + a.Name + "/app"
	fc := &stream.FetchClient{HTTP: cl.http, JitterSeed: cl.rng.Uint64() | 1}
	s := sample{app: a.Name, start: time.Now()}
	var firstErr error
	m, st, err := live.Run(ctx, live.Options{
		URL:       url,
		TOCURL:    url + ".toc",
		Name:      a.Name,
		MainClass: a.IR.Main,
		Client:    fc,
		Obs:       rec,
		Run: vm.Options{
			Args: a.Args(false),
			OnFirstUse: func(ref classfile.Ref) {
				if s.first == 0 {
					s.first = time.Since(s.start)
					if ref.Class != a.IR.Main || ref.Name != "main" {
						firstErr = fmt.Errorf("first invocation was %s, not %s.main", ref, a.IR.Main)
					}
				}
			},
		},
	})
	if err == nil {
		err = a.Check(m, false)
		if err != nil {
			err = fmt.Errorf("%s self-check: %w", a.Name, err)
		}
	}
	if err == nil {
		err = firstErr
	}
	if err == nil && s.first == 0 {
		err = errors.New("entry method never invoked")
	}
	s.dur = time.Since(s.start)
	s.err, s.live = err, st
	s.fetch = fc.Stats()
	// Each op is a fresh program launch: it pays for its own connections
	// (on T1, its own round trip).
	cl.tr.CloseIdleConnections()
	if op != nil {
		e.tr.finish(op)
		for _, ev := range rec.Events() {
			if ev.Kind == obs.GateUnblock {
				at := recBase + ev.At
				e.tr.add(&span{Parent: op.ID, Op: op.ID, Name: spanGate, Path: ev.Name, Start: at - ev.Dur, End: at})
			}
		}
	}
	return s
}

// churnOp fetches one app's unit table and stream from one node, and
// passes only if the bytes re-derive the reference ETags from set-up.
func (e *env) churnOp(ctx context.Context, cl *client, app string, node int) sample {
	if e.tr != nil && e.tr.on.Load() {
		op := e.tr.start(spanOp, nil)
		op.Path, op.Node = app, e.topo.names[node]
		ctx = withSpan(ctx, op)
		defer e.tr.finish(op)
	}
	before := cl.fc.Stats()
	s := sample{app: app, start: time.Now()}
	s.err = e.fetchAndCheck(ctx, cl, app, e.topo.nodeURLs[node], &s)
	s.dur = time.Since(s.start)
	after := cl.fc.Stats()
	s.fetch = stream.FetchStats{
		Requests:         after.Requests - before.Requests,
		Retries:          after.Retries - before.Retries,
		Resumes:          after.Resumes - before.Resumes,
		BytesTransferred: after.BytesTransferred - before.BytesTransferred,
	}
	return s
}

func (e *env) fetchAndCheck(ctx context.Context, cl *client, app, base string, s *sample) error {
	url := base + "/apps/" + app + "/app"
	var toc, data bytes.Buffer
	if _, err := cl.fc.Fetch(ctx, url+".toc", &toc); err != nil {
		return err
	}
	r, err := cl.fc.Open(ctx, url)
	if err != nil {
		return err
	}
	s.first = time.Since(s.start)
	_, err = io.Copy(&data, r)
	r.Close()
	if err != nil {
		return err
	}
	return checkArtifact(e.topo.refs[app], data.Bytes(), toc.Bytes())
}

// checkArtifact re-verifies fetched bytes (unit table parses, every unit
// matches its checksum) and requires their re-derived ETags to equal
// the reference build's.
func checkArtifact(ref *server.Artifact, data, toc []byte) error {
	got, err := server.NewArtifact(ref.Key, data, toc)
	if err != nil {
		return err
	}
	if got.ETag != ref.ETag || got.TOCETag != ref.TOCETag {
		return fmt.Errorf("%s: fetched ETags %s/%s, reference %s/%s",
			ref.Key, got.ETag, got.TOCETag, ref.ETag, ref.TOCETag)
	}
	return nil
}

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](r *xrand.Rand, xs []T) {
	for j := len(xs) - 1; j > 0; j-- {
		k := r.Intn(j + 1)
		xs[j], xs[k] = xs[k], xs[j]
	}
}

// mix derives an independent, nonzero stream seed from the run seed.
func mix(seed, k uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 + k*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	if x == 0 {
		x = 1
	}
	return x
}
