package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"nonstrict/internal/apps"
	"nonstrict/internal/cluster"
	"nonstrict/internal/server"
)

// topology is the serving path one run drives: nodes on loopback
// listeners, and for the remote workloads a router in front of them.
type topology struct {
	names     []string
	nodes     []*cluster.Node
	nodeURLs  []string
	router    *cluster.Router
	routerURL string
	refs      map[string]*server.Artifact // by app, from a local build

	srvs []*http.Server
	wg   sync.WaitGroup
}

// boot builds the topology for w. Everything it does is set-up: the
// reference builds, node and router start, and the prewarm of the remote
// workloads' cluster.
func boot(ctx context.Context, w workload, c *config, tr *tracer) (*topology, error) {
	t := &topology{refs: map[string]*server.Artifact{}}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	if !w.remote {
		// The churn ops check their bytes against these, and the caches
		// are sized against their total.
		for _, a := range c.Apps {
			art, err := server.Build(ctx, server.Key{App: a, Order: c.Order})
			if err != nil {
				return nil, fmt.Errorf("reference build of %s: %w", a, err)
			}
			t.refs[a] = art
		}
		c.CacheBytes = workingSet(t.refs) / cacheShare
	}

	t.names = make([]string, c.Nodes)
	lns := make([]net.Listener, c.Nodes)
	peers := map[string]string{}
	for i := range t.names {
		t.names[i] = fmt.Sprintf("node%d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return nil, err
		}
		lns[i] = ln
		u := "http://" + ln.Addr().String()
		t.nodeURLs = append(t.nodeURLs, u)
		peers[t.names[i]] = u
	}
	ring, err := cluster.NewRing(t.names, c.VNodes, c.RingSeed)
	if err != nil {
		closeAll(lns)
		return nil, err
	}
	for i, name := range t.names {
		sc := server.Config{Apps: c.Apps, Order: c.Order, CacheBytes: c.CacheBytes}
		nc := cluster.NodeConfig{Name: name, Ring: ring, Peers: without(peers, name), Server: sc}
		if tr != nil {
			nc.Client = &http.Client{Transport: &transport{t: tr, base: http.DefaultTransport, name: spanPeer, node: name}}
		}
		node, err := cluster.NewNode(nc)
		if err != nil {
			closeAll(lns[i:])
			return nil, err
		}
		t.nodes = append(t.nodes, node)
		var h http.Handler = node.Handler()
		if tr != nil {
			h = tr.handler(spanNode, name, h)
		}
		t.serve(lns[i], h)
	}
	if w.remote {
		rc := cluster.RouterConfig{Ring: ring, Nodes: peers, Order: c.Order}
		if tr != nil {
			rc.Client = &http.Client{Transport: &transport{t: tr, base: http.DefaultTransport, name: spanUpstream}}
		}
		rt, err := cluster.NewRouter(rc)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t.router = rt
		t.routerURL = "http://" + ln.Addr().String()
		var h http.Handler = rt
		if tr != nil {
			h = tr.handler(spanRouter, "", h)
		}
		t.serve(ln, h)
		if err := t.prewarm(ctx, ring, c); err != nil {
			return nil, err
		}
	}
	ok = true
	return t, nil
}

// prewarm makes every node hold every app: the owner builds, the others
// peer-fill, exactly as cluster traffic would leave them.
func (t *topology) prewarm(ctx context.Context, ring *cluster.Ring, c *config) error {
	for _, a := range c.Apps {
		owner := ring.Owner(server.Key{App: a, Order: c.Order}.String())
		order := []int{}
		for i, n := range t.names {
			if n == owner {
				order = append([]int{i}, order...)
			} else {
				order = append(order, i)
			}
		}
		for _, i := range order {
			if _, err := t.nodes[i].Server().Warm(ctx, a); err != nil {
				return fmt.Errorf("prewarm %s on %s: %w", a, t.names[i], err)
			}
		}
	}
	return nil
}

func (t *topology) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	t.srvs = append(t.srvs, hs)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		hs.Serve(ln)
	}()
}

// close stops every server and waits for their accept loops to end.
func (t *topology) close() {
	for _, hs := range t.srvs {
		hs.Close()
	}
	t.wg.Wait()
}

// counters is one snapshot of every counter the program exposes along
// the serving path.
type counters struct {
	cache     server.CacheStats
	router    cluster.RouterStats
	fallbacks int64
}

func (t *topology) snapshot() counters {
	var s counters
	for _, n := range t.nodes {
		st := n.Stats()
		c := st.Cache
		s.cache.Hits += c.Hits
		s.cache.Misses += c.Misses
		s.cache.Builds += c.Builds
		s.cache.PeerFills += c.PeerFills
		s.cache.Evictions += c.Evictions
		s.cache.BuildErrors += c.BuildErrors
		s.cache.BuildSeconds += c.BuildSeconds
		s.cache.Shed += c.Shed
		s.fallbacks += st.FallbackBuilds
	}
	if t.router != nil {
		s.router = t.router.Stats()
	}
	return s
}

// sub returns the counter movement from b to s.
func (s counters) sub(b counters) counters {
	d := s
	d.cache.Hits -= b.cache.Hits
	d.cache.Misses -= b.cache.Misses
	d.cache.Builds -= b.cache.Builds
	d.cache.PeerFills -= b.cache.PeerFills
	d.cache.Evictions -= b.cache.Evictions
	d.cache.BuildErrors -= b.cache.BuildErrors
	d.cache.BuildSeconds -= b.cache.BuildSeconds
	d.cache.Shed -= b.cache.Shed
	d.router.Proxied -= b.router.Proxied
	d.router.Failovers -= b.router.Failovers
	d.router.Aborts -= b.router.Aborts
	d.fallbacks -= b.fallbacks
	return d
}

// workingSet is the bytes (stream + unit table) of every app under the
// run's order, the quantity the churn caches are sized against.
func workingSet(refs map[string]*server.Artifact) int64 {
	var n int64
	for _, a := range refs {
		n += int64(len(a.Data) + len(a.TOC))
	}
	return n
}

func without(m map[string]string, k string) map[string]string {
	out := make(map[string]string, len(m))
	for n, u := range m {
		if n != k {
			out[n] = u
		}
	}
	return out
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// paperApps returns the six paper benchmarks in Table 1 order.
func paperApps() []string {
	var out []string
	for _, a := range apps.All() {
		out = append(out, a.Name)
	}
	return out
}
