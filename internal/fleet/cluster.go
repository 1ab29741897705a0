package fleet

import (
	"context"
	"net/http"
	"os"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/cluster"
	"nonstrict/internal/server"
)

// runCluster executes the fleet against an N-node cluster: real nodes
// on loopback TCP behind the consistent-hash router, with the router
// mounted on the fleet's shaped in-process listener so every client
// byte still crosses its link-class schedule. Optionally one node is
// killed mid-run; the surviving fleet must resume through the router
// against the replicas with zero rebuilds.
func runCluster(ctx context.Context, cfg Config) (*Report, error) {
	storeRoot := cfg.Cluster.StoreRoot
	if storeRoot == "" {
		d, err := os.MkdirTemp("", "fleet-cluster-store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		storeRoot = d
	}
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes:             cfg.Cluster.Nodes,
		VNodes:            cfg.Cluster.VNodes,
		Seed:              cfg.Cluster.RingSeed,
		EgressBytesPerSec: cfg.Cluster.EgressBytesPerSec,
		Server: server.Config{
			Apps:       cfg.Apps,
			Order:      cfg.Order,
			CacheBytes: cfg.CacheBytes,
			Fault:      cfg.Fault,
			StoreDir:   storeRoot,
		},
	})
	if err != nil {
		return nil, err
	}
	defer h.Close()

	// Prewarm every key on every node before clients arrive: each key's
	// owner builds exactly once, every replica peer-fills, and the build
	// counters become deterministic in (apps, nodes) — which is also
	// what makes a mid-run node kill survivable with zero fallback
	// builds, since every replica already holds every artifact.
	if err := h.Prewarm(ctx, cfg.Apps); err != nil {
		return nil, err
	}
	models := make(map[string]*appModel, len(cfg.Apps))
	for _, name := range cfg.Apps {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		m, err := buildModel(app)
		if err != nil {
			return nil, err
		}
		models[name] = m
	}

	ln := newMemListener()
	hs := &http.Server{Handler: h.Router()}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		ln.Close()
		<-serveDone
	}()

	agg := newAggregator(cfg.Links)
	sem := make(chan struct{}, cfg.Workers)
	start := time.Now()

	// The node-kill trigger mirrors the restart scenario's: once the
	// configured fraction of the fleet has finished, crash the node that
	// owns the first app's key — guaranteed to be mid-stream for that
	// app's remaining clients — and leave it dead for the rest of the
	// run.
	victim := -1
	if cfg.Cluster.KillNode {
		victim = h.Owner(server.Key{App: cfg.Apps[0], Order: cfg.Order})
	}
	var killAt time.Duration
	var connsKilled int
	killDone := make(chan struct{})
	runOver := make(chan struct{})
	if victim >= 0 {
		go func() {
			defer close(killDone)
			target := int(cfg.Cluster.KillAfterFraction * float64(cfg.Clients))
			for agg.completed() < target {
				select {
				case <-runOver:
					return
				case <-ctx.Done():
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
			connsKilled = h.Kill(victim)
			killAt = time.Since(start)
		}()
	} else {
		close(killDone)
	}

	driveClients(ctx, cfg, agg, models, ln, sem)
	close(runOver)
	<-killDone

	per := h.Stats()
	rep := agg.report(cfg, sumCacheStats(per), time.Since(start))
	builds, fills, fallbacks := h.ClusterBuilds()
	cr := &ClusterReport{
		Nodes:          cfg.Cluster.Nodes,
		VNodes:         h.Ring().VNodes(),
		RingSeed:       cfg.Cluster.RingSeed,
		Keys:           len(cfg.Apps),
		ClusterBuilds:  builds,
		PeerFills:      fills,
		FallbackBuilds: fallbacks,
		Router:         h.Router().Stats(),
		PerNode:        per,
	}
	if victim >= 0 {
		cr.KilledNode = h.Names()[victim]
		cr.KillAtMs = float64(killAt) / float64(time.Millisecond)
		cr.ConnsKilled = connsKilled
	}
	if done, failed := agg.outcomes(); done > 0 {
		cr.SuccessRate = float64(done-failed) / float64(done)
	}
	rep.Cluster = cr
	return rep, nil
}

// sumCacheStats aggregates per-node cache counters into the report's
// top-level cache block, so cluster reports keep the single-server
// schema's shape (the per-node split lives in the cluster block).
func sumCacheStats(per []cluster.NodeStats) server.CacheStats {
	var out server.CacheStats
	for _, st := range per {
		c := st.Cache
		out.Hits += c.Hits
		out.Misses += c.Misses
		out.Builds += c.Builds
		out.PeerFills += c.PeerFills
		out.Evictions += c.Evictions
		out.BuildErrors += c.BuildErrors
		out.BuildSeconds += c.BuildSeconds
		out.Shed += c.Shed
		out.BreakerTrips += c.BreakerTrips
		out.StoreHits += c.StoreHits
		out.StoreMisses += c.StoreMisses
		out.Bytes += c.Bytes
		out.Entries += c.Entries
	}
	return out
}
