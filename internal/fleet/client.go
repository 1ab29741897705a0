package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"nonstrict/internal/classfile"
	"nonstrict/internal/live"
	"nonstrict/internal/stream"
	"nonstrict/internal/xrand"
)

// client is one simulated mobile user: a real HTTP client over a shaped
// in-process connection, driving a live.Session — the transfer, loader,
// gate, demand, and repair path live.Run uses — from the app's need
// trace instead of a VM.
type client struct {
	id    int
	seed  uint64
	cfg   *Config
	link  stream.LinkClass
	model *appModel
	dial  func(context.Context) (net.Conn, error)
}

// clientResult is what one client contributes to the aggregate.
type clientResult struct {
	failed bool
	err    error

	// st is the session's measurement; every need crossed the gate
	// once, so len(st.Waits) is the need count.
	st              *live.Stats
	firstInvocation time.Duration
}

// run executes the client's whole session. Every error path degrades to
// a counted failure — one wedged client must never take the fleet down.
func (c *client) run(ctx context.Context) *clientResult {
	fail := func(err error) *clientResult {
		return &clientResult{failed: true, err: fmt.Errorf("fleet client %d: %w", c.id, err)}
	}

	// One transport per client: its connections are shaped with the
	// client's private seed stream, and reusing a kept-alive connection
	// models a persistent session (the RTT is paid per connection, not
	// per request).
	connSeeds := xrand.New(c.seed ^ 0xC0)
	var seedMu sync.Mutex
	tr := &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			conn, err := c.dial(ctx)
			if err != nil {
				return nil, err
			}
			seedMu.Lock()
			s := connSeeds.Uint64()
			seedMu.Unlock()
			return c.link.Shape(conn, s, c.cfg.TimeScale), nil
		},
		MaxIdleConnsPerHost: 2,
	}
	defer tr.CloseIdleConnections()

	// The session opens like a real one: unit table first, then the
	// interleaved stream. The first-invocation clock starts before the
	// unit-table request.
	base := "http://fleet/apps/" + c.model.name
	start := time.Now()
	s, err := live.Start(ctx, live.Options{
		URL:       base + "/app",
		TOCURL:    base + "/app.toc",
		Name:      c.model.name,
		MainClass: c.model.mainClass,
		Client: &stream.FetchClient{
			HTTP:       &http.Client{Transport: tr},
			JitterSeed: c.seed ^ 0xF7,
		},
		GateTimeout: c.cfg.GateTimeout,
	})
	if err != nil {
		return fail(err)
	}
	toc := s.Units()

	// Replay the need trace. Whether a need is a mispredict is decided
	// by the positional model (deterministic in seed and config); how
	// long it stalls is measured at the session's gate.
	res := &clientResult{}
	think := xrand.New(c.seed ^ 0x7E)
	satisfied := make(map[classfile.Ref]bool, len(c.model.needs))
	classHave := make(map[string]bool)
	cursor := 0
	for _, ref := range c.model.needs {
		next, inOrder := scan(toc, cursor, ref, satisfied)
		if inOrder {
			// Predicted order delivers this method next: ride the main
			// stream.
			if err = s.Await(ref); err != nil {
				break
			}
			// Everything before the matched unit has installed; the
			// skipped prefix is globals only, now known present.
			for i := cursor; i < next; i++ {
				if toc[i].Kind == stream.KindGlobal {
					classHave[toc[i].ClassName] = true
				}
			}
			cursor = next + 1
		} else {
			var units []stream.UnitInfo
			if units, err = demandUnits(toc, ref, classHave); err != nil {
				break
			}
			if err = s.Demand(ref, units); err != nil {
				break
			}
			classHave[ref.Class] = true
		}
		satisfied[ref] = true
		if res.firstInvocation == 0 {
			res.firstInvocation = time.Since(start)
		}
		sleepScaled(ctx, thinkTime(think, c.cfg.ThinkMean), c.cfg.TimeScale)
	}

	// Drain the remaining stream (the cold tail); any transfer failure
	// fails the client.
	st, ferr := s.Finish(err)
	if err == nil {
		err = ferr
	}
	if err != nil {
		return fail(err)
	}
	res.st = st
	return res
}

// scan is the positional order model: from cursor, find the need's body
// unit, skipping globals and bodies already satisfied (in stream order
// those bytes are consumed or were demanded — either way execution does
// not wait on them). If any unsatisfied body intervenes, the predicted
// order was wrong for this need. Returns the matched index and whether
// the need is in predicted order.
func scan(toc []stream.UnitInfo, cursor int, ref classfile.Ref, satisfied map[classfile.Ref]bool) (int, bool) {
	for i := cursor; i < len(toc); i++ {
		u := toc[i]
		if u.Kind == stream.KindGlobal {
			continue
		}
		if u.Method == ref {
			return i, true
		}
		if !satisfied[u.Method] {
			return i, false
		}
	}
	return len(toc), false
}

// demandUnits is the positional demand set for a mispredicted need: the
// class's global unit first when the model says the stream has not
// delivered it, then the body. It is decided from the unit table and
// the model alone, never from loader state, keeping demand counts and
// bytes deterministic.
func demandUnits(toc []stream.UnitInfo, ref classfile.Ref, classHave map[string]bool) ([]stream.UnitInfo, error) {
	var global *stream.UnitInfo
	for i := range toc {
		u := &toc[i]
		if u.Kind == stream.KindGlobal && u.ClassName == ref.Class {
			global = u
		}
		if u.Kind != stream.KindBody || u.Method != ref {
			continue
		}
		if classHave[ref.Class] {
			return []stream.UnitInfo{*u}, nil
		}
		if global == nil {
			return nil, fmt.Errorf("class %q has no global unit", ref.Class)
		}
		return []stream.UnitInfo{*global, *u}, nil
	}
	return nil, fmt.Errorf("method %v is not in the unit table", ref)
}

// thinkTime draws one simulated execute interval from [mean/2, 3·mean/2).
func thinkTime(r *xrand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return mean/2 + time.Duration(r.Intn(int(mean)))
}
