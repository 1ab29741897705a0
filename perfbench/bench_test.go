package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/vm"
)

// testEnv boots workload name over apps with an optional tracer.
func testEnv(t *testing.T, name string, appNames []string, tr *tracer) *env {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	c := newConfig(w, 7, 1, tr != nil)
	c.Apps = appNames
	topo, err := boot(context.Background(), w, c, tr)
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(w, c, topo, tr)
	t.Cleanup(e.close)
	return e
}

// flipper serves h but flips one body byte of stream responses.
func flipper(h http.Handler, at int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if appOf(r.URL.Path) != "" && strings.HasSuffix(r.URL.Path, "/app") {
			w = &flipWriter{ResponseWriter: w, at: at}
		}
		h.ServeHTTP(w, r)
	})
}

type flipWriter struct {
	http.ResponseWriter
	at, off int
}

func (f *flipWriter) Write(p []byte) (int, error) {
	if i := f.at - f.off; i >= 0 && i < len(p) {
		p = append([]byte(nil), p...)
		p[i] ^= 0x40
	}
	f.off += len(p)
	return f.ResponseWriter.Write(p)
}

func TestFlippedArtifactByteFailsChurnOp(t *testing.T) {
	e := testEnv(t, "churn_build", []string{"Hanoi"}, nil)
	cl := e.clients[0]
	if s := e.churnOp(context.Background(), cl, "Hanoi", 0); s.err != nil {
		t.Fatalf("clean churn op failed: %v", s.err)
	}
	ts := httptest.NewServer(flipper(e.topo.nodes[1].Handler(), 200))
	defer ts.Close()
	e.topo.nodeURLs[1] = ts.URL
	if s := e.churnOp(context.Background(), cl, "Hanoi", 1); s.err == nil {
		t.Fatal("churn op passed on a stream with a flipped byte")
	}
}

func TestWrongExpectedResultFailsRemoteOp(t *testing.T) {
	e := testEnv(t, "remote_fast", []string{"Hanoi"}, nil)
	a, err := apps.ByName("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	if s := e.remoteOp(context.Background(), e.clients[0], a); s.err != nil {
		t.Fatalf("clean remote op failed: %v", s.err)
	}
	// Expect the train input's result from a run of the test input.
	bad := *a
	bad.Check = func(m *vm.Machine, train bool) error { return a.Check(m, !train) }
	if s := e.remoteOp(context.Background(), e.clients[0], &bad); s.err == nil {
		t.Fatal("remote op passed against a wrong expected result")
	}
}

func TestSpanSurvivesRouterToNodeHop(t *testing.T) {
	tr := newTracer()
	e := testEnv(t, "remote_fast", []string{"Hanoi"}, tr)
	tr.on.Store(true)
	op := tr.start(spanOp, nil)
	req, err := http.NewRequestWithContext(withSpan(context.Background(), op), "GET",
		e.topo.routerURL+"/apps/Hanoi/app.toc", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.clients[0].http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.finish(op)
	spans := tr.take()
	byID := map[uint64]*span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var node *span
	for _, s := range spans {
		if s.Name == spanNode {
			node = s
		}
	}
	if node == nil {
		t.Fatalf("no node span among %d spans", len(spans))
	}
	// node → router.http → router → client.http → op, one op ID throughout.
	want := []string{spanNode, spanUpstream, spanRouter, spanClient, spanOp}
	s := node
	for i, name := range want {
		if s == nil {
			t.Fatalf("chain broken before %s", name)
		}
		if s.Name != name || s.Op != op.ID {
			t.Fatalf("hop %d: span %s op %d, want %s op %d", i, s.Name, s.Op, name, op.ID)
		}
		s = byID[s.Parent]
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
}

func TestChildSpansLieInsideParents(t *testing.T) {
	for _, name := range []string{"remote_fast", "churn_build"} {
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			e := testEnv(t, name, []string{"Hanoi", "TestDes", "JHLZip"}, tr)
			tr.on.Store(true)
			samples, _ := e.window(context.Background(), 500*time.Millisecond)
			tr.on.Store(false)
			spans := tr.take()
			for _, s := range samples {
				if s.err != nil {
					t.Fatalf("op failed: %v", s.err)
				}
			}
			kinds := map[string]int{}
			for _, s := range spans {
				kinds[s.Name]++
			}
			need := []string{spanOp, spanClient, spanNode}
			if name == "churn_build" {
				need = append(need, spanFill, spanPeer)
			} else {
				need = append(need, spanRouter, spanUpstream)
			}
			for _, k := range need {
				if kinds[k] == 0 {
					t.Errorf("no %s spans (have %v)", k, kinds)
				}
			}
			if err := checkNesting(spans); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCheckNestingCatchesEscapedChild(t *testing.T) {
	ms := time.Millisecond
	parent := &span{ID: 1, Op: 1, Start: 10 * ms, End: 20 * ms}
	early := &span{ID: 2, Parent: 1, Op: 1, Start: 9 * ms, End: 15 * ms}
	late := &span{ID: 3, Parent: 1, Op: 1, Start: 11 * ms, End: 21 * ms}
	lateWrite := &span{ID: 5, Parent: 1, Op: 1, Start: 11 * ms, End: 22 * ms, Last: 20*ms + 1}
	inside := &span{ID: 4, Parent: 1, Op: 1, Start: 11 * ms, End: 19 * ms}
	// A handler that returned after its reader finished, but began its
	// last write before, is inside; so is a cut span that ended late.
	returnedLate := &span{ID: 6, Parent: 1, Op: 1, Start: 11 * ms, End: 22 * ms, Last: 19 * ms}
	cut := &span{ID: 7, Parent: 1, Op: 1, Start: 11 * ms, End: 30 * ms, Cut: true}
	if err := checkNesting([]*span{parent, inside, returnedLate, cut}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*span{early, late, lateWrite} {
		if checkNesting([]*span{parent, bad}) == nil {
			t.Errorf("span [%v,%v] escaped [%v,%v] unnoticed", bad.Start, bad.End, parent.Start, parent.End)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []*span{
		{ID: 1, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Start: 2 * ms, End: 5 * ms},
		{ID: 4, Parent: 1, Start: 7 * ms, End: 8 * ms},
	}
	if got := selfTimes(spans)[1]; got != 5*ms {
		t.Fatalf("self time %v, want 5ms", got)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ws := windowStats{elapsed: time.Second, samples: []sample{{app: "Hanoi", dur: time.Millisecond}}}
	rep := &report{window: ws, perApp: perApp(ws.samples)}
	pm := probeMetrics{buildMs: map[string]float64{}}
	for _, st := range []string{"compile", "cfg", "order", "restructure", "write", "toc", "etag"} {
		pm.buildMs[st] = 1
	}
	for _, c := range []struct {
		name string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEnd([]float64{1}, ws), spec.EndToEnd},
		{"per_layer", perLayer(rep, nil, pm), spec.PerLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: benchmark reports %d metrics, BENCHMARK.json lists %d", c.name, len(c.got), len(c.want))
		}
		for _, m := range c.want {
			if g, ok := c.got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: %s reported as %+v (present %v), want unit %s", c.name, m.Name, g, ok, m.Unit)
			}
		}
	}
}
