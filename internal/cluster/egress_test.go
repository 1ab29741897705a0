package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nonstrict/internal/server"
)

// TestEgressCapAbandonsDeadClients is TestPacedWriteAbandonsDeadClients
// for the per-node egress cap: when a client disconnects mid-body, the
// handler must notice the cancelled request context and return instead
// of sleeping out the bucket's schedule. Before the cap shared the
// context-aware pacer, its token wait was a plain sleep, so every dead
// client of a saturated node pinned a goroutine until its chunk's
// tokens accrued.
func TestEgressCapAbandonsDeadClients(t *testing.T) {
	// 4 KiB/s: Jess is far larger than the 16 KiB burst, so after the
	// burst each 16 KiB chunk waits 4 s for its tokens.
	s, err := server.New(server.Config{Apps: []string{"Jess"}})
	if err != nil {
		t.Fatal(err)
	}
	size, err := s.Warm(context.Background(), "Jess")
	if err != nil {
		t.Fatal(err)
	}
	if size <= 2*16<<10 {
		t.Fatalf("Jess is %d bytes; the test needs more than two 16 KiB chunks", size)
	}
	ts := httptest.NewServer(capEgress(s.Handler(), 4<<10))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/apps/Jess/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read into the burst so the handler is provably mid-body, parked
	// on the bucket, then walk away.
	buf := make([]byte, 4<<10)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// Close blocks until every in-flight handler returns.
	start := time.Now()
	ts.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("server took %v to shed a disconnected egress-capped client", d)
	}
}
