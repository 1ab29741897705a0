package stream

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// TestPacerDebt: a bucket lets its burst through at once, then holds
// callers to the rate; a caller that books after each send never waits
// longer than that send's own n/rate.
func TestPacerDebt(t *testing.T) {
	ctx := context.Background()
	p := NewPacer(1000, 200) // 1 KB/s, 200 ms of burst
	start := time.Now()
	if err := p.Wait(ctx, 200); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("a wait inside the burst blocked %v", d)
	}
	if err := p.Wait(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 90*time.Millisecond {
		t.Fatalf("300 bytes at 1 KB/s with 200 bytes of burst took %v, want >= 100ms", d)
	}

	// Burst 0, booked after each send: a caller that was slow to come
	// back pays nothing for the time it already spent.
	q := NewPacer(1000, 0)
	if err := q.Wait(ctx, 100); err != nil { // 100 ms of debt
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	began := time.Now()
	if err := q.Wait(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(began); d > 180*time.Millisecond {
		t.Fatalf("a 100-byte wait at 1 KB/s blocked %v, far past its own 100ms", d)
	}
	if err := (*Pacer)(nil).Wait(ctx, 1<<30); err != nil {
		t.Fatalf("nil pacer: %v", err)
	}
}

// TestPacerWaitEndsOnCancel: a wait a day long returns as soon as its
// context is cancelled.
func TestPacerWaitEndsOnCancel(t *testing.T) {
	p := NewPacer(1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	if err := p.Wait(ctx, 86_400); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("cancelled wait returned after %v", d)
	}
}

// TestShapedCloseWakesLinkWait: closing a shaped connection ends the
// link wait a pending Read is parked in. A satellite link's first byte
// is 600 ms out; a Read that slept through it regardless of Close held
// its caller (and the transport's read loop) for the whole schedule.
func TestShapedCloseWakesLinkWait(t *testing.T) {
	cl, srv := net.Pipe()
	defer srv.Close()
	c := LinkSatellite.Shape(cl, 1, 1)
	time.AfterFunc(20*time.Millisecond, func() { c.Close() })
	start := time.Now()
	if _, err := c.Read(make([]byte, 64)); err == nil {
		t.Fatal("Read on a closed shaped connection succeeded")
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("Read returned %v after Close was called at 20ms", d)
	}
}
