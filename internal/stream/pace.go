package stream

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// Pacer is the one bandwidth model every throttle in the system
// shares: a debt-model token bucket with a rate, a burst tolerance, and
// the time its outstanding debt is paid off (due). Wait books n bytes —
// due = max(due, now) + n/rate — and blocks until the debt is within
// the burst tolerance, so a caller that books each send after it
// happens waits at most n/rate, and callers that book before sending
// are held to the rate with at most burst bytes of slack however many
// share the bucket. Every wait ends early when its context does: a
// throttled peer that goes away never pins the goroutine pacing it.
//
// A Pacer per shaped connection or per response (burst 0, or one chunk
// so the first leaves at once) models a fixed-bandwidth pipe; one
// Pacer shared by every response a node writes models the node's
// uplink.
type Pacer struct {
	rate  float64       // bytes per second
	burst time.Duration // debt tolerated before a caller waits

	mu  sync.Mutex
	due time.Time
}

// NewPacer returns a bucket draining rate bytes per second that lets
// callers run up to burst bytes ahead of the rate. rate <= 0 returns
// nil, and a nil Pacer never waits.
func NewPacer(rate float64, burst int) *Pacer {
	if rate <= 0 {
		return nil
	}
	p := &Pacer{rate: rate}
	p.burst = p.cost(burst)
	return p
}

// cost is how long the bucket takes to drain n bytes.
func (p *Pacer) cost(n int) time.Duration {
	return time.Duration(float64(n) / p.rate * float64(time.Second))
}

// Wait books n bytes and blocks until the bucket's debt is back within
// its burst tolerance, or until ctx ends (returning its error).
func (p *Pacer) Wait(ctx context.Context, n int) error {
	if p == nil || n <= 0 {
		return nil
	}
	p.mu.Lock()
	now := time.Now()
	if p.due.Before(now) {
		p.due = now
	}
	p.due = p.due.Add(p.cost(n))
	d := p.due.Sub(now) - p.burst
	p.mu.Unlock()
	return sleep(ctx, d)
}

// sleep waits d, returning ctx's error early if ctx ends first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// PaceResponse returns w with its body paced through p: writes are cut
// into chunk-sized pieces, each booked on p before it is written and
// flushed, so the client sees steady progress and a Pacer shared by
// many responses caps the bytes that actually leave. Waits end with
// ctx, so a handler whose client went away returns instead of sleeping
// out the schedule. A nil p returns w unchanged.
func PaceResponse(ctx context.Context, w http.ResponseWriter, p *Pacer, chunk int) http.ResponseWriter {
	if p == nil {
		return w
	}
	return &pacedResponse{ResponseWriter: w, ctx: ctx, p: p, chunk: chunk}
}

type pacedResponse struct {
	http.ResponseWriter
	ctx   context.Context
	p     *Pacer
	chunk int
}

func (w *pacedResponse) Write(b []byte) (int, error) {
	written := 0
	for len(b) > 0 {
		n := min(len(b), w.chunk)
		if err := w.p.Wait(w.ctx, n); err != nil {
			return written, err
		}
		m, err := w.ResponseWriter.Write(b[:n])
		written += m
		if err != nil {
			return written, err
		}
		w.Flush()
		b = b[n:]
	}
	return written, nil
}

func (w *pacedResponse) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}
