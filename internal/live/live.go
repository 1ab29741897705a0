// Package live runs a program while its bytes are still arriving — the
// paper's non-strict execution, for real rather than simulated. A
// Session pipelines FetchClient → stream.Loader → gate in goroutines:
// the fetch goroutine streams the interleaved virtual file and feeds
// the loader, whose verified units flow into the VM's incremental link
// state. First invocation of a method blocks at the availability gate
// until the loader fires MethodReady; a method wanted out of predicted
// order is demand-fetched through a byte-range request against the
// writer's unit table (§5.1's misprediction correction applied to the
// §5.2 virtual file). Run drives a Session with the VM; the fleet
// simulator drives the same Session from a recorded need trace. The
// session records wall-clock first-invocation latencies and overlap
// statistics, the measured counterparts of the cycle simulator's
// predictions.
package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nonstrict/internal/classfile"
	"nonstrict/internal/obs"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// DefaultGateTimeout bounds each availability-gate wait when Options
// leaves GateTimeout zero. A transfer that stops making progress —
// stalled connection, endlessly trickling retries — would otherwise park
// the VM forever; the deadline turns that hang into a clean
// per-invocation error.
const DefaultGateTimeout = 30 * time.Second

// ErrGateTimeout marks a gate wait that exceeded its deadline: the
// method or class never became available within Options.GateTimeout.
var ErrGateTimeout = errors.New("live: gate deadline exceeded")

// Options configures one overlapped run.
type Options struct {
	// URL is the interleaved stream's address.
	URL string
	// TOCURL is the writer's unit table address; empty disables demand
	// fetches (every gate wait then rides the main stream).
	TOCURL string
	// Name and MainClass identify the program (as NewLoader takes them).
	Name      string
	MainClass string
	// Client transfers the stream; nil uses a default FetchClient.
	Client *stream.FetchClient
	// GateTimeout bounds each availability-gate wait (AwaitMethod /
	// AwaitClass) and the post-execution stream drain. Zero means
	// DefaultGateTimeout; negative disables the deadline entirely.
	GateTimeout time.Duration
	// Obs, when non-nil, records gate crossings, demand fetches,
	// repairs, degradation, first invocations, and the loader's
	// unit-level events for tracing. The fetch client's recorder is NOT
	// set from here — a shared Client may be serving concurrent runs —
	// so callers who also want transfer events (retries, resumes) set
	// Client.Obs themselves before the first request.
	Obs *obs.Recorder
	// Run is passed to the VM.
	Run vm.Options
}

// Wait records one first-invocation gate crossing.
type Wait struct {
	// Method is the invoked method.
	Method classfile.Ref
	// At is when the invocation happened, measured from run start.
	At time.Duration
	// Wait is how long the VM blocked before the method's bytes were in
	// (zero when the stream was ahead of execution).
	Wait time.Duration
	// Transfer, Repair, and Gate decompose Wait: time blocked while the
	// method's bytes were still in flight (main stream or demand fetch),
	// time blocked inside integrity-repair re-fetches of corrupt units,
	// and the residual between the bytes being ready and the waiter
	// actually proceeding (wakeup latency, lock handoff). They sum to
	// Wait exactly, by construction.
	Transfer, Repair, Gate time.Duration
	// Demand reports that the bytes came via a demand fetch rather than
	// in predicted stream order.
	Demand bool
}

// Stats is the measured outcome of an overlapped run.
type Stats struct {
	// Transfer snapshots the fetch client's counters.
	Transfer stream.FetchStats
	// StreamBytes is main-stream bytes consumed (headers included);
	// DemandBytes is payload bytes that arrived via demand fetches.
	StreamBytes, DemandBytes int64
	// DemandFetches counts range requests issued for out-of-order needs;
	// Mispredicts counts gate waits that triggered them.
	DemandFetches, Mispredicts int
	// FirstRunnable is when the entry method's bytes were in — the
	// measured invocation latency of the paper's Table 4.
	FirstRunnable time.Duration
	// ExecDone and TransferDone mark, from run start, when execution
	// finished and when the main stream was fully consumed.
	ExecDone, TransferDone time.Duration
	// StallTime is the total time execution spent blocked at the gate.
	StallTime time.Duration
	// Waits lists every first invocation in execution order.
	Waits []Wait
	// Classes and Methods count what actually arrived and linked.
	Classes, Methods int
	// Integrity snapshots the loader's verification counters: corrupt
	// units detected, repair attempts, repaired, quarantined.
	Integrity stream.IntegrityStats
	// Refetches counts byte-range re-fetches issued to replace payloads
	// that arrived corrupt (repair-hook fetches plus demand retries).
	Refetches int
	// Degraded holds the main stream's terminal error when it failed
	// permanently mid-run and the remaining units were demand-fetched
	// instead; empty when the stream completed normally.
	Degraded string
}

// Overlap is the fraction of the execution window not spent stalled —
// the measured analog of sim.Result.Overlap. It is always in [0, 1]:
// a zero or negative execution window (a run that failed before the
// clock meaningfully advanced) yields 0 rather than NaN or ±Inf, and
// measurement jitter that lands StallTime outside the window is
// clamped rather than reported as a nonsense ratio.
func (s *Stats) Overlap() float64 {
	if s.ExecDone <= 0 {
		return 0
	}
	o := 1 - float64(s.StallTime)/float64(s.ExecDone)
	switch {
	case o < 0:
		return 0
	case o > 1:
		return 1
	}
	return o
}

// Attribution decomposes one method's measured first-invocation
// latency — run start to the method's body entering execution — into
// where the time went. Execute + Transfer + Repair + Gate == Latency
// exactly, by construction: the three wait components accumulate every
// gate crossing up to and including this one, and Execute is whatever
// the run spent outside the method gate (executing, linking, and any
// class-global gate waits).
type Attribution struct {
	// Method is the invoked method.
	Method classfile.Ref
	// Latency is run start → first instruction of Method.
	Latency time.Duration
	// Execute is time spent off the method gate before this invocation.
	Execute time.Duration
	// Transfer is cumulative gate time spent waiting on bytes in flight.
	Transfer time.Duration
	// Repair is cumulative gate time spent inside integrity repairs.
	Repair time.Duration
	// Gate is cumulative residual gate overhead (wakeup, lock handoff).
	Gate time.Duration
	// Demand marks that this method's bytes came via a demand fetch.
	Demand bool
}

// Attributions derives the per-method stall attribution from the run's
// gate crossings, in execution order.
func (s *Stats) Attributions() []Attribution {
	out := make([]Attribution, 0, len(s.Waits))
	var waited, transfer, repair, gate time.Duration
	for _, w := range s.Waits {
		exec := w.At - waited
		if exec < 0 {
			exec = 0 // clock-granularity slop; waits cannot overlap
		}
		transfer += w.Transfer
		repair += w.Repair
		gate += w.Gate
		waited += w.Wait
		out = append(out, Attribution{
			Method:   w.Method,
			Latency:  w.At + w.Wait,
			Execute:  exec,
			Transfer: transfer,
			Repair:   repair,
			Gate:     gate,
			Demand:   w.Demand,
		})
	}
	return out
}

// Session is one client's overlapped transfer and the one availability
// gate in front of it. It owns the unit-table fetch, the transfer
// goroutine feeding the stream.Loader, the gate's ready maps and
// deadline, demand fetches, the repair hook, the bounded drain, and the
// measured Stats with their exact attribution. Two drivers share it:
// Run executes the VM against it (vm.Gate's AwaitMethod and AwaitClass
// predict order themselves from the loader's progress), and the fleet
// simulator replays a recorded need trace, deciding order from its own
// positional model and calling Await or Demand.
//
// Its mutex orders strictly before the loader's: gate waits hold s.mu
// and may query the loader, while event delivery and demand feeding
// take the loader's lock first and s.mu only after release.
type Session struct {
	opts         Options
	ctx          context.Context // canceled when the session is abandoned
	cancel       context.CancelFunc
	client       *stream.FetchClient
	loader       *stream.Loader
	lv           *vm.LiveLinked
	toc          []stream.UnitInfo
	obs          *obs.Recorder
	start        time.Time
	transferDone chan struct{}

	// now and afterFunc are the gate's time sources, injectable for
	// deterministic deadline tests; nil means the real clock. The gate
	// treats now as advisory wall time (measurement only) and afterFunc
	// as the sole monotonic authority for deadlines — see gate.
	now       func() time.Time
	afterFunc func(time.Duration, func()) gateTimer

	mu          sync.Mutex
	cond        *sync.Cond
	classReady  map[string]bool
	methodReady map[classfile.Ref]bool
	demanded    map[classfile.Ref]bool // method demand launched
	classDem    map[string]bool        // class-global demand launched
	methodsAt   map[classfile.Ref]time.Duration
	classesAt   map[string]time.Duration
	repairSpans []span // completed integrity-repair windows, in order
	err         error
	degraded    error // main stream died but the demand path can finish the run
	done        bool  // main stream fully consumed (or failed)
	transferEnd time.Duration

	waits       []Wait
	stall       time.Duration
	demands     int
	mispredicts int
	refetches   int
}

// gateTimer is the slice of *time.Timer the gate needs, so tests can
// substitute a hand-cranked clock.
type gateTimer interface{ Stop() bool }

// span is a half-open window [From, To) measured from session start.
type span struct{ From, To time.Duration }

func (s *Session) clockNow() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

func (s *Session) armGate(d time.Duration, f func()) gateTimer {
	if s.afterFunc != nil {
		return s.afterFunc(d, f)
	}
	return time.AfterFunc(d, f)
}

// sinceStart is the session clock: elapsed time since the stream began.
func (s *Session) sinceStart() time.Duration { return s.clockNow().Sub(s.start) }

// attributeWait splits one gate wait [began, woke) into its transfer /
// repair / gate components. ready is when the awaited bytes became
// usable; repairs are the completed repair windows. The three parts sum
// to woke-began exactly: arrival time before ready is transfer except
// where a repair window overlaps it, and everything after ready is
// residual gate overhead.
func attributeWait(began, woke, ready time.Duration, repairs []span) (transfer, repair, gate time.Duration) {
	if ready < began {
		ready = began
	}
	if ready > woke {
		ready = woke
	}
	for _, s := range repairs {
		from, to := s.From, s.To
		if from < began {
			from = began
		}
		if to > ready {
			to = ready
		}
		if to > from {
			repair += to - from
		}
	}
	if arrive := ready - began; repair > arrive {
		repair = arrive
	}
	transfer = ready - began - repair
	gate = woke - ready
	return transfer, repair, gate
}

// Run executes the program at opts.URL while it streams in, returning
// the finished machine and the measured overlap statistics. The machine
// is valid (with partial profile) even when err is non-nil.
func Run(ctx context.Context, opts Options) (*vm.Machine, *Stats, error) {
	s, err := Start(ctx, opts)
	if err != nil {
		return nil, nil, err
	}
	runOpts := opts.Run
	if s.obs != nil {
		inner := runOpts.OnFirstUse
		runOpts.OnFirstUse = func(ref classfile.Ref) {
			s.obs.Emit(obs.FirstInvocation, ref.String(), 0, 0)
			if inner != nil {
				inner(ref)
			}
		}
	}
	m, runErr := s.lv.Run(runOpts)
	st, _ := s.Finish(runErr)
	return m, st, runErr
}

// Start opens a session: it fetches the unit table when opts.TOCURL is
// set (enabling demand fetches and repair), then starts streaming
// opts.URL into the loader on its own goroutine. opts.Run is unused;
// the caller drives the gate and must end the session with Finish.
func Start(ctx context.Context, opts Options) (*Session, error) {
	client := opts.Client
	if client == nil {
		client = &stream.FetchClient{}
	}
	s := &Session{
		opts:        opts,
		client:      client,
		loader:      stream.NewLoader(opts.Name, opts.MainClass, nil),
		obs:         opts.Obs,
		classReady:  make(map[string]bool),
		methodReady: make(map[classfile.Ref]bool),
		demanded:    make(map[classfile.Ref]bool),
		classDem:    make(map[string]bool),
		methodsAt:   make(map[classfile.Ref]time.Duration),
		classesAt:   make(map[string]time.Duration),
	}
	s.cond = sync.NewCond(&s.mu)
	s.loader.Obs = opts.Obs
	s.lv = vm.NewLive(opts.Name, opts.MainClass, s)

	if opts.TOCURL != "" {
		var buf bytes.Buffer
		if _, err := client.Fetch(ctx, opts.TOCURL, &buf); err != nil {
			return nil, fmt.Errorf("live: fetching unit table: %w", err)
		}
		toc, err := stream.ParseTOC(buf.Bytes())
		if err != nil {
			return nil, err
		}
		s.toc = toc
		// With a unit table in hand, a corrupt main-stream unit can be
		// healed by re-fetching just its bytes instead of failing the
		// transfer.
		s.loader.Repair = s.repairUnit
	}

	s.ctx, s.cancel = context.WithCancel(ctx)
	s.start = s.clockNow()
	s.transferDone = make(chan struct{})
	go func() {
		defer close(s.transferDone)
		s.transferLoop()
	}()
	return s, nil
}

// Units returns the unit table (nil without one). Callers must not
// modify it.
func (s *Session) Units() []stream.UnitInfo { return s.toc }

// Finish ends the session once its driver is done: it stamps the
// execution end, abandons the transfer if execErr is non-nil, waits for
// the rest of the stream (bounded by the gate timeout), and returns the
// measured statistics. The error says why the stream did not complete —
// a transfer failure, a degraded stream, a drain past the deadline, or
// cancellation — and is nil when every byte arrived.
func (s *Session) Finish(execErr error) (*Stats, error) {
	execDone := s.sinceStart()
	if execErr != nil {
		s.cancel() // abandon whatever is still streaming
	}
	// Bound the drain: a tail that stalls without failing must not hang
	// the session after execution already finished.
	var err error
	if d := gateTimeout(s.opts.GateTimeout); d > 0 {
		drain := time.NewTimer(d)
		select {
		case <-s.transferDone:
			drain.Stop()
		case <-drain.C:
			err = fmt.Errorf("%w: stream drain not done after %v", ErrGateTimeout, d)
			s.cancel()
			<-s.transferDone
		}
	} else {
		<-s.transferDone
	}
	if err == nil && execErr == nil {
		err = s.ctx.Err()
	}
	s.cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	st := &Stats{
		Transfer:      s.client.Stats(),
		StreamBytes:   s.loader.Consumed(),
		DemandBytes:   s.loader.DemandBytes(),
		DemandFetches: s.demands,
		Mispredicts:   s.mispredicts,
		ExecDone:      execDone,
		TransferDone:  s.transferEnd,
		StallTime:     s.stall,
		Waits:         s.waits,
		Classes:       s.lv.Classes(),
		Methods:       s.lv.Methods(),
		Integrity:     s.loader.Integrity(),
		Refetches:     s.refetches,
	}
	if len(st.Waits) > 0 {
		st.FirstRunnable = st.Waits[0].At + st.Waits[0].Wait
	}
	if s.degraded != nil {
		st.Degraded = s.degraded.Error()
		if err == nil {
			err = s.degraded
		}
	}
	if s.err != nil {
		err = s.err
	}
	return st, err
}

// transferLoop streams the virtual file into the loader until EOF or
// failure, then marks the session done and wakes every gate waiter.
// When the stream dies with a transport or integrity failure and a unit
// table is available, the failure degrades instead of killing the run:
// the remaining units are simply demand-fetched — strict fetching of
// whatever non-strict delivery could not provide.
func (s *Session) transferLoop() {
	err := func() error {
		body, err := s.client.Open(s.ctx, s.opts.URL)
		if err != nil {
			return err
		}
		defer body.Close()
		return s.loader.Load(body, func(e stream.Event) {
			if herr := s.handleEvent(e); herr != nil {
				s.fail(herr)
			}
		})
	}()
	s.mu.Lock()
	s.done = true
	s.transferEnd = s.sinceStart()
	if err != nil && s.ctx.Err() == nil {
		if s.toc != nil && degradable(err) {
			if s.degraded == nil {
				s.degraded = fmt.Errorf("live: transfer: %w", err)
				s.obs.Emit(obs.Degraded, err.Error(), 0, 0)
			}
		} else if s.err == nil {
			s.err = fmt.Errorf("live: transfer: %w", err)
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// degradable reports whether a stream failure leaves the demand path
// usable: the link or the bytes failed, but the unit table still
// describes every unit, so byte-range fetches can finish the program.
// Anything else (a verification failure, a malformed class) is a
// property of the program itself and re-fetching cannot fix it.
func degradable(err error) bool {
	return errors.Is(err, stream.ErrFetchFailed) ||
		errors.Is(err, stream.ErrBadStream) ||
		errors.Is(err, stream.ErrStreamIntegrity)
}

// handleEvent publishes one loader event to the gate. AddClass runs
// before the class is marked ready, so a waiter released by AwaitClass
// always finds the class registered in the link state.
func (s *Session) handleEvent(e stream.Event) error {
	switch e.Kind {
	case stream.ClassLinked:
		c := s.loader.LoadedClass(e.Class)
		if c == nil {
			return fmt.Errorf("live: loader fired ClassLinked for unknown class %q", e.Class)
		}
		if err := s.lv.AddClass(c); err != nil {
			return err
		}
		s.mu.Lock()
		if !s.classReady[e.Class] {
			s.classReady[e.Class] = true
			s.classesAt[e.Class] = s.sinceStart()
		}
		s.mu.Unlock()
		s.cond.Broadcast()
	case stream.MethodReady:
		s.mu.Lock()
		if !s.methodReady[e.Method] {
			s.methodReady[e.Method] = true
			s.methodsAt[e.Method] = s.sinceStart()
		}
		s.mu.Unlock()
		s.cond.Broadcast()
	}
	return nil
}

// fail records the first terminal error and wakes all gate waiters.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// gateTimeout resolves an Options.GateTimeout value: zero means the
// default, negative disables the deadline.
func gateTimeout(d time.Duration) time.Duration {
	if d == 0 {
		return DefaultGateTimeout
	}
	if d < 0 {
		return 0
	}
	return d
}

// gateBudget arms the deadline for one gate wait: a single timer for
// the wait's whole budget, armed once at entry, that flips *expired
// under s.mu and broadcasts. The returned stop releases the timer.
//
// The budget is deliberately a DURATION handed to one timer, never an
// absolute deadline re-derived from the clock. The previous
// implementation re-armed a fresh timer on every spurious wakeup with
// the remaining budget recomputed by wall-clock subtraction; any step
// between the clock readings — a suspended host, NTP slew, a VM
// migration — inflated or collapsed the remaining budget, so the
// deadline could fire arbitrarily early or never. A duration-based
// timer tracks the monotonic clock, and because the budget is never
// recomputed, a wall step cannot touch it.
//
// The expired flag is written under s.mu before the broadcast, so the
// wakeup cannot be missed: if the waiter has not parked yet it still
// holds s.mu and the callback blocks until cond.Wait releases it.
func (s *Session) gateBudget(expired *bool) (stop func()) {
	d := gateTimeout(s.opts.GateTimeout)
	if d <= 0 {
		return func() {}
	}
	t := s.armGate(d, func() {
		s.mu.Lock()
		*expired = true
		s.mu.Unlock()
		s.cond.Broadcast()
	})
	return func() { t.Stop() }
}

// gate is the one availability gate every wait passes. It blocks until
// ready holds, offering launch (when non-nil) the chance to start a
// demand fetch on every pass, and fails fast when the session failed,
// when the stream is over with no demand in flight (inFlight) that
// could still deliver, or when the wait outlives Options.GateTimeout —
// so a transfer that silently stops making progress surfaces as
// ErrGateTimeout rather than a hang. On release the wait is charged to
// the stall total and handed to record (when non-nil) with its start,
// measured from session start, and its length. label names the awaited
// unit in errors and obs events. ready, launch, inFlight, and record
// run under s.mu; the caller must not hold it.
func (s *Session) gate(label string, ready func() bool, launch func(), inFlight func() bool, record func(at, w time.Duration)) error {
	began := s.clockNow()
	expired := false
	stop := s.gateBudget(&expired)
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	blocked := false
	for !ready() {
		if s.err != nil {
			return s.err
		}
		if launch != nil {
			launch()
		}
		if s.done && !inFlight() {
			if s.degraded != nil {
				return fmt.Errorf("live: %s unavailable after stream failure: %w", label, s.degraded)
			}
			return fmt.Errorf("live: %s never arrived and cannot be demanded", label)
		}
		if expired {
			return fmt.Errorf("%w: %s not available after %v", ErrGateTimeout, label, gateTimeout(s.opts.GateTimeout))
		}
		if !blocked {
			blocked = true
			s.obs.Emit(obs.GateBlock, label, 0, 0)
		}
		s.cond.Wait()
	}
	w := s.clockNow().Sub(began)
	if w < 0 {
		w = 0 // injected clocks may be coarse or stepped
	}
	s.stall += w
	if record != nil {
		record(began.Sub(s.start), w)
	}
	if blocked {
		s.obs.Emit(obs.GateUnblock, label, 0, w)
	}
	return nil
}

// awaitMethod gates on ref's body having arrived and verified and its
// class having linked (a demand-raced MethodReady can otherwise outrun
// ClassLinked delivery), plus landed when non-nil, recording the
// crossing as a Wait.
func (s *Session) awaitMethod(ref classfile.Ref, landed func() bool, launch func()) error {
	return s.gate(ref.String(),
		func() bool {
			return s.methodReady[ref] && s.classReady[ref.Class] && (landed == nil || landed())
		},
		launch,
		func() bool { return s.demanded[ref] },
		func(at, w time.Duration) {
			transfer, repair, gate := attributeWait(at, at+w, s.methodReadyAt(ref), s.repairSpans)
			s.waits = append(s.waits, Wait{
				Method:   ref,
				At:       at,
				Wait:     w,
				Transfer: transfer,
				Repair:   repair,
				Gate:     gate,
				Demand:   s.demanded[ref],
			})
		})
}

// AwaitMethod implements vm.Gate: it blocks until ref is runnable,
// launching a demand fetch when the stream will not deliver ref next.
func (s *Session) AwaitMethod(ref classfile.Ref) error {
	return s.awaitMethod(ref, nil, func() { s.maybeDemandMethod(ref) })
}

// Await blocks until ref is runnable without ever demand-fetching it:
// the caller has decided ref arrives in predicted stream order.
func (s *Session) Await(ref classfile.Ref) error { return s.awaitMethod(ref, nil, nil) }

// Demand corrects a misprediction the caller detected: it range-fetches
// exactly units, in order, feeding each to the loader, and blocks until
// they have all landed and ref is runnable — even when the main stream
// delivered ref first. The caller picks the units (ref's body, preceded
// by its class's global unit when the caller's own model says the
// stream has not delivered it), so demand counts and bytes follow the
// caller's model, never the loader's progress.
func (s *Session) Demand(ref classfile.Ref, units []stream.UnitInfo) error {
	launched, fetched := false, false
	return s.awaitMethod(ref, func() bool { return fetched }, func() {
		if launched {
			return
		}
		launched = true
		s.demanded[ref] = true
		s.issue(ref.String(), func() {
			if s.fetchUnits(units) {
				s.mu.Lock()
				fetched = true
				s.mu.Unlock()
				s.cond.Broadcast()
			}
		})
	})
}

// methodReadyAt is when both of ref's gate conditions (body verified,
// class linked) held, measured from session start. Caller holds s.mu.
func (s *Session) methodReadyAt(ref classfile.Ref) time.Duration {
	ready := s.methodsAt[ref]
	if c := s.classesAt[ref.Class]; c > ready {
		ready = c
	}
	return ready
}

// AwaitClass implements vm.Gate: it blocks until the class's global
// data has linked, demand-fetching the global unit when it is out of
// predicted order.
func (s *Session) AwaitClass(class string) error {
	return s.gate("class "+class,
		func() bool { return s.classReady[class] },
		func() { s.maybeDemandClass(class) },
		func() bool { return s.classDem[class] },
		nil)
}

// issue counts a misprediction and starts its demand fetch on its own
// goroutine. Caller holds s.mu.
func (s *Session) issue(label string, fetch func()) {
	s.mispredicts++
	s.obs.Emit(obs.DemandIssue, label, 0, 0)
	go fetch()
}

// maybeDemandMethod demand-fetches ref when it is out of predicted
// order — the next body unit the main stream will deliver is a
// different method. Caller holds s.mu.
func (s *Session) maybeDemandMethod(ref classfile.Ref) {
	if s.toc == nil || s.demanded[ref] {
		return
	}
	if !s.done && !s.outOfOrder(func(u stream.UnitInfo) bool { return u.Method == ref }) {
		return // arriving next anyway; cheaper to wait
	}
	s.demanded[ref] = true
	s.issue(ref.String(), func() { s.demandMethod(ref) })
}

// maybeDemandClass is maybeDemandMethod for a class's global unit.
// Caller holds s.mu.
func (s *Session) maybeDemandClass(class string) {
	if s.toc == nil || s.classDem[class] {
		return
	}
	if !s.done && !s.outOfOrder(func(u stream.UnitInfo) bool { return isGlobal(u, class) }) {
		return
	}
	s.classDem[class] = true
	s.issue("class "+class, func() { s.demandClass(class) })
}

// outOfOrder reports whether the first not-yet-consumed unit matching
// the predicate is NOT the very next unit of its kind the stream will
// deliver — i.e. waiting for the main stream would first sit through
// other units. A matching global unit immediately before the matching
// body does not count as out of order. Caller holds s.mu.
func (s *Session) outOfOrder(match func(stream.UnitInfo) bool) bool {
	cursor := s.loader.UnitsConsumed()
	if cursor >= len(s.toc) {
		return true // stream exhausted without a match
	}
	// Skip the in-flight prefix that precedes the awaited unit only if
	// it is this unit's own class global; anything else means the
	// prediction put other work first.
	for i := cursor; i < len(s.toc); i++ {
		u := s.toc[i]
		if match(u) {
			return false
		}
		if u.Kind == stream.KindBody {
			return true
		}
		// A global unit for some class: in order only when the awaited
		// unit follows immediately (checked on the next iteration).
	}
	return true
}

func isGlobal(u stream.UnitInfo, class string) bool {
	return u.Kind == stream.KindGlobal && u.ClassName == class
}

// unit returns the first unit-table entry matching the predicate.
func (s *Session) unit(match func(stream.UnitInfo) bool) *stream.UnitInfo {
	for i := range s.toc {
		if match(s.toc[i]) {
			return &s.toc[i]
		}
	}
	return nil
}

// demandMethod pulls ref's body (and, if the loader lacks it, its
// class's global unit first) out of the stream. Runs on its own
// goroutine, holding no locks.
func (s *Session) demandMethod(ref classfile.Ref) {
	body := s.unit(func(u stream.UnitInfo) bool { return u.Kind == stream.KindBody && u.Method == ref })
	if body == nil {
		s.fail(fmt.Errorf("live: method %v is not in the unit table", ref))
		return
	}
	units := []stream.UnitInfo{*body}
	if s.loader.LoadedClass(ref.Class) == nil {
		g := s.unit(func(u stream.UnitInfo) bool { return isGlobal(u, ref.Class) })
		if g == nil {
			s.fail(fmt.Errorf("live: class %q is not in the unit table", ref.Class))
			return
		}
		units = []stream.UnitInfo{*g, *body}
	}
	s.fetchUnits(units)
}

// demandClass pulls a class's global unit out of the stream.
func (s *Session) demandClass(class string) {
	if s.loader.LoadedClass(class) != nil {
		// The main stream won the race; the waiter is already released.
		return
	}
	g := s.unit(func(u stream.UnitInfo) bool { return isGlobal(u, class) })
	if g == nil {
		s.fail(fmt.Errorf("live: class %q is not in the unit table", class))
		return
	}
	s.fetchUnits([]stream.UnitInfo{*g})
}

// fetchUnits range-fetches units in order, feeding each to the loader
// and publishing what installs, and reports whether all of them landed
// (a failure fails the session). The loader's install is exactly-once,
// so racing the main stream is safe. Runs on its own goroutine, holding
// no locks.
func (s *Session) fetchUnits(units []stream.UnitInfo) bool {
	for _, u := range units {
		began := s.sinceStart()
		payload, err := s.fetchUnit(u)
		if err != nil {
			s.fail(err)
			return false
		}
		evs, err := s.loader.FeedDemand(u.Class, u.Kind, u.Body, payload, u.CRC)
		if err != nil {
			s.fail(err)
			return false
		}
		s.deliver(evs)
		label := "class " + u.ClassName
		if u.Kind == stream.KindBody {
			label = u.Method.String()
		}
		s.obs.Emit(obs.DemandDone, label, int64(len(payload)), s.sinceStart()-began)
	}
	return true
}

// fetchUnit range-fetches one unit's payload, verified against the
// unit table's checksum by the client: a payload spliced together
// across a reconnect that fails verification is discarded and
// re-fetched from the range start (the last verified byte), never
// installed and never resumed from the unverified splice point.
func (s *Session) fetchUnit(u stream.UnitInfo) ([]byte, error) {
	s.mu.Lock()
	s.demands++
	s.mu.Unlock()
	p, attempts, err := s.client.FetchRangeVerified(s.ctx, s.opts.URL, u.Off, int64(u.Len), u.CRC)
	if attempts > 1 {
		s.mu.Lock()
		s.refetches += attempts - 1
		s.mu.Unlock()
	}
	if err != nil {
		return nil, fmt.Errorf("live: demand fetch of unit at %d: %w", u.Off, err)
	}
	return p, nil
}

// repairUnit is the loader's Repair hook: the main stream delivered a
// unit whose payload failed its checksum, so re-fetch just that unit's
// bytes with a range request against the unit table. The loader
// re-verifies the returned payload, so this only has to deliver bytes.
func (s *Session) repairUnit(req stream.RepairRequest) ([]byte, error) {
	u := s.unit(func(t stream.UnitInfo) bool {
		return t.Class == req.Class && t.Kind == req.Kind &&
			(req.Kind == stream.KindGlobal || t.Body == req.Body)
	})
	if u == nil {
		return nil, fmt.Errorf("live: corrupt %d-byte unit (class %d, body %d) is not in the unit table",
			req.Len, req.Class, req.Body)
	}
	began := s.sinceStart()
	s.mu.Lock()
	s.refetches++
	s.mu.Unlock()
	p, _, err := s.client.FetchRangeVerified(s.ctx, s.opts.URL, u.Off, int64(u.Len), u.CRC)
	if err != nil {
		return nil, fmt.Errorf("live: repair fetch of unit at %d: %w", u.Off, err)
	}
	s.mu.Lock()
	s.repairSpans = append(s.repairSpans, span{From: began, To: s.sinceStart()})
	s.mu.Unlock()
	return p, nil
}

// deliver publishes demand-path loader events.
func (s *Session) deliver(evs []stream.Event) {
	for _, e := range evs {
		if err := s.handleEvent(e); err != nil {
			s.fail(err)
			return
		}
	}
}
