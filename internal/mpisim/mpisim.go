// Package mpisim is the MPI substrate: an in-process message-passing world
// of P ranks with per-rank virtual clocks that synchronize exactly the way
// MPI communication serializes real time (a receive cannot complete before
// the matching send's departure plus the network model's transfer time;
// collectives align all participants on the latest arrival).
//
// # Execution model
//
// The world is a discrete-event scheduler, not a pool of free-running
// goroutines. Rank bodies are resumable coroutines: each rank does run on
// its own goroutine, but exactly one is awake at a time, and control is
// handed off through per-rank scheduler channels — a rank that blocks (a
// receive with no matching message, a collective still waiting for peers)
// registers its wake condition, dispatches the next runnable rank from a
// virtual-clock-ordered priority queue, and parks until a peer's event
// completes it. Point-to-point messages live in sparse per-pair FIFO
// queues allocated on first use, sends never block (unbounded queues, so
// opposing SendRecv bursts cannot deadlock), and a collective is an O(P)
// rendezvous event: the last arriver computes the clock maximum and marks
// every waiter runnable.
//
// Because scheduler state is only ever touched by the single running rank,
// the engine needs no locks on its hot path, allocates O(P) per world
// (against the retired engine's eager ranks² mailbox matrix), and detects
// true deadlock: if every live rank is blocked, Run panics with a
// diagnostic instead of hanging.
//
// The previous implementation — one free-running goroutine per rank,
// buffered-channel mailboxes, sync.Cond collectives — is retired to
// package oracle and retained as the reference engine: the differential
// and fuzz suites assert that both engines produce identical per-rank
// Clock() and CommNS on randomized programs, and `unimem-bench -bench`
// measures the two against each other.
//
// # Determinism
//
// Scheduling is fully deterministic: runnable ranks dispatch in
// (virtual clock, rank) order, so a program's complete event order — not
// just its dataflow-determined final clocks — is reproducible run to run.
//
// # Abort
//
// Abort poisons the world. Every MPI operation attempted after the abort
// panics with a private sentinel that Run recovers and swallows (ranks
// parked mid-operation wake and unwind the same way), so a cancelled run
// tears down promptly without ever returning nil payloads that could be
// mistaken for genuine empty messages. Harness code that must clean up
// per-rank state on that path (stopping helper threads) recovers the
// sentinel itself — see IsAbort.
//
// It also provides the PMPI-style interposition layer of the paper's
// Fig. 7: every MPI operation first invokes the registered hook, which is
// how the Unimem runtime transparently identifies execution phases and
// toggles profiling without programmer intervention.
package mpisim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"unimem/internal/machine"
)

// Hook is the PMPI interposition callback: op is the MPI operation name
// ("Send", "Allreduce", ...), invoked on the calling rank's goroutine before
// the operation executes.
type Hook interface {
	MPICall(rank int, op string)
}

// HookFunc adapts a function to the Hook interface.
type HookFunc func(rank int, op string)

// MPICall implements Hook.
func (f HookFunc) MPICall(rank int, op string) { f(rank, op) }

// message is one point-to-point payload. Data is optional real bytes; the
// clock synchronization uses Bytes (simulated size) and the departure time.
type message struct {
	tag    int
	bytes  int64
	data   []byte
	depart int64 // sender virtual time when the message left
}

// World is a fixed-size communicator of P ranks. A World is single-use:
// construct, Run once, discard.
type World struct {
	P    int
	Mach *machine.Machine

	sched *sched

	// abortCh is closed by Abort; parked ranks select on it so none stays
	// asleep after the world is torn down.
	abortCh   chan struct{}
	abortOnce sync.Once
	aborted   atomic.Bool
	ran       atomic.Bool
	// deadlockDiag is set (inside abortOnce) when the scheduler detected
	// that every live rank was blocked; Run re-panics it after teardown.
	deadlockDiag string
}

// NewWorld creates a world of p ranks over the given machine. Allocation
// is O(p): message queues are sparse, created on first use per rank pair.
func NewWorld(p int, m *machine.Machine) *World {
	if p <= 0 {
		panic("mpisim: world size must be positive")
	}
	w := &World{P: p, Mach: m, abortCh: make(chan struct{})}
	w.sched = newSched(w)
	return w
}

// Abort poisons the world: every rank parked in a communication operation
// wakes immediately, and every in-progress or future MPI operation panics
// with the abort sentinel, which Run recovers per rank (see IsAbort).
// Results of an aborted run are meaningless and must be discarded. Abort is
// idempotent and safe from any goroutine — it is how a context cancellation
// reaches ranks parked inside collectives.
func (w *World) Abort() {
	w.abortOnce.Do(func() {
		w.aborted.Store(true)
		close(w.abortCh)
	})
}

// Aborted reports whether Abort has been called.
func (w *World) Aborted() bool { return w.aborted.Load() }

// abortPanic is the sentinel post-abort operations panic with.
type abortPanic struct{}

func (abortPanic) String() string { return "mpisim: world aborted" }

// IsAbort reports whether a recovered panic value is the world-abort
// sentinel. Rank bodies that own external resources (helper goroutines)
// recover it to clean up, then re-panic or return; Run swallows it.
func IsAbort(p interface{}) bool {
	_, ok := p.(abortPanic)
	return ok
}

// Run executes body as P resumable coroutines and blocks until every rank
// returns (or unwinds through an abort). Non-abort panics in rank bodies
// poison the world so blocked peers unwind, then propagate from Run; a
// detected deadlock (every live rank blocked on a peer) propagates as a
// "mpisim: deadlock" panic with a diagnostic.
func (w *World) Run(body func(c *Comm)) {
	if !w.ran.CompareAndSwap(false, true) {
		panic("mpisim: World.Run called twice (worlds are single-use)")
	}
	s := w.sched
	var wg sync.WaitGroup
	panics := make(chan interface{}, w.P)
	for _, c := range s.ranks {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if IsAbort(p) {
						return // sanctioned teardown
					}
					// A real panic: poison the world so parked peers
					// unwind instead of waiting for this rank forever.
					w.Abort()
					panics <- fmt.Sprintf("rank %d: %v", c.rank, p)
				}
			}()
			// Park until dispatched (or the world dies first).
			select {
			case <-c.resume:
			case <-w.abortCh:
				panic(abortPanic{})
			}
			body(c)
			// On an aborted world the scheduler is no longer owned by
			// anyone (peers unwind concurrently off abortCh), so a body
			// that returns during teardown — e.g. after recovering the
			// sentinel itself — must not touch the run queue.
			if !w.aborted.Load() {
				s.finish(c)
			}
		}(c)
	}
	s.start()
	wg.Wait()
	s.flushStats()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
	if w.deadlockDiag != "" {
		panic(w.deadlockDiag)
	}
}

// Comm is one rank's endpoint: rank id, virtual clock, sparse per-source
// receive queues and the PMPI hook. It doubles as the rank's scheduler
// record; see sched.go for the coroutine fields.
type Comm struct {
	world *World
	rank  int
	clock int64
	hook  Hook

	// CommNS accumulates virtual time spent inside MPI operations
	// (communication + synchronization wait), for reporting.
	CommNS int64

	// resume is the rank's scheduler channel: a dispatch token arrives
	// when the rank becomes the running coroutine.
	resume chan struct{}
	state  rankState
	// inbox[src] holds undelivered messages from src in arrival order
	// (the tag-matching reorder buffer: Recv takes the first tag match).
	// Allocated on first message — worlds are O(P) unless traffic is
	// genuinely all-to-all.
	inbox map[int][]message
	// Blocked-receive descriptor (state == stBlockedRecv).
	wantSrc int
	wantTag int
	got     message
	// Collective rendezvous result (state == stBlockedColl).
	collMax int64
	// Poll rendezvous result (state == stBlockedColl, parked in a Poll).
	pollRes bool
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.P }

// World returns the communicator's world.
func (c *Comm) World() *World { return c.world }

// Clock returns the rank's current virtual time in ns.
func (c *Comm) Clock() int64 { return c.clock }

// Advance moves the rank's virtual clock forward by d ns (compute time,
// memory time, runtime overhead — anything local).
func (c *Comm) Advance(d int64) {
	if d < 0 {
		panic("mpisim: negative clock advance")
	}
	c.clock += d
}

// AdvanceTo moves the clock to t if t is later.
func (c *Comm) AdvanceTo(t int64) {
	if t > c.clock {
		c.clock = t
	}
}

// SetHook registers the PMPI interposition hook (nil disables).
func (c *Comm) SetHook(h Hook) { c.hook = h }

func (c *Comm) callHook(op string) {
	if c.hook != nil {
		c.hook.MPICall(c.rank, op)
	}
}

// checkAbort makes every post-abort operation fail fast with the sentinel.
func (c *Comm) checkAbort() {
	if c.world.aborted.Load() {
		panic(abortPanic{})
	}
}

// Send transmits bytes simulated bytes (with optional real payload) to dst
// with the given tag. The sender is charged the local injection overhead.
// Sends never block: the per-pair queue is unbounded.
func (c *Comm) Send(dst, tag int, bytes int64, data []byte) {
	c.callHook("Send")
	c.send(dst, tag, bytes, data)
}

// Recv blocks until a message with the tag arrives from src, synchronizes
// the virtual clock with the sender, and returns the payload.
func (c *Comm) Recv(src, tag int) []byte {
	c.callHook("Recv")
	return c.recv(src, tag)
}

// Request is a handle for a non-blocking operation, completed by Wait.
type Request struct {
	comm *Comm
	done bool
	// recv fields
	isRecv   bool
	src, tag int
	data     []byte
}

// Isend starts a non-blocking send. Sends are truly non-blocking (the
// per-pair queue is unbounded), so the returned request completes
// trivially, matching MPI's eager protocol for the message sizes the
// workloads use. Per the paper's phase definition, a non-blocking call is
// not a phase boundary, so Isend does not invoke the PMPI hook; the
// completion (Wait) does.
func (c *Comm) Isend(dst, tag int, bytes int64, data []byte) *Request {
	c.send(dst, tag, bytes, data)
	return &Request{comm: c, done: true}
}

// Irecv starts a non-blocking receive, completed (and clock-synchronized)
// by Wait.
func (c *Comm) Irecv(src, tag int) *Request {
	return &Request{comm: c, isRecv: true, src: src, tag: tag}
}

// Wait completes a non-blocking operation. It is a communication-completion
// operation and therefore a phase boundary (invokes the PMPI hook).
func (r *Request) Wait() []byte {
	r.comm.callHook("Wait")
	if r.done {
		return r.data
	}
	r.done = true
	if r.isRecv {
		r.data = r.comm.recv(r.src, r.tag)
	}
	return r.data
}

// logP returns ceil(log2(P)), minimum 1.
func (w *World) logP() float64 {
	if w.P <= 1 {
		return 1
	}
	return math.Ceil(math.Log2(float64(w.P)))
}

// collective aligns all ranks on the latest arrival, then charges cost ns.
func (c *Comm) collective(op string, cost float64) {
	c.checkAbort()
	c.callHook(op)
	before := c.clock
	max := c.world.sched.arrive(c)
	c.clock = max + int64(cost)
	c.CommNS += c.clock - before
}

// Barrier synchronizes all ranks (log P latency exchanges).
func (c *Comm) Barrier() {
	c.collective("Barrier", 2*c.world.logP()*c.world.Mach.NetLatencyNS)
}

// Allreduce models a recursive-doubling allreduce of bytes per rank.
func (c *Comm) Allreduce(bytes int64) {
	per := c.world.Mach.MsgTimeNS(bytes)
	c.collective("Allreduce", 2*c.world.logP()*per)
}

// Bcast models a binomial-tree broadcast of bytes.
func (c *Comm) Bcast(bytes int64) {
	per := c.world.Mach.MsgTimeNS(bytes)
	c.collective("Bcast", c.world.logP()*per)
}

// Reduce models a binomial-tree reduction of bytes.
func (c *Comm) Reduce(bytes int64) {
	per := c.world.Mach.MsgTimeNS(bytes)
	c.collective("Reduce", c.world.logP()*per)
}

// Alltoall models a personalized all-to-all exchanging bytes per rank pair.
func (c *Comm) Alltoall(bytesPerPair int64) {
	per := c.world.Mach.MsgTimeNS(bytesPerPair)
	c.collective("Alltoall", float64(c.world.P-1)*per)
}

// Poll is a zero-cost unanimity vote: every rank calls it at the same
// logical point, and it returns true on all ranks iff every rank passed
// yes AND every rank passed an equal payload. Unlike the collectives it
// charges no virtual time (clocks and CommNS are untouched) and does not
// invoke the PMPI hook — it is pure control-plane agreement, the
// primitive the steady-state fast path uses to decide, in lockstep, whether
// an iteration window may be skipped. Callers must guarantee every rank
// reaches each Poll the same number of times (the decision to poll must
// depend only on rank-independent state; per-rank conditions belong in
// the vote), or the world deadlocks exactly as a mismatched collective
// would.
func (c *Comm) Poll(yes bool, payload int64) bool {
	c.checkAbort()
	if c.world.P == 1 {
		return yes
	}
	return c.world.sched.poll(c, yes, payload)
}

// SendRecv performs a blocking exchange with the two peers: sends to dst and
// receives from src (the classic halo-exchange primitive). Sends are
// non-blocking against unbounded queues, so opposing pairs cannot deadlock
// no matter how many exchanges are in flight.
func (c *Comm) SendRecv(dst, src, tag int, bytes int64, data []byte) []byte {
	c.callHook("SendRecv")
	c.send(dst, tag, bytes, data)
	return c.recv(src, tag)
}
