// Package fabric is the fault-tolerant distributed sweep layer: a
// coordinator shards a campaign of fingerprint-keyed cells to workers
// under time-bounded leases, journals every completion, and reassembles
// results in submission order, so the final report is byte-identical to
// a local -j run no matter how many workers die, messages duplicate, or
// coordinators restart along the way.
//
// The design leans on the same property that makes the result cache
// sound: every cell is a pure function of its fingerprint. Execution is
// therefore at-least-once with idempotent completion — re-running a
// cell is only wasted time, never a wrong answer, and the first result
// to arrive for a key is as good as any other. The retry discipline
// mirrors the simulator's own NACK protocol: a requester (the
// coordinator) re-issues work when the responder (a worker) fails to
// answer within its window, with exponential backoff plus jitter and a
// bounded attempt cap, after which the cell is quarantined and the
// coordinator degrades gracefully by running it inline itself.
//
// Lease state machine (per cell):
//
//	pending ──lease──▶ leased ──result──▶ done
//	   ▲                  │
//	   │   expiry/fail    │ attempts < MaxAttempts: backoff
//	   └──────────────────┤
//	                      │ attempts ≥ MaxAttempts
//	                      ▼
//	               quarantined ──inline ok──▶ done
//	                      │
//	                      └──inline fail──▶ failed (terminal)
//
// A result for a known key is accepted in every state — even from an
// expired lease or a worker the coordinator gave up on — because a
// correct payload is a correct payload; duplicates are counted and
// dropped.
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"logtmse/internal/memo"
	"logtmse/internal/sweep"
)

// Cell is one unit of campaign work: a submission-order index, a
// canonical content-address (the cell fingerprint — also the dedup,
// journal and cache key), and an opaque spec the executor decodes.
// Cells sharing a Key complete together from one result.
type Cell struct {
	Index int             `json:"index"`
	Key   string          `json:"key"`
	Spec  json.RawMessage `json:"spec"`
}

// Options configure a Coordinator. The zero value of each field picks
// the documented default.
type Options struct {
	// Name labels the campaign in /progress.
	Name string
	// LeaseTTL is how long a worker may hold a cell without
	// heartbeating before the coordinator re-issues it (default 10s).
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per cell (expiries plus
	// worker-reported failures) before quarantine (default 4).
	MaxAttempts int
	// BackoffBase/BackoffCap shape the exponential backoff between
	// re-issues of a failed cell: attempt k waits in
	// [d/2, d] for d = min(BackoffBase << (k-1), BackoffCap) — the
	// half-jitter keeps a herd of re-issued cells from thundering back
	// in lockstep (defaults 100ms / 5s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed seeds the backoff jitter (default 1).
	Seed int64
	// JournalPath, when non-empty, persists every completion to an
	// append-only CRC-checked ledger; reopening the same path resumes
	// the campaign. Empty runs journal-less (a killed coordinator then
	// restarts from the cache, or from scratch).
	JournalPath string
	// FsyncJournal fsyncs the ledger after every record.
	FsyncJournal bool
	// Cache, when non-nil, is the coordinator's memo tier: completions
	// are stored into it, cells it already holds complete without
	// leasing, and workers may read/replenish it through the /cache
	// endpoints (the remote tier of their own memo caches).
	Cache *memo.Cache
	// Inline executes a cell on the coordinator itself: the graceful
	// degradation path for quarantined cells (and for IdleInline).
	// Required.
	Inline func(Cell) ([]byte, error)
	// IdleInline, when positive, lets the coordinator start executing
	// pending cells inline after that long without any worker activity
	// — a campaign with no workers still completes, just slowly.
	IdleInline time.Duration
	// Logf, when non-nil, receives one-line progress/warning messages.
	Logf func(format string, args ...interface{})
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 5 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

type cellStatus uint8

const (
	statusPending cellStatus = iota
	statusLeased
	statusQuarantined
	statusDone
	statusFailed
)

type cellState struct {
	status     cellStatus
	attempts   int
	eligibleAt time.Time
	leaseID    string
	payload    []byte
	err        string
}

type lease struct {
	id      string
	cell    int
	worker  string
	expires time.Time
}

// Progress is a point-in-time snapshot of the campaign, served as
// /progress and folded into the final summary line.
type Progress struct {
	Name             string  `json:"name"`
	CellsTotal       int     `json:"cells_total"`
	CellsDone        int     `json:"cells_done"`
	CellsPending     int     `json:"cells_pending"`
	CellsLeased      int     `json:"cells_leased"`
	CellsQuarantined int     `json:"cells_quarantined"`
	CellsFailed      int     `json:"cells_failed"`
	Resumed          int     `json:"cells_resumed"`
	CacheHits        int     `json:"cells_cached"`
	LeasesGranted    uint64  `json:"leases_granted"`
	Results          uint64  `json:"results"`
	DuplicateResults uint64  `json:"duplicate_results"`
	ExpiredLeases    uint64  `json:"expired_leases"`
	WorkerFailures   uint64  `json:"worker_failures"`
	InlineRuns       uint64  `json:"inline_runs"`
	ElapsedSec       float64 `json:"elapsed_seconds"`
}

// Coordinator shards one campaign. Construct with NewCoordinator; all
// methods are safe for concurrent use (the HTTP handlers call them from
// request goroutines while Run loops).
type Coordinator struct {
	opt     Options
	cells   []Cell
	byKey   map[string][]int
	journal *Journal

	mu         sync.Mutex
	st         []cellState
	leases     map[string]*lease
	remaining  int
	closed     bool
	doneClosed bool
	seq        uint64
	rng        *rand.Rand
	activity   time.Time
	start      time.Time
	done       chan struct{}

	resumed, cacheHits                                             int
	granted, results, dupResults, expired, workerFails, inlineRuns uint64
}

// NewCoordinator builds a coordinator over cells (in submission order),
// resuming from the journal and the cache: any cell either already
// holds completes immediately and is never leased.
func NewCoordinator(cells []Cell, opt Options) (*Coordinator, error) {
	opt = opt.withDefaults()
	if opt.Inline == nil {
		return nil, errors.New("fabric: Options.Inline is required")
	}
	co := &Coordinator{
		opt:      opt,
		cells:    cells,
		byKey:    make(map[string][]int, len(cells)),
		st:       make([]cellState, len(cells)),
		leases:   make(map[string]*lease),
		rng:      rand.New(rand.NewSource(opt.Seed)),
		start:    time.Now(),
		activity: time.Now(),
		done:     make(chan struct{}),
	}
	for i, c := range cells {
		if c.Index != i {
			return nil, fmt.Errorf("fabric: cell %d has index %d (cells must be in submission order)", i, c.Index)
		}
		if c.Key == "" {
			return nil, fmt.Errorf("fabric: cell %d has no key", i)
		}
		co.byKey[c.Key] = append(co.byKey[c.Key], i)
	}
	co.remaining = len(cells)
	if opt.JournalPath != "" {
		j, recs, err := OpenJournal(opt.JournalPath)
		if err != nil {
			return nil, err
		}
		j.Fsync = opt.FsyncJournal
		co.journal = j
		for _, r := range recs {
			for _, i := range co.byKey[r.Key] {
				if co.st[i].status != statusDone {
					co.st[i] = cellState{status: statusDone, payload: r.Payload}
					co.remaining--
					co.resumed++
				}
			}
			// Records for keys outside this campaign (a re-scoped
			// sweep over the same journal) are kept in the file but
			// contribute nothing.
		}
	}
	if opt.Cache != nil {
		for key, idxs := range co.byKey {
			if co.st[idxs[0]].status == statusDone {
				continue
			}
			if payload, ok := opt.Cache.Get(key); ok {
				co.completeLocked(key, payload, false)
				co.cacheHits += len(idxs)
			}
		}
	}
	if co.remaining == 0 {
		co.closeDoneLocked()
	}
	co.logf("fabric: campaign %q: %d cells (%d resumed from journal, %d from cache)",
		opt.Name, len(cells), co.resumed, co.cacheHits)
	return co, nil
}

func (co *Coordinator) logf(format string, args ...interface{}) {
	if co.opt.Logf != nil {
		co.opt.Logf(format, args...)
	}
}

// Grant is one leased cell.
type Grant struct {
	LeaseID string
	Cell    Cell
	TTL     time.Duration
}

// LeaseState tells a worker what to do next.
type LeaseState int

const (
	// LeaseCell: a cell was granted — execute it.
	LeaseCell LeaseState = iota
	// LeaseWait: nothing is eligible right now (cells are leased out
	// or backing off) — poll again after Retry.
	LeaseWait
	// LeaseDone: the campaign is complete — shut down.
	LeaseDone
)

// Lease hands the lowest-index eligible pending cell to worker.
func (co *Coordinator) Lease(worker string) (Grant, LeaseState, time.Duration) {
	grants, state, retry := co.LeaseBatch(worker, 1)
	if state == LeaseCell {
		return grants[0], state, retry
	}
	return Grant{}, state, retry
}

// LeaseBatch hands up to max lowest-index eligible pending cells to
// worker in one round trip, each under its own lease — heartbeats,
// results and failures stay per-cell, so a worker that dies mid-batch
// only re-issues the cells it had not yet delivered. Batching
// amortizes the poll loop over slow links.
func (co *Coordinator) LeaseBatch(worker string, max int) ([]Grant, LeaseState, time.Duration) {
	if max < 1 {
		max = 1
	}
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	co.activity = now
	co.expireLocked(now)
	if co.remaining == 0 {
		return nil, LeaseDone, 0
	}
	var grants []Grant
	nextEligible := time.Time{}
	for i := range co.st {
		if len(grants) >= max {
			break
		}
		if co.st[i].status != statusPending {
			continue
		}
		if co.st[i].eligibleAt.After(now) {
			if nextEligible.IsZero() || co.st[i].eligibleAt.Before(nextEligible) {
				nextEligible = co.st[i].eligibleAt
			}
			continue
		}
		co.seq++
		id := fmt.Sprintf("L%d-%d", co.seq, co.rng.Int63())
		co.st[i].status = statusLeased
		co.st[i].leaseID = id
		co.leases[id] = &lease{id: id, cell: i, worker: worker, expires: now.Add(co.opt.LeaseTTL)}
		co.granted++
		grants = append(grants, Grant{LeaseID: id, Cell: co.cells[i], TTL: co.opt.LeaseTTL})
	}
	if len(grants) == 0 {
		retry := co.opt.LeaseTTL / 2
		if !nextEligible.IsZero() {
			if d := nextEligible.Sub(now); d < retry {
				retry = d
			}
		}
		if retry < 10*time.Millisecond {
			retry = 10 * time.Millisecond
		}
		return nil, LeaseWait, retry
	}
	return grants, LeaseCell, 0
}

// Heartbeat extends a live lease and reports whether it is still held;
// a worker whose lease is gone should abandon the cell (its result
// would still be accepted, but another worker may already own it).
func (co *Coordinator) Heartbeat(leaseID string) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.activity = time.Now()
	l, ok := co.leases[leaseID]
	if !ok {
		return false
	}
	l.expires = time.Now().Add(co.opt.LeaseTTL)
	return true
}

// Result delivers a completed cell. Idempotent: duplicates (a retried
// POST whose first copy did land, a second worker finishing a
// re-issued cell) are counted and dropped. The lease may be expired or
// unknown — the payload is still accepted, because any result for a
// known key is correct by construction.
func (co *Coordinator) Result(leaseID, key string, payload []byte) (dup bool, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed {
		return false, errors.New("fabric: coordinator closed")
	}
	co.activity = time.Now()
	idxs, ok := co.byKey[key]
	if !ok {
		return false, fmt.Errorf("fabric: result for unknown cell %s", key)
	}
	if l, ok := co.leases[leaseID]; ok && co.cells[l.cell].Key == key {
		delete(co.leases, leaseID)
	}
	open := false
	for _, i := range idxs {
		if s := co.st[i].status; s != statusDone && s != statusFailed {
			open = true
			break
		}
	}
	if !open {
		co.dupResults++
		return true, nil
	}
	co.results++
	co.completeLocked(key, payload, true)
	return false, nil
}

// Fail reports a worker-side execution failure (an error or a trapped
// panic): the lease is released and the cell backs off or quarantines.
func (co *Coordinator) Fail(leaseID, key, msg string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.activity = time.Now()
	co.workerFails++
	l, ok := co.leases[leaseID]
	if !ok || co.cells[l.cell].Key != key {
		return // lease already expired and re-issued; nothing to release
	}
	co.logf("fabric: worker %s failed cell %d (%s): %s", l.worker, l.cell, shortKey(key), firstLine(msg))
	delete(co.leases, leaseID)
	co.releaseLocked(l.cell, time.Now())
}

// expireLocked re-pends every lease past its deadline.
func (co *Coordinator) expireLocked(now time.Time) {
	for id, l := range co.leases {
		if now.After(l.expires) {
			co.expired++
			co.logf("fabric: lease on cell %d (%s) held by %s expired; re-issuing", l.cell, shortKey(co.cells[l.cell].Key), l.worker)
			delete(co.leases, id)
			co.releaseLocked(l.cell, now)
		}
	}
}

// releaseLocked returns a leased cell to the pool: backoff-delayed
// pending below the attempt cap, quarantined at it.
func (co *Coordinator) releaseLocked(i int, now time.Time) {
	s := &co.st[i]
	if s.status != statusLeased {
		return
	}
	s.leaseID = ""
	s.attempts++
	if s.attempts >= co.opt.MaxAttempts {
		s.status = statusQuarantined
		co.logf("fabric: cell %d (%s) quarantined after %d attempts; will run inline", i, shortKey(co.cells[i].Key), s.attempts)
		return
	}
	s.status = statusPending
	s.eligibleAt = now.Add(co.backoffLocked(s.attempts))
}

// backoffLocked returns the jittered exponential delay for attempt k
// (1-based): uniform in [d/2, d] with d = min(base << (k-1), cap).
func (co *Coordinator) backoffLocked(k int) time.Duration {
	d := co.opt.BackoffBase
	for i := 1; i < k && d < co.opt.BackoffCap; i++ {
		d *= 2
	}
	if d > co.opt.BackoffCap {
		d = co.opt.BackoffCap
	}
	half := int64(d / 2)
	return time.Duration(half + co.rng.Int63n(half+1))
}

// completeLocked marks every cell sharing key done, journals the
// completion, and stores it in the cache. A cell that had failed
// terminally is revived — a correct payload trumps a dead end — without
// disturbing the remaining count it already gave up.
func (co *Coordinator) completeLocked(key string, payload []byte, journal bool) {
	idxs := co.byKey[key]
	for _, i := range idxs {
		s := &co.st[i]
		switch s.status {
		case statusDone:
			continue
		case statusFailed:
			s.err = ""
		default:
			co.remaining--
		}
		if s.leaseID != "" {
			delete(co.leases, s.leaseID)
		}
		s.status = statusDone
		s.leaseID = ""
		s.payload = payload
	}
	if journal {
		if co.journal != nil {
			if err := co.journal.Append(Record{Index: idxs[0], Key: key, Payload: payload}); err != nil {
				co.logf("fabric: journal append failed (campaign continues; resume will recompute this cell): %v", err)
			}
		}
		if co.opt.Cache != nil {
			co.opt.Cache.Put(key, payload)
		}
	}
	if co.remaining == 0 {
		co.closeDoneLocked()
	}
}

// closeDoneLocked closes the completion channel exactly once.
func (co *Coordinator) closeDoneLocked() {
	if !co.doneClosed {
		co.doneClosed = true
		close(co.done)
	}
}

// failTerminalLocked records an inline-execution failure: the cell is
// out of options.
func (co *Coordinator) failTerminalLocked(i int, msg string) {
	s := &co.st[i]
	if s.status == statusDone || s.status == statusFailed {
		return
	}
	s.status = statusFailed
	s.err = msg
	co.remaining--
	if co.remaining == 0 {
		co.closeDoneLocked()
	}
}

// Progress snapshots the campaign counters.
func (co *Coordinator) Progress() Progress {
	co.mu.Lock()
	defer co.mu.Unlock()
	p := Progress{
		Name:             co.opt.Name,
		CellsTotal:       len(co.cells),
		Resumed:          co.resumed,
		CacheHits:        co.cacheHits,
		LeasesGranted:    co.granted,
		Results:          co.results,
		DuplicateResults: co.dupResults,
		ExpiredLeases:    co.expired,
		WorkerFailures:   co.workerFails,
		InlineRuns:       co.inlineRuns,
		ElapsedSec:       time.Since(co.start).Seconds(),
	}
	for i := range co.st {
		switch co.st[i].status {
		case statusPending:
			p.CellsPending++
		case statusLeased:
			p.CellsLeased++
		case statusQuarantined:
			p.CellsQuarantined++
		case statusDone:
			p.CellsDone++
		case statusFailed:
			p.CellsFailed++
		}
	}
	return p
}

// Run drives the campaign to completion: it scans for expired leases,
// executes quarantined cells inline, optionally picks up pending cells
// itself when workers go idle, and returns every payload in submission
// order. On ctx cancellation it returns ctx.Err() immediately — the
// journal already holds everything completed, so a subsequent
// coordinator resumes where this one died.
//
// If any cell failed terminally (inline execution failed too), Run
// returns the completed payloads alongside an error naming the victims:
// graceful degradation ends at honestly reporting a cell nothing could
// compute.
func (co *Coordinator) Run(ctx context.Context) ([][]byte, error) {
	tick := co.opt.LeaseTTL / 4
	if tick > time.Second {
		tick = time.Second
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		now := time.Now()
		co.mu.Lock()
		co.expireLocked(now)
		var q []int
		for i := range co.st {
			if co.st[i].status == statusQuarantined {
				q = append(q, i)
			}
		}
		// Idle degradation: with no worker activity for IdleInline,
		// self-lease the lowest eligible pending cell and run it here.
		inlinePick := -1
		if co.opt.IdleInline > 0 && len(q) == 0 && now.Sub(co.activity) > co.opt.IdleInline {
			for i := range co.st {
				if co.st[i].status == statusPending && !co.st[i].eligibleAt.After(now) {
					co.st[i].status = statusLeased
					inlinePick = i
					break
				}
			}
		}
		co.mu.Unlock()
		for _, i := range q {
			co.runInline(i, statusQuarantined)
		}
		if inlinePick >= 0 {
			co.runInline(inlinePick, statusLeased)
		}
		select {
		case <-co.done:
			return co.collect()
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
		}
	}
}

// runInline executes cell i on the coordinator (trapping panics — an
// inline panic fails that cell, not the campaign) and completes or
// terminally fails it.
func (co *Coordinator) runInline(i int, from cellStatus) {
	key := co.cells[i].Key
	co.mu.Lock()
	if co.st[i].status != from {
		co.mu.Unlock()
		return // a straggling worker result beat us to it
	}
	co.inlineRuns++
	co.mu.Unlock()
	co.logf("fabric: running cell %d (%s) inline", i, shortKey(key))
	var payload []byte
	err := sweep.Trap(func() error {
		var e error
		payload, e = co.opt.Inline(co.cells[i])
		return e
	})
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.st[i].status == statusDone {
		co.dupResults++
		return
	}
	if err != nil {
		co.logf("fabric: inline execution of cell %d (%s) failed: %s", i, shortKey(key), firstLine(err.Error()))
		co.failTerminalLocked(i, err.Error())
		return
	}
	co.results++
	co.completeLocked(key, payload, true)
}

// collect assembles the final payload slice in submission order.
func (co *Coordinator) collect() ([][]byte, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([][]byte, len(co.cells))
	var failed []string
	for i := range co.st {
		switch co.st[i].status {
		case statusDone:
			out[i] = co.st[i].payload
		case statusFailed:
			failed = append(failed, fmt.Sprintf("cell %d (%s): %s", i, shortKey(co.cells[i].Key), firstLine(co.st[i].err)))
		}
	}
	if len(failed) > 0 {
		return out, fmt.Errorf("fabric: %d cell(s) failed terminally:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return out, nil
}

// Close releases the journal. Call after Run returns; in-flight HTTP
// results arriving later are rejected rather than lost from the ledger.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	co.closed = true
	j := co.journal
	co.journal = nil
	co.mu.Unlock()
	if j != nil {
		return j.Close()
	}
	return nil
}

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
