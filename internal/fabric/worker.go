package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"logtmse/internal/sweep"
)

// Worker is the client half of the fabric: it leases cells from a
// coordinator, executes them through Exec, and reports results. A
// worker may die at any instant — mid-cell, mid-report — and the
// campaign still completes: the coordinator re-leases whatever the
// worker held once its lease expires, and duplicate deliveries are
// dropped idempotently on the coordinator side.
type Worker struct {
	// Base is the coordinator's base URL (e.g. "http://host:7070").
	Base string
	// ID names the worker in coordinator logs. Optional.
	ID string
	// Exec runs one cell and returns its payload. Panics are trapped
	// and reported as cell failures, not worker deaths.
	Exec func(ctx context.Context, c Cell) ([]byte, error)
	// Batch, when > 1, asks the coordinator for up to that many cells
	// per lease round trip. Each cell still rides its own lease, so a
	// death mid-batch only re-issues undelivered cells. The cells run
	// sequentially through Exec (every lease is heartbeated for the
	// whole batch, so slow cells do not expire their waiting
	// batch-mates).
	Batch int
	// Client is the HTTP client; nil means a dedicated client with a
	// sane timeout.
	Client *http.Client
	// PollMax caps how long the worker sleeps when the coordinator says
	// "wait". 0 means 2s.
	PollMax time.Duration
	// GiveUpAfter bounds how long the coordinator may stay unreachable
	// (consecutive transport failures, no successful request) before
	// Run returns ErrUnreachable. 0 retries forever — the right choice
	// when a supervisor restarts coordinators in place; a bound is the
	// right choice for fleets whose campaign may simply be over (a
	// worker cannot distinguish "done and gone" from "crashed").
	GiveUpAfter time.Duration
	// Logf receives progress lines. Nil discards them.
	Logf func(format string, args ...interface{})
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// ErrUnreachable is returned by Run when the coordinator has been
// unreachable for longer than Worker.GiveUpAfter.
var ErrUnreachable = errors.New("fabric: coordinator unreachable")

// Run leases and executes cells until the coordinator reports the
// campaign done (returns nil) or ctx is cancelled (returns ctx.Err()).
// Transport errors are retried with backoff — a worker outlives
// coordinator restarts and network blips — bounded by GiveUpAfter.
func (w *Worker) Run(ctx context.Context) error {
	transportBackoff := 20 * time.Millisecond
	var downSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		max := 1
		if w.Batch > 1 {
			max = w.Batch
		}
		var resp leaseResp
		err := w.post(ctx, "/lease", leaseReq{Worker: w.ID, Max: max}, &resp)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			now := time.Now()
			if downSince.IsZero() {
				downSince = now
			}
			if w.GiveUpAfter > 0 && now.Sub(downSince) >= w.GiveUpAfter {
				return fmt.Errorf("%w for %v: %v", ErrUnreachable, now.Sub(downSince).Round(time.Second), err)
			}
			w.logf("fabric worker %s: lease: %v (retrying in %v)", w.ID, err, transportBackoff)
			if !sleepCtx(ctx, transportBackoff) {
				return ctx.Err()
			}
			transportBackoff = minDuration(transportBackoff*2, time.Second)
			continue
		}
		transportBackoff = 20 * time.Millisecond
		downSince = time.Time{}
		switch resp.Status {
		case "done":
			return nil
		case "wait":
			wait := time.Duration(resp.RetryMillis) * time.Millisecond
			max := w.PollMax
			if max <= 0 {
				max = 2 * time.Second
			}
			if wait <= 0 || wait > max {
				wait = max
			}
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
		case "cell":
			grants := resp.Grants
			if len(grants) == 0 {
				// A coordinator that predates batch grants sends only
				// the single-cell fields.
				if resp.Cell == nil {
					w.logf("fabric worker %s: malformed lease response (no cell)", w.ID)
					continue
				}
				grants = []grantMsg{{LeaseID: resp.LeaseID, Cell: *resp.Cell, TTLMillis: resp.TTLMillis}}
			}
			w.runBatch(ctx, grants)
		default:
			w.logf("fabric worker %s: unknown lease status %q", w.ID, resp.Status)
			if !sleepCtx(ctx, 100*time.Millisecond) {
				return ctx.Err()
			}
		}
	}
}

// deliver posts one result, retrying transport errors: the coordinator
// may process a delivery whose response we never see, so retries can
// produce duplicates — which the coordinator drops. A 4xx is permanent
// (coordinator closed, unknown key): abandon instead.
func (w *Worker) deliver(ctx context.Context, leaseID, key string, payload []byte) {
	backoff := 20 * time.Millisecond
	downSince := time.Now()
	for {
		var rr resultResp
		err := w.post(ctx, "/result", resultReq{LeaseID: leaseID, Key: key, Payload: payload}, &rr)
		if err == nil {
			return
		}
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, errPermanent) {
			w.logf("fabric worker %s: result for %s rejected: %v", w.ID, shortKey(key), err)
			return
		}
		if w.GiveUpAfter > 0 && time.Since(downSince) >= w.GiveUpAfter {
			// Abandon: the lease expires and the cell is re-run (or the
			// campaign is already over and the result is moot).
			w.logf("fabric worker %s: result for %s undeliverable, abandoning: %v", w.ID, shortKey(key), err)
			return
		}
		w.logf("fabric worker %s: result for %s: %v (retrying in %v)", w.ID, shortKey(key), err, backoff)
		if !sleepCtx(ctx, backoff) {
			return
		}
		backoff = minDuration(backoff*2, time.Second)
	}
}

// runBatch executes the granted cells one by one through Exec, with
// every cell's lease heartbeated for the whole batch so slow cells do
// not expire their waiting batch-mates. Each cell is delivered or
// failed on its own — the coordinator never learns batches exist.
// Panics are trapped and reported as cell failures. If ctx is cancelled
// mid-cell the result is abandoned — exactly the "worker killed
// mid-cell" case the lease protocol exists for.
func (w *Worker) runBatch(ctx context.Context, grants []grantMsg) {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	for _, g := range grants {
		if ttl := time.Duration(g.TTLMillis) * time.Millisecond; ttl > 0 {
			go w.heartbeatLoop(hbCtx, g.LeaseID, ttl)
		}
	}
	for _, g := range grants {
		if ctx.Err() != nil {
			return
		}
		var payload []byte
		err := sweep.Trap(func() error {
			var execErr error
			payload, execErr = w.Exec(ctx, g.Cell)
			return execErr
		})
		if ctx.Err() != nil {
			// Killed mid-cell (or right after): abandon the result. The
			// leases expire and the cells are re-run elsewhere.
			return
		}
		if err != nil {
			w.logf("fabric worker %s: cell %s failed: %v", w.ID, shortKey(g.Cell.Key), err)
			// Best-effort: if the report is lost the lease just expires.
			var fr resultResp
			w.post(ctx, "/fail", failReq{LeaseID: g.LeaseID, Key: g.Cell.Key, Error: err.Error()}, &fr)
			continue
		}
		w.deliver(ctx, g.LeaseID, g.Cell.Key, payload)
	}
}

// heartbeatLoop extends the lease every ttl/3 until stopped. A lost
// heartbeat is harmless (the next one renews); a dead worker simply
// stops heartbeating and the lease expires.
func (w *Worker) heartbeatLoop(ctx context.Context, leaseID string, ttl time.Duration) {
	interval := ttl / 3
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var hr heartbeatResp
			w.post(ctx, "/heartbeat", heartbeatReq{LeaseID: leaseID}, &hr)
		}
	}
}

// post sends one JSON request and decodes the JSON response. Non-2xx
// responses are errors carrying the server's message.
func (w *Worker) post(ctx context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 == 4 {
		return fmt.Errorf("%s: %s: %s: %w", path, resp.Status, firstLine(string(data)), errPermanent)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, firstLine(string(data)))
	}
	return json.Unmarshal(data, out)
}

// errPermanent marks a coordinator rejection that retrying cannot fix.
var errPermanent = errors.New("permanent")

// RemoteCacheFuncs returns memo.Cache Remote/RemoteStore hooks backed
// by the coordinator's /cache endpoint, making the coordinator a shared
// cache tier for every worker in the campaign. Failures are treated as
// misses / dropped stores — the cache is an optimization, never a
// dependency.
func RemoteCacheFuncs(base string, client *http.Client) (remote func(string) ([]byte, bool), store func(string, []byte)) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	remote = func(key string) ([]byte, bool) {
		resp, err := client.Get(base + "/cache?key=" + url.QueryEscape(key))
		if err != nil {
			return nil, false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, false
		}
		v, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		if err != nil {
			return nil, false
		}
		return v, true
	}
	store = func(key string, payload []byte) {
		req, err := http.NewRequest(http.MethodPut, base+"/cache?key="+url.QueryEscape(key), bytes.NewReader(payload))
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			return
		}
		resp.Body.Close()
	}
	return remote, store
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
