package fabric

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"logtmse/internal/memo"
)

// testCells builds n cells in submission order with unique
// content-address keys and a tiny JSON spec.
func testCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		spec := json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))
		sum := sha256.Sum256(spec)
		cells[i] = Cell{Index: i, Key: fmt.Sprintf("%x", sum), Spec: spec}
	}
	return cells
}

// execPayload is the reference executor: a pure function of the cell,
// so every re-execution, duplicate, and resume produces identical bytes.
func execPayload(c Cell) []byte {
	sum := sha256.Sum256(append([]byte(c.Key+"|"), c.Spec...))
	return []byte(fmt.Sprintf("%x", sum))
}

func inlineExec(c Cell) ([]byte, error) { return execPayload(c), nil }

func baseline(cells []Cell) [][]byte {
	out := make([][]byte, len(cells))
	for i, c := range cells {
		out[i] = execPayload(c)
	}
	return out
}

func assertPayloads(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d payloads, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("payload %d differs: got %q want %q", i, got[i], want[i])
		}
	}
}

// --- journal ---

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	want := []Record{
		{Index: 0, Key: "a", Payload: []byte("pa")},
		{Index: 2, Key: "c", Payload: []byte("pc")},
		{Index: 1, Key: "b", Payload: nil},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != len(want) {
		t.Fatalf("reopened journal has %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Index != want[i].Index || r.Key != want[i].Key || !bytes.Equal(r.Payload, want[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial or
// CRC-broken final frame; reopening keeps every intact record and
// truncates the tail, and appends continue cleanly from there.
func TestJournalTornTail(t *testing.T) {
	cases := map[string]struct {
		tear func([]byte) []byte
		keep int
	}{
		"half-frame": {func(b []byte) []byte { return b[:len(b)-5] }, 2},
		"len-only":   {func(b []byte) []byte { return b[:len(b)-30] }, 2},
		"crc-flip":   {func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, 2},
		// Garbage appended after intact records (a torn frame whose
		// length field is absurd): every real record survives.
		"absurd-length": {func(b []byte) []byte { return append(b, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0) }, 3},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			j, _, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			j.Append(Record{Index: 0, Key: "a", Payload: []byte("intact-a")})
			j.Append(Record{Index: 1, Key: "b", Payload: []byte("intact-b")})
			j.Append(Record{Index: 2, Key: "c", Payload: []byte("torn-victim")})
			j.Close()
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tear(buf), 0o644); err != nil {
				t.Fatal(err)
			}
			j2, recs, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tc.keep || recs[0].Key != "a" || recs[1].Key != "b" {
				t.Fatalf("after tear %q kept %d records: %+v", name, len(recs), recs)
			}
			// The ledger must accept appends after recovery.
			if err := j2.Append(Record{Index: 9, Key: "z", Payload: []byte("recomputed")}); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			_, recs, err = OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tc.keep+1 || recs[tc.keep].Key != "z" || string(recs[tc.keep].Payload) != "recomputed" {
				t.Fatalf("post-recovery append lost: %+v", recs)
			}
		})
	}
}

func TestJournalBadMagicRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, []byte("this is not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Fatal("OpenJournal clobbered a non-journal file")
	}
}

// --- coordinator state machine ---

func TestNewCoordinatorValidation(t *testing.T) {
	cells := testCells(2)
	if _, err := NewCoordinator(cells, Options{}); err == nil {
		t.Fatal("missing Inline accepted")
	}
	bad := testCells(2)
	bad[1].Index = 7
	if _, err := NewCoordinator(bad, Options{Inline: inlineExec}); err == nil {
		t.Fatal("out-of-order cells accepted")
	}
	bad2 := testCells(2)
	bad2[0].Key = ""
	if _, err := NewCoordinator(bad2, Options{Inline: inlineExec}); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestLeaseOrderResultDone(t *testing.T) {
	cells := testCells(3)
	co, err := NewCoordinator(cells, Options{Inline: inlineExec})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	var grants []Grant
	for i := 0; i < 3; i++ {
		g, st, _ := co.Lease("w")
		if st != LeaseCell {
			t.Fatalf("lease %d: state %v", i, st)
		}
		if g.Cell.Index != i {
			t.Fatalf("lease %d granted cell %d (want lowest-index order)", i, g.Cell.Index)
		}
		grants = append(grants, g)
	}
	if _, st, retry := co.Lease("w"); st != LeaseWait || retry <= 0 {
		t.Fatalf("all leased out: state %v retry %v", st, retry)
	}
	for _, g := range grants {
		if dup, err := co.Result(g.LeaseID, g.Cell.Key, execPayload(g.Cell)); err != nil || dup {
			t.Fatalf("result: dup=%v err=%v", dup, err)
		}
	}
	if _, st, _ := co.Lease("w"); st != LeaseDone {
		t.Fatalf("campaign complete but lease state %v", st)
	}
	got, err := co.collect()
	if err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, baseline(cells))
}

func TestDuplicateResultDropped(t *testing.T) {
	cells := testCells(1)
	co, err := NewCoordinator(cells, Options{Inline: inlineExec})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	g, _, _ := co.Lease("w")
	if dup, err := co.Result(g.LeaseID, g.Cell.Key, execPayload(g.Cell)); err != nil || dup {
		t.Fatalf("first result: dup=%v err=%v", dup, err)
	}
	// A retried POST whose first copy landed: dropped, counted.
	if dup, err := co.Result(g.LeaseID, g.Cell.Key, execPayload(g.Cell)); err != nil || !dup {
		t.Fatalf("second result: dup=%v err=%v", dup, err)
	}
	if p := co.Progress(); p.DuplicateResults != 1 || p.Results != 1 {
		t.Fatalf("progress = %+v, want 1 result / 1 duplicate", p)
	}
}

func TestExpiredLeaseReissuedAndLateResultAccepted(t *testing.T) {
	cells := testCells(1)
	co, err := NewCoordinator(cells, Options{
		Inline:      inlineExec,
		LeaseTTL:    15 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	g1, st, _ := co.Lease("victim")
	if st != LeaseCell {
		t.Fatalf("state %v", st)
	}
	// Let the lease expire, then lease again: same cell, new lease.
	deadline := time.Now().Add(2 * time.Second)
	var g2 Grant
	for {
		time.Sleep(5 * time.Millisecond)
		var s LeaseState
		g2, s, _ = co.Lease("heir")
		if s == LeaseCell {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired cell never re-issued")
		}
	}
	if g2.Cell.Index != 0 || g2.LeaseID == g1.LeaseID {
		t.Fatalf("re-issue: cell %d lease %q (old %q)", g2.Cell.Index, g2.LeaseID, g1.LeaseID)
	}
	if p := co.Progress(); p.ExpiredLeases == 0 {
		t.Fatalf("progress = %+v, want expired leases > 0", p)
	}
	// The original worker wasn't dead, just slow: its result under the
	// expired lease is still a correct payload — accepted.
	if dup, err := co.Result(g1.LeaseID, g1.Cell.Key, execPayload(g1.Cell)); err != nil || dup {
		t.Fatalf("late result: dup=%v err=%v", dup, err)
	}
	// The heir finishes too: duplicate, dropped.
	if dup, err := co.Result(g2.LeaseID, g2.Cell.Key, execPayload(g2.Cell)); err != nil || !dup {
		t.Fatalf("heir result: dup=%v err=%v", dup, err)
	}
	got, err := co.collect()
	if err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, baseline(cells))
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	cells := testCells(1)
	co, err := NewCoordinator(cells, Options{Inline: inlineExec, LeaseTTL: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	g, _, _ := co.Lease("steady")
	// Heartbeat well past several TTLs; the cell must never be re-issued.
	for i := 0; i < 10; i++ {
		time.Sleep(15 * time.Millisecond)
		if !co.Heartbeat(g.LeaseID) {
			t.Fatalf("heartbeat %d: lease lost", i)
		}
		if _, st, _ := co.Lease("poacher"); st != LeaseWait {
			t.Fatalf("heartbeat %d: heartbeated cell re-issued (state %v)", i, st)
		}
	}
	if co.Heartbeat("L999-bogus") {
		t.Fatal("unknown lease heartbeat reported alive")
	}
	if dup, err := co.Result(g.LeaseID, g.Cell.Key, execPayload(g.Cell)); err != nil || dup {
		t.Fatalf("result: dup=%v err=%v", dup, err)
	}
}

// TestQuarantineRunsInline: a cell that keeps failing on workers hits
// the attempt cap, quarantines, and the coordinator degrades gracefully
// by running it inline — the campaign still completes correctly.
func TestQuarantineRunsInline(t *testing.T) {
	cells := testCells(2)
	co, err := NewCoordinator(cells, Options{
		Inline:      inlineExec,
		LeaseTTL:    50 * time.Millisecond,
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	// Fail cell 0 twice (the cap); complete cell 1 normally.
	for attempt := 0; attempt < 2; attempt++ {
		deadline := time.Now().Add(2 * time.Second)
		for {
			g, st, _ := co.Lease("flaky")
			if st == LeaseCell && g.Cell.Index == 0 {
				co.Fail(g.LeaseID, g.Cell.Key, "simulated crash")
				break
			}
			if st == LeaseCell {
				if dup, err := co.Result(g.LeaseID, g.Cell.Key, execPayload(g.Cell)); err != nil || dup {
					t.Fatalf("cell 1 result: dup=%v err=%v", dup, err)
				}
				continue
			}
			if time.Now().After(deadline) {
				t.Fatalf("attempt %d: cell 0 never re-issued", attempt)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := co.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, baseline(cells))
	p := co.Progress()
	if p.CellsQuarantined != 0 || p.InlineRuns != 1 || p.WorkerFailures != 2 {
		t.Fatalf("progress = %+v, want quarantine drained by 1 inline run after 2 worker failures", p)
	}
}

// TestInlineFailureIsTerminalButIsolated: when even inline execution
// fails, that cell is reported terminally failed and every other cell
// still completes.
func TestInlineFailureIsTerminalButIsolated(t *testing.T) {
	cells := testCells(2)
	poison := cells[1].Key
	co, err := NewCoordinator(cells, Options{
		Inline: func(c Cell) ([]byte, error) {
			if c.Key == poison {
				return nil, fmt.Errorf("unexecutable")
			}
			return execPayload(c), nil
		},
		LeaseTTL:    50 * time.Millisecond,
		MaxAttempts: 1,
		BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for i := 0; i < 2; i++ {
		g, st, _ := co.Lease("w")
		if st != LeaseCell {
			t.Fatalf("lease %d: state %v", i, st)
		}
		if g.Cell.Key == poison {
			co.Fail(g.LeaseID, g.Cell.Key, "worker cannot either")
		} else if dup, err := co.Result(g.LeaseID, g.Cell.Key, execPayload(g.Cell)); err != nil || dup {
			t.Fatalf("result: dup=%v err=%v", dup, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := co.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "failed terminally") {
		t.Fatalf("Run err = %v, want terminal-failure report", err)
	}
	if !bytes.Equal(got[0], execPayload(cells[0])) {
		t.Fatalf("healthy cell lost: %q", got[0])
	}
	if got[1] != nil {
		t.Fatalf("failed cell has payload %q", got[1])
	}
}

// TestInlinePanicFailsCellNotCampaign: a panicking inline executor is
// trapped into a terminal cell failure; Run survives to report it.
func TestInlinePanicFailsCellNotCampaign(t *testing.T) {
	cells := testCells(1)
	co, err := NewCoordinator(cells, Options{
		Inline:      func(Cell) ([]byte, error) { panic("executor bug") },
		LeaseTTL:    50 * time.Millisecond,
		MaxAttempts: 1,
		BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	g, _, _ := co.Lease("w")
	co.Fail(g.LeaseID, g.Cell.Key, "boom")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = co.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "executor bug") {
		t.Fatalf("Run err = %v, want trapped panic in terminal report", err)
	}
}

// TestIdleInlineCompletesWithoutWorkers: a campaign with zero workers
// still finishes — the coordinator picks cells up itself after the idle
// window.
func TestIdleInlineCompletesWithoutWorkers(t *testing.T) {
	cells := testCells(5)
	co, err := NewCoordinator(cells, Options{
		Inline:     inlineExec,
		LeaseTTL:   40 * time.Millisecond,
		IdleInline: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := co.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, baseline(cells))
	if p := co.Progress(); p.InlineRuns != 5 {
		t.Fatalf("progress = %+v, want 5 inline runs", p)
	}
}

// TestResumeFromJournal: kill a coordinator after k completions,
// restart on the same journal — the k cells are done on arrival, never
// re-leased, and the finished report is byte-identical.
func TestResumeFromJournal(t *testing.T) {
	cells := testCells(10)
	path := filepath.Join(t.TempDir(), "journal")
	co1, err := NewCoordinator(cells, Options{Inline: inlineExec, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	const k = 6
	for i := 0; i < k; i++ {
		g, st, _ := co1.Lease("w")
		if st != LeaseCell {
			t.Fatalf("lease %d: state %v", i, st)
		}
		if dup, err := co1.Result(g.LeaseID, g.Cell.Key, execPayload(g.Cell)); err != nil || dup {
			t.Fatalf("result %d: dup=%v err=%v", i, dup, err)
		}
	}
	co1.Close() // the "kill": no Run, no graceful drain

	co2, err := NewCoordinator(cells, Options{Inline: inlineExec, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if p := co2.Progress(); p.Resumed != k || p.CellsDone != k {
		t.Fatalf("progress after resume = %+v, want %d resumed/done", p, k)
	}
	// Only the un-journaled cells may be leased, and each exactly once.
	seen := map[int]bool{}
	for {
		g, st, _ := co2.Lease("w")
		if st == LeaseDone {
			break
		}
		if st != LeaseCell {
			t.Fatalf("state %v", st)
		}
		if g.Cell.Index < k {
			t.Fatalf("journaled cell %d re-leased", g.Cell.Index)
		}
		if seen[g.Cell.Index] {
			t.Fatalf("cell %d leased twice", g.Cell.Index)
		}
		seen[g.Cell.Index] = true
		if dup, err := co2.Result(g.LeaseID, g.Cell.Key, execPayload(g.Cell)); err != nil || dup {
			t.Fatalf("result: dup=%v err=%v", dup, err)
		}
	}
	got, err := co2.collect()
	if err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, baseline(cells))
}

// TestCachePrefill: cells the coordinator's memo cache already holds
// complete on construction and are never leased.
func TestCachePrefill(t *testing.T) {
	cells := testCells(4)
	cache := memo.New("", 0)
	cache.Put(cells[1].Key, execPayload(cells[1]))
	cache.Put(cells[3].Key, execPayload(cells[3]))
	co, err := NewCoordinator(cells, Options{Inline: inlineExec, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if p := co.Progress(); p.CacheHits != 2 || p.CellsDone != 2 {
		t.Fatalf("progress = %+v, want 2 cache hits done", p)
	}
	for _, want := range []int{0, 2} {
		g, st, _ := co.Lease("w")
		if st != LeaseCell || g.Cell.Index != want {
			t.Fatalf("lease: cell %d state %v, want cell %d", g.Cell.Index, st, want)
		}
		if dup, err := co.Result(g.LeaseID, g.Cell.Key, execPayload(g.Cell)); err != nil || dup {
			t.Fatalf("result: dup=%v err=%v", dup, err)
		}
	}
	got, err := co.collect()
	if err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, baseline(cells))
	// New completions were stored back, so a successor coordinator
	// finishes instantly from the cache alone.
	co2, err := NewCoordinator(cells, Options{Inline: inlineExec, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if _, st, _ := co2.Lease("w"); st != LeaseDone {
		t.Fatalf("cache-complete campaign leased a cell (state %v)", st)
	}
}

// --- HTTP transport + worker ---

func TestHTTPWorkersHappyPath(t *testing.T) {
	cells := testCells(200)
	co, err := NewCoordinator(cells, Options{Inline: inlineExec, LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		w := &Worker{
			Base: srv.URL,
			ID:   fmt.Sprintf("w%d", i),
			Exec: func(_ context.Context, c Cell) ([]byte, error) { return execPayload(c), nil },
		}
		go w.Run(ctx)
	}
	got, err := co.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, baseline(cells))
	p := co.Progress()
	if p.Results != 200 || p.CellsDone != 200 {
		t.Fatalf("progress = %+v, want 200 results", p)
	}
}

// TestWorkerPanicQuarantinesThenInlineRecovers: a worker whose executor
// panics on one cell fails that cell (not the worker, not the
// campaign); past the attempt cap the coordinator runs it inline and
// the report is byte-identical anyway.
func TestWorkerPanicQuarantinesThenInlineRecovers(t *testing.T) {
	cells := testCells(30)
	poison := cells[17].Key
	co, err := NewCoordinator(cells, Options{
		Inline:      inlineExec,
		LeaseTTL:    time.Second,
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var panics atomic.Int32
	for i := 0; i < 3; i++ {
		w := &Worker{
			Base: srv.URL,
			ID:   fmt.Sprintf("w%d", i),
			Exec: func(_ context.Context, c Cell) ([]byte, error) {
				if c.Key == poison {
					panics.Add(1)
					panic("worker executor bug")
				}
				return execPayload(c), nil
			},
		}
		go w.Run(ctx)
	}
	got, err := co.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, baseline(cells))
	p := co.Progress()
	if panics.Load() < 2 {
		t.Fatalf("poison cell panicked %d times, want the full attempt cap", panics.Load())
	}
	if p.WorkerFailures < 2 || p.InlineRuns != 1 {
		t.Fatalf("progress = %+v, want >=2 worker failures and exactly 1 inline run", p)
	}
}

// TestRemoteCacheFuncs: the /cache endpoints serve as a shared memo
// tier — a worker-side miss reads the coordinator's cache, and
// worker-computed payloads flow back.
func TestRemoteCacheFuncs(t *testing.T) {
	cells := testCells(1)
	cache := memo.New("", 0)
	cache.Put("warm", []byte("warm-payload"))
	co, err := NewCoordinator(cells, Options{Inline: inlineExec, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	remote, store := RemoteCacheFuncs(srv.URL, nil)
	if v, ok := remote("warm"); !ok || string(v) != "warm-payload" {
		t.Fatalf("remote(warm) = %q %v", v, ok)
	}
	if _, ok := remote("cold"); ok {
		t.Fatal("remote(cold) hit")
	}
	store("pushed", []byte("pushed-payload"))
	if v, ok := cache.Get("pushed"); !ok || string(v) != "pushed-payload" {
		t.Fatalf("store did not land in coordinator cache: %q %v", v, ok)
	}
	// End to end: a worker memo cache with these hooks shares results
	// through the coordinator.
	wc := memo.New("", 0)
	wc.Remote, wc.RemoteStore = remote, store
	v, hit, err := wc.Do("warm", func() ([]byte, error) {
		t.Fatal("computed despite coordinator holding the entry")
		return nil, nil
	})
	if err != nil || !hit || string(v) != "warm-payload" {
		t.Fatalf("worker cache remote hit: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestProgressAndMetricsEndpoints(t *testing.T) {
	cells := testCells(3)
	co, err := NewCoordinator(cells, Options{Name: "unit", Inline: inlineExec})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	client := srv.Client()
	resp, err := client.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var p Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p.Name != "unit" || p.CellsTotal != 3 || p.CellsPending != 3 {
		t.Fatalf("progress = %+v", p)
	}
	mresp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"fabric_cells_total 3", "fabric_cells_pending 3", "fabric_leases_granted_total 0"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWorkerGivesUpOnUnreachableCoordinator: with GiveUpAfter set, a
// worker facing a coordinator that no longer exists stops retrying and
// returns ErrUnreachable — a fleet whose campaign is over drains
// instead of spinning forever. Zero keeps the retry-forever behavior
// the coordinator-restart chaos tests depend on.
func TestWorkerGivesUpOnUnreachableCoordinator(t *testing.T) {
	srv := httptest.NewServer(nil)
	base := srv.URL
	srv.Close() // nothing listens here anymore

	w := &Worker{
		Base:        base,
		Exec:        func(ctx context.Context, c Cell) ([]byte, error) { return nil, nil },
		GiveUpAfter: 100 * time.Millisecond,
	}
	start := time.Now()
	err := w.Run(context.Background())
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("gave up after %v, want ~100ms budget", elapsed)
	}
}

// --- batch leases ---

// TestLeaseBatchGrantsAndWait pins the batch grant contract: up to max
// lowest-index eligible cells per call, each under its own lease, with
// per-cell results retiring them independently.
func TestLeaseBatchGrantsAndWait(t *testing.T) {
	cells := testCells(5)
	co, err := NewCoordinator(cells, Options{Inline: inlineExec, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	grants, state, _ := co.LeaseBatch("w1", 3)
	if state != LeaseCell || len(grants) != 3 {
		t.Fatalf("first batch: state %v, %d grants, want 3 cells", state, len(grants))
	}
	seen := map[string]bool{}
	for i, g := range grants {
		if g.Cell.Index != i {
			t.Fatalf("grant %d is cell %d, want lowest-index-first", i, g.Cell.Index)
		}
		if seen[g.LeaseID] {
			t.Fatalf("duplicate lease ID %q in one batch", g.LeaseID)
		}
		seen[g.LeaseID] = true
	}
	rest, state, _ := co.LeaseBatch("w2", 10)
	if state != LeaseCell || len(rest) != 2 {
		t.Fatalf("second batch: state %v, %d grants, want the 2 remaining cells", state, len(rest))
	}
	if _, state, retry := co.LeaseBatch("w3", 4); state != LeaseWait || retry <= 0 {
		t.Fatalf("drained pool: state %v retry %v, want wait", state, retry)
	}
	// Cells retire one at a time; the campaign only finishes when every
	// batch member reported.
	for _, g := range append(grants, rest...) {
		if _, state, _ := co.LeaseBatch("w3", 1); state == LeaseDone {
			t.Fatalf("campaign done with cell %d still leased", g.Cell.Index)
		}
		if _, err := co.Result(g.LeaseID, g.Cell.Key, execPayload(g.Cell)); err != nil {
			t.Fatal(err)
		}
	}
	if _, state, _ := co.LeaseBatch("w3", 1); state != LeaseDone {
		t.Fatalf("state %v after all results, want done", state)
	}
	got, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, baseline(cells))
}

// TestBatchWorkersJournalResumeByteIdentical is the batch-lease
// regression gate: a campaign served in multi-cell grants to batch
// workers, killed partway, and resumed from its journal must produce
// the byte-identical report of a never-interrupted single-cell run —
// and multi-cell grants must actually have been handed out.
func TestBatchWorkersJournalResumeByteIdentical(t *testing.T) {
	cells := testCells(60)
	journal := filepath.Join(t.TempDir(), "batch.journal")
	var maxBatch atomic.Int32
	var executed atomic.Int32
	// serve wraps the coordinator's handler to record the largest grant
	// any /lease response carried.
	serve := func(co *Coordinator) *httptest.Server {
		h := co.Handler()
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/lease" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var resp leaseResp
			if json.Unmarshal(rec.Body.Bytes(), &resp) == nil {
				if n := int32(len(resp.Grants)); n > maxBatch.Load() {
					maxBatch.Store(n)
				}
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		}))
	}
	newWorkers := func(ctx context.Context, base string, n int, interruptAfter int32, interrupt func()) {
		for i := 0; i < n; i++ {
			w := &Worker{
				Base:  base,
				ID:    fmt.Sprintf("bw%d", i),
				Batch: 8,
				Exec: func(_ context.Context, c Cell) ([]byte, error) {
					if interrupt != nil && executed.Add(1) >= interruptAfter {
						interrupt()
					}
					return execPayload(c), nil
				},
			}
			go w.Run(ctx)
		}
	}

	// Phase 1: kill the coordinator after ~a third of the campaign.
	func() {
		co, err := NewCoordinator(cells, Options{Inline: inlineExec, LeaseTTL: time.Second, JournalPath: journal})
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()
		srv := serve(co)
		defer srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		wctx, stopWorkers := context.WithCancel(ctx)
		defer stopWorkers()
		coCtx, kill := context.WithCancel(ctx)
		defer kill()
		newWorkers(wctx, srv.URL, 2, 20, kill)
		if _, err := co.Run(coCtx); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run returned %v, want context.Canceled", err)
		}
	}()

	// Phase 2: resume over the same journal and finish with batch workers.
	co, err := NewCoordinator(cells, Options{Inline: inlineExec, LeaseTTL: time.Second, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if p := co.Progress(); p.Resumed == 0 {
		t.Fatalf("nothing resumed from the journal (progress %+v)", p)
	}
	srv := serve(co)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	newWorkers(wctx, srv.URL, 2, 0, nil)
	got, err := co.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, baseline(cells))
	if maxBatch.Load() < 2 {
		t.Fatalf("no multi-cell batch was ever granted (max batch %d)", maxBatch.Load())
	}
}

// TestBatchSequentialFallback: a worker with Batch > 1 drains
// multi-cell grants correctly, one cell at a time, with per-cell failure
// isolation.
func TestBatchSequentialFallback(t *testing.T) {
	cells := testCells(20)
	poison := cells[7].Key
	co, err := NewCoordinator(cells, Options{
		Inline:      inlineExec,
		LeaseTTL:    time.Second,
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := &Worker{
		Base:  srv.URL,
		ID:    "seq",
		Batch: 6,
		Exec: func(_ context.Context, c Cell) ([]byte, error) {
			if c.Key == poison {
				return nil, errors.New("poisoned cell")
			}
			return execPayload(c), nil
		},
	}
	go w.Run(ctx)
	got, err := co.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertPayloads(t, got, baseline(cells))
	p := co.Progress()
	if p.WorkerFailures < 2 || p.InlineRuns != 1 {
		t.Fatalf("progress = %+v, want the poison cell quarantined to exactly 1 inline run", p)
	}
}
