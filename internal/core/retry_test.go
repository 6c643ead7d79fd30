package core

import (
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/coherence"
	"logtmse/internal/sim"
)

// tape binds t to issue ops in order, one per completed operation.
func tape(t *Thread, ops ...func()) {
	i := 0
	t.BindStep(func(OpResult) {
		if i < len(ops) {
			i++
			ops[i-1]()
		}
	})
}

// stallPair builds the retry layer's minimal scene on p: a blocker
// transaction writes block X and then computes for a very long time,
// while a younger transaction stores to X and stalls on it, retrying
// every few cycles. They run on two cores, or on two SMT contexts of a
// one-core machine. Both are stepped threads (no goroutines), so the
// caller can drive single retries with Engine.Step. The returned system
// has run to the first stalled retries.
func stallPair(tb testing.TB, p Params) (*System, *Thread) {
	tb.Helper()
	s, err := NewSystem(p)
	if err != nil {
		tb.Fatal(err)
	}
	pt := s.NewPageTable(1)
	const X = addr.VAddr(0xf000)
	blocker := s.SpawnStepped("blocker", 1, pt)
	tape(blocker,
		func() { s.IssueBegin(blocker, false) },
		func() { s.IssueStore(blocker, X, 1) },
		func() { s.IssueCompute(blocker, 1<<40) },
		func() { s.IssueCommit(blocker) },
		func() { s.IssueDone(blocker) },
	)
	retrier := s.SpawnStepped("retrier", 1, pt)
	tape(retrier,
		func() { s.IssueCompute(retrier, 50) },
		func() { s.IssueBegin(retrier, false) },
		func() { s.IssueStore(retrier, X, 2) },
		func() { s.IssueCommit(retrier) },
		func() { s.IssueDone(retrier) },
	)
	for i, th := range []*Thread{blocker, retrier} {
		core, ctx := i, 0
		if p.Cores == 1 {
			core, ctx = 0, i // SMT siblings
		}
		if err := s.Place(th, core, ctx); err != nil {
			tb.Fatal(err)
		}
		s.Start(th)
	}
	s.RunUntil(2_000)
	if retrier.pendKind != pendRetry || !retrier.stalling {
		tb.Fatalf("retrier is not stalled on the blocker (pending kind %d)", retrier.pendKind)
	}
	return s, retrier
}

// stepRetry executes the retrier's next retry event.
func stepRetry(tb testing.TB, s *System, t *Thread) {
	if t.pendKind != pendRetry {
		tb.Fatalf("next event of %s is not a retry (pending kind %d)", t.Name, t.pendKind)
	}
	s.Engine.Step()
}

func TestQuietRetriesReplayFromMemo(t *testing.T) {
	s, r := stallPair(t, smallParams())
	before := s.quietRetries
	if before == 0 {
		t.Fatalf("no quiet retries while stalled on an idle blocker")
	}
	for i := 0; i < 10; i++ {
		stepRetry(t, s, r)
	}
	if got := s.quietRetries - before; got != 10 {
		t.Errorf("quiet retries advanced by %d over 10 unchanged retries, want 10", got)
	}
	// Any conflict-state change sends the next retry through a walk,
	// which re-arms the memo for the one after it.
	s.ConflictStateChanged()
	stepRetry(t, s, r)
	if got := s.quietRetries - before; got != 10 {
		t.Errorf("a retry after an epoch bump was replayed (quiet retries +%d)", got-10)
	}
	stepRetry(t, s, r)
	if got := s.quietRetries - before; got != 11 {
		t.Errorf("the retry after a fresh walk was not replayed (quiet retries +%d, want 11)", got)
	}
}

// TestReplayMatchesWalk drives the same stall twice, once answering
// retries from the memo and once forcing a full walk on every retry,
// and requires identical counters, clock and RNG position.
func TestReplayMatchesWalk(t *testing.T) {
	for _, shape := range []struct {
		name string
		edit func(*Params)
	}{
		{"directory", func(*Params) {}},
		{"snoop", func(p *Params) { p.Protocol = coherence.Snoop }},
		{"2chip", func(p *Params) { p.Chips = 2 }},
		{"cachebits", func(p *Params) { p.CD = CDCacheBits }},
		{"smt", func(p *Params) { p.Cores = 1; p.GridW, p.GridH = 1, 1; p.L2Banks = 1 }},
	} {
		t.Run(shape.name, func(t *testing.T) {
			p := smallParams()
			shape.edit(&p)
			memo, mr := stallPair(t, p)
			walk, wr := stallPair(t, p)
			for i := 0; i < 200; i++ {
				stepRetry(t, memo, mr)
				walk.epoch++
				stepRetry(t, walk, wr)
			}
			if memo.quietRetries < 200 {
				t.Errorf("memo side replayed only %d retries", memo.quietRetries)
			}
			if got, want := memo.Stats(), walk.Stats(); got != want {
				t.Errorf("replayed stats diverged from walked stats:\n got %+v\nwant %+v", got, want)
			}
			if memo.Engine.Now() != walk.Engine.Now() || memo.Engine.RandDraws() != walk.Engine.RandDraws() {
				t.Errorf("engine diverged: cycle %d vs %d, rand draws %d vs %d",
					memo.Engine.Now(), walk.Engine.Now(), memo.Engine.RandDraws(), walk.Engine.RandDraws())
			}
		})
	}
}

// TestGrantThenNACKInvalidatesMemos covers the multi-chip path where the
// memory directory grants an access and the requester's own chip then
// NACKs it. The grant already rewrote the memory-directory entry and
// other chips' copies, so that NACK must advance the epoch: a third
// thread's memo written before it is dead afterwards.
//
// Chip 0 holds cores 0-1, chip 1 cores 2-3. The holder (core 2) reads X
// in a transaction, so chip 1 shares X. The watcher (core 0) stores to X
// and stalls on an inter-chip NACK from the holder, replaying it from
// its memo. Then the writer (core 3) stores to X: chip 1 lacks exclusive
// rights, the memory directory grants chip 1 ownership (no other chip
// is involved), and chip 1's directory NACKs the writer on the holder's
// read set.
func TestGrantThenNACKInvalidatesMemos(t *testing.T) {
	run := func(walk bool) *System {
		p := smallParams()
		p.Chips = 2
		s := newSys(t, p)
		pt := s.NewPageTable(1)
		const X = addr.VAddr(0xf000)
		holder := s.SpawnStepped("holder", 1, pt)
		tape(holder,
			func() { s.IssueBegin(holder, false) },
			func() { s.IssueLoad(holder, X) },
			func() { s.IssueCompute(holder, 1<<40) },
		)
		watcher := s.SpawnStepped("watcher", 1, pt)
		tape(watcher,
			func() { s.IssueCompute(watcher, 50) },
			func() { s.IssueBegin(watcher, false) },
			func() { s.IssueStore(watcher, X, 1) },
		)
		writer := s.SpawnStepped("writer", 1, pt)
		tape(writer,
			func() { s.IssueCompute(writer, 500) },
			func() { s.IssueBegin(writer, false) },
			func() { s.IssueCompute(writer, 200) },
			func() { s.IssueStore(writer, X, 2) },
		)
		for i, th := range []*Thread{holder, watcher, writer} {
			if err := s.Place(th, []int{2, 0, 3}[i], 0); err != nil {
				t.Fatal(err)
			}
			s.Start(th)
		}

		sawGrantNACK := false
		for s.Engine.Now() < 3_000 {
			if walk {
				s.epoch++
			}
			live := s.memoFor(watcher, X) != nil
			stalled := writer.pendKind == pendRetry
			msgs := s.Coh.Stats().InterChipMsgs
			s.Engine.Step()
			if walk || stalled || writer.pendKind != pendRetry {
				continue
			}
			sawGrantNACK = true
			if !live || s.Coh.Stats().InterChipMsgs != msgs+1 {
				t.Fatalf("scene drifted: watcher memo live %v, writer's store sent %d inter-chip messages",
					live, s.Coh.Stats().InterChipMsgs-msgs)
			}
			if s.memoFor(watcher, X) != nil {
				t.Errorf("the watcher's memo survived a NACK that followed an inter-chip grant")
			}
		}
		if !walk && !sawGrantNACK {
			t.Fatalf("the writer never stalled")
		}
		if !watcher.stalling || !writer.stalling {
			t.Fatalf("scene lost its stalls (watcher %v, writer %v)", watcher.stalling, writer.stalling)
		}
		return s
	}
	memo, walk := run(false), run(true)
	if memo.quietRetries == 0 {
		t.Errorf("no retry was replayed")
	}
	if got, want := memo.Stats(), walk.Stats(); got != want {
		t.Errorf("replayed stats diverged from walked stats:\n got %+v\nwant %+v", got, want)
	}
	if memo.Engine.Now() != walk.Engine.Now() || memo.Engine.RandDraws() != walk.Engine.RandDraws() {
		t.Errorf("engine diverged: cycle %d vs %d, rand draws %d vs %d",
			memo.Engine.Now(), walk.Engine.Now(), memo.Engine.RandDraws(), walk.Engine.RandDraws())
	}
}

// TestRetryMemoBypass pins the bypass gate: each configuration whose NACK
// walk has side effects a memo cannot replay walks every retry — also
// when it is switched on after a memo was written.
func TestRetryMemoBypass(t *testing.T) {
	for _, c := range []struct {
		name  string
		setup func(*Params)
		after func(*System)
	}{
		{"contention", func(p *Params) { p.ModelContention = true }, func(*System) {}},
		{"perturbed-grid", func(*Params) {}, func(s *System) { s.grid.SetPerturb(func(l sim.Cycle) sim.Cycle { return l }) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := smallParams()
			c.setup(&p)
			s, r := stallPair(t, p)
			c.after(s)
			before := s.quietRetries
			if c.name == "contention" && before != 0 {
				t.Errorf("%d retries replayed under the contention model", before)
			}
			for i := 0; i < 5; i++ {
				stepRetry(t, s, r)
			}
			if got := s.quietRetries - before; got != 0 {
				t.Errorf("%d retries replayed with the bypass active", got)
			}
		})
	}
}

// TestQuietRetryZeroAlloc guards the replay path: a memo-hit retry — replay,
// conflict resolution and rescheduling — allocates nothing.
func TestQuietRetryZeroAlloc(t *testing.T) {
	s, r := stallPair(t, smallParams())
	before := s.quietRetries
	if n := testing.AllocsPerRun(1000, func() { stepRetry(t, s, r) }); n != 0 {
		t.Errorf("memo-hit retry allocates %.1f times per retry, want 0", n)
	}
	if s.quietRetries-before < 1000 {
		t.Errorf("allocation guard measured walks, not memo hits")
	}
}

// BenchmarkNACKRetry times one NACK retry against a transaction that
// holds the block: "walk" forces the full protocol walk (L1, directory,
// forward, signature check) on every retry, "memo" answers it from the
// thread's memo.
func BenchmarkNACKRetry(b *testing.B) {
	for _, mode := range []string{"walk", "memo"} {
		b.Run(mode, func(b *testing.B) {
			s, r := stallPair(b, smallParams())
			walk := mode == "walk"
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if walk {
					s.epoch++
				}
				stepRetry(b, s, r)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/retry")
		})
	}
}
