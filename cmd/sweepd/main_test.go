package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"logtmse"
)

func campaignArgs(journal string, localWorkers int) []string {
	args := []string{
		"-workloads", "Cholesky", "-scale", "0.02", "-seeds", "2",
		"-local-workers", fmt.Sprint(localWorkers), "-idle-inline", "100ms",
	}
	if journal != "" {
		args = append(args, "-journal", journal)
	}
	return args
}

// TestSweepdCampaignAndJournalResume runs a small campaign end to end
// through run() — local workers over real HTTP — then re-runs it on the
// same journal with no workers at all. The resumed run must recompute
// nothing (every cell resumed from the journal) and print a
// byte-identical report.
func TestSweepdCampaignAndJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	var out1, log1 bytes.Buffer
	if code := run(context.Background(), campaignArgs(journal, 2), &out1, &log1); code != 0 {
		t.Fatalf("first run exited %d\n%s", code, log1.String())
	}
	cells := len(logtmse.Figure4Variants()) * 2
	if !strings.Contains(log1.String(), fmt.Sprintf("%d cells done", cells)) {
		t.Fatalf("first run summary missing %d cells done:\n%s", cells, log1.String())
	}

	// No workers this time: the only ways to finish are the journal and
	// idle-inline. All cells must come from the journal.
	var out2, log2 bytes.Buffer
	if code := run(context.Background(), campaignArgs(journal, 0), &out2, &log2); code != 0 {
		t.Fatalf("resumed run exited %d\n%s", code, log2.String())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatalf("resumed report differs from original:\n--- original\n%s--- resumed\n%s",
			out1.String(), out2.String())
	}
	want := fmt.Sprintf("%d resumed from journal", cells)
	if !strings.Contains(log2.String(), want) {
		t.Fatalf("resumed run summary missing %q:\n%s", want, log2.String())
	}
}

// figure4Report builds the figure4 command and returns its stdout for
// the parameters campaignArgs describes.
func figure4Report(t *testing.T) []byte {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the figure4 binary")
	}
	bin := filepath.Join(t.TempDir(), "figure4")
	build := exec.Command("go", "build", "-o", bin, "logtmse/cmd/figure4")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building figure4: %v\n%s", err, out)
	}
	ref, err := exec.Command(bin, "-workloads", "Cholesky", "-scale", "0.02", "-seeds", "2").Output()
	if err != nil {
		t.Fatalf("figure4: %v", err)
	}
	return ref
}

// TestSweepdReportMatchesFigure4 pins the tool-level byte-identity
// claim: sweepd's stdout for a campaign equals the figure4 command's
// stdout for the same parameters.
func TestSweepdReportMatchesFigure4(t *testing.T) {
	ref := figure4Report(t)
	var out, log bytes.Buffer
	if code := run(context.Background(), campaignArgs("", 3), &out, &log); code != 0 {
		t.Fatalf("sweepd exited %d\n%s", code, log.String())
	}
	if !bytes.Equal(ref, out.Bytes()) {
		t.Fatalf("sweepd report differs from figure4:\n--- figure4\n%s--- sweepd\n%s",
			ref, out.String())
	}
}

// TestSweepdLeaseBatchReportMatchesFigure4 is the same check with
// multi-cell lease grants: workers that take 12 cells per round trip,
// with inline execution held off so they compute every cell, still
// print figure4's report byte for byte.
func TestSweepdLeaseBatchReportMatchesFigure4(t *testing.T) {
	ref := figure4Report(t)
	var out, log bytes.Buffer
	args := append(campaignArgs("", 2), "-lease-batch", "12", "-idle-inline", "1h")
	if code := run(context.Background(), args, &out, &log); code != 0 {
		t.Fatalf("sweepd exited %d\n%s", code, log.String())
	}
	if !bytes.Equal(ref, out.Bytes()) {
		t.Fatalf("batched sweepd report differs from figure4:\n--- figure4\n%s--- sweepd\n%s",
			ref, out.String())
	}
}

// syncBuffer is a bytes.Buffer safe for one writer and one polling
// reader on different goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSweepdWorkerMode drives worker mode against a coordinator run
// in-process: the coordinator gets no local workers and an idle-inline
// far beyond the test's life, so only the runWorker fleet can finish
// the campaign — over real HTTP.
func TestSweepdWorkerMode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var out syncBuffer
	var log syncBuffer
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run(ctx, []string{
			"-workloads", "Cholesky", "-scale", "0.02", "-seeds", "1",
			"-idle-inline", "1h", "-addr", "127.0.0.1:0",
		}, &out, &log)
	}()

	// The coordinator prints its bound address to stderr once listening.
	var base string
	for base == "" {
		for _, line := range strings.Split(log.String(), "\n") {
			if idx := strings.Index(line, "on http://"); idx >= 0 {
				base = strings.TrimSpace(line[idx+len("on "):])
			}
		}
		if base == "" {
			select {
			case <-ctx.Done():
				t.Fatalf("coordinator never printed its address:\n%s", log.String())
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	var wlog bytes.Buffer
	if code := runWorker(ctx, base, 2, "", 30*time.Second, 0, &wlog); code != 0 {
		t.Fatalf("worker exited %d\n%s\ncoordinator log:\n%s", code, wlog.String(), log.String())
	}
	if code := <-codeCh; code != 0 {
		t.Fatalf("coordinator exited %d\n%s", code, log.String())
	}
	if !strings.Contains(out.String(), "Cholesky") {
		t.Fatalf("coordinator report missing the workload row:\n%s", out.String())
	}
}
