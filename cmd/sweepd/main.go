// Command sweepd runs a Figure 4 campaign over the fault-tolerant
// sweep fabric. In coordinator mode (the default) it shards the
// campaign's cells to HTTP workers under time-bounded leases, journals
// every completion so a killed coordinator resumes without
// recomputation, and prints the same report figure4 prints —
// byte-identical regardless of worker deaths, duplicate deliveries, or
// resume. In worker mode (-worker URL) it leases cells from a remote
// coordinator and executes them through the simulation harness,
// sharing the coordinator's result cache as a remote memo tier.
//
// Usage:
//
//	sweepd [-addr 127.0.0.1:0] [-local-workers N] [-journal PATH] ...
//	sweepd -worker http://host:port [-j N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"logtmse"
	"logtmse/internal/fabric"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workerURL = fs.String("worker", "", "run as a worker against this coordinator URL instead of coordinating")
		jobs      = fs.Int("j", 1, "worker mode: concurrent cells this worker executes")

		addr         = fs.String("addr", "127.0.0.1:0", "coordinator listen address (0 port picks one; printed to stderr)")
		names        = fs.String("workloads", "all", "comma-separated benchmark names or 'all'")
		scale        = fs.Float64("scale", 1.0, "input scale relative to the paper's (1.0 = Table 2 inputs)")
		seeds        = fs.Int("seeds", 3, "number of pseudo-random perturbations per cell (95% CIs)")
		threads      = fs.Int("threads", 0, "worker threads per simulated machine (0 = all 32 contexts)")
		journal      = fs.String("journal", "", "append-only completion ledger; reuse the same path to resume a killed campaign")
		fsync        = fs.Bool("fsync", false, "fsync the journal after every record")
		useCache     = fs.Bool("cache", false, "memoize cell results by fingerprint (in-memory)")
		cacheDir     = fs.String("cache-dir", "", "persist cached cell results in this directory (implies -cache); workers use it as a local tier")
		leaseTTL     = fs.Duration("lease-ttl", 0, "how long a worker may hold a cell without heartbeating (0 = fabric default)")
		maxAttempts  = fs.Int("max-attempts", 0, "lease grants per cell before quarantine and inline execution (0 = fabric default)")
		idleInline   = fs.Duration("idle-inline", 5*time.Second, "run pending cells inline after this long with no worker activity (0 disables)")
		localWorkers = fs.Int("local-workers", 0, "spawn this many in-process workers against the coordinator's own address")
		linger       = fs.Duration("linger", 3*time.Second, "after the campaign completes, keep serving 'done' this long so remote workers exit cleanly")
		giveUp       = fs.Duration("give-up", 2*time.Minute, "worker mode: exit once the coordinator has been unreachable this long (0 = retry forever)")
		leaseBatch   = fs.Int("lease-batch", 0, "cells granted per lease round trip (0 = one); a batch runs cell by cell, it only saves polls over slow links")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workerURL != "" {
		return runWorker(ctx, *workerURL, *jobs, *cacheDir, *giveUp, *leaseBatch, stderr)
	}
	return runCoordinator(ctx, coordinatorConfig{
		addr: *addr, names: *names, scale: *scale, seeds: *seeds, threads: *threads,
		journal: *journal, fsync: *fsync, useCache: *useCache, cacheDir: *cacheDir,
		leaseTTL: *leaseTTL, maxAttempts: *maxAttempts, idleInline: *idleInline,
		localWorkers: *localWorkers, linger: *linger,
		leaseBatch: *leaseBatch,
	}, stdout, stderr)
}

type coordinatorConfig struct {
	addr, names     string
	scale           float64
	seeds, threads  int
	journal         string
	fsync, useCache bool
	cacheDir        string
	leaseTTL        time.Duration
	maxAttempts     int
	idleInline      time.Duration
	localWorkers    int
	linger          time.Duration
	leaseBatch      int
}

func runCoordinator(ctx context.Context, cfg coordinatorConfig, stdout, stderr io.Writer) int {
	var sel []string
	if cfg.names == "all" {
		for _, w := range logtmse.Workloads() {
			sel = append(sel, w.Name)
		}
	} else {
		sel = strings.Split(cfg.names, ",")
	}
	seedList := make([]int64, cfg.seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}
	cells, err := logtmse.Figure4Cells(sel, cfg.scale, seedList, cfg.threads)
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: %v\n", err)
		return 2
	}
	cache := logtmse.CacheFromFlags(cfg.useCache, cfg.cacheDir)
	exec := logtmse.ExecuteCell(cache)
	co, err := fabric.NewCoordinator(cells, fabric.Options{
		Name:         "figure4",
		LeaseTTL:     cfg.leaseTTL,
		MaxAttempts:  cfg.maxAttempts,
		JournalPath:  cfg.journal,
		FsyncJournal: cfg.fsync,
		Cache:        cache,
		Inline:       func(c fabric.Cell) ([]byte, error) { return exec(ctx, c) },
		IdleInline:   cfg.idleInline,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: %v\n", err)
		return 1
	}
	defer co.Close()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: listen: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: co.Handler()}
	go srv.Serve(ln)
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			srv.Close()
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(stderr, "sweepd: coordinating %d cells on %s\n", len(cells), base)

	// Local workers get their own cancelation so they die with this
	// coordinator: a worker that outlives its campaign would retry the
	// freed port forever — and complete a later campaign that happens to
	// bind it (harmless by idempotency, but a leak and a confusing race).
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	for i := 0; i < cfg.localWorkers; i++ {
		w := &fabric.Worker{Base: base, ID: fmt.Sprintf("local-%d", i), Exec: exec, Batch: cfg.leaseBatch}
		go w.Run(wctx)
	}

	payloads, err := co.Run(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: %v\n", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	rows, err := logtmse.Figure4RowsFromPayloads(sel, seedList, payloads)
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: %v\n", err)
		return 1
	}
	logtmse.WriteFigure4Header(stdout, cfg.scale, cfg.seeds)
	for _, row := range rows {
		logtmse.WriteFigure4Row(stdout, row)
	}
	p := co.Progress()
	fmt.Fprintf(stderr,
		"sweepd: %d cells done in %.1fs: %d resumed from journal, %d from cache, %d leases, %d duplicates dropped, %d expiries, %d inline\n",
		p.CellsDone, p.ElapsedSec, p.Resumed, p.CacheHits,
		p.LeasesGranted, p.DuplicateResults, p.ExpiredLeases, p.InlineRuns)
	if cache != nil {
		fmt.Fprintln(stderr, logtmse.CacheSummary(cache))
	}
	// Lame duck: a worker polls at most every 2s (fabric PollMax), so
	// keep answering /lease with "done" a moment longer — otherwise
	// workers mid-poll see the port vanish and can't tell "campaign
	// finished" from "coordinator crashed". Skipped when no worker ever
	// leased anything.
	if cfg.linger > 0 && p.LeasesGranted > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(cfg.linger):
		}
	}
	return 0
}

func runWorker(ctx context.Context, base string, jobs int, cacheDir string, giveUp time.Duration, leaseBatch int, stderr io.Writer) int {
	if jobs < 1 {
		jobs = 1
	}
	// Every worker gets a memo cache whose remote tier is the
	// coordinator: local hits skip the network, local misses consult the
	// coordinator's cache, and every local computation is pushed back so
	// the whole fleet shares one result pool.
	cache := logtmse.NewResultCache(cacheDir, 0)
	cache.Remote, cache.RemoteStore = fabric.RemoteCacheFuncs(base, nil)
	exec := logtmse.ExecuteCell(cache)
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	host, _ := os.Hostname()
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		w := &fabric.Worker{
			Base:        base,
			ID:          fmt.Sprintf("%s-%d-%d", host, os.Getpid(), i),
			Exec:        exec,
			Batch:       leaseBatch,
			GiveUpAfter: giveUp,
			Logf:        logf,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(stderr, "sweepd: worker: %v\n", err)
			if errors.Is(err, context.Canceled) {
				return 130
			}
			return 1
		}
	}
	fmt.Fprintln(stderr, "sweepd: coordinator reports campaign complete")
	return 0
}
